"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``      benchmarks and clusters available
``run``       one benchmark run with full observables
``trace``     traced run -> Chrome trace JSON (Perfetto-loadable), SVG
              timeline, markdown waiting-time report (see
              ``docs/observability.md``)
``sweep``     scaling sweep (core-level or node-level; ``--executor``
              picks serial/local-pool/fabric backends, ``--listen``
              accepts fabric workers)
``worker``    join a fabric sweep manager as a TCP worker
``compare``   ClusterB-over-ClusterA acceleration factor
``report``    suite-wide summary (acceleration + efficiency + class)
``predict``   tiered prediction (analytic / surrogate / auto / des) of
              the paper's scaling grid with predicted-vs-simulated
              error bars (see ``docs/prediction.md``)
``serve``     simulation-as-a-service: asyncio HTTP front end with a
              content-addressed result cache, band-negotiated
              prediction answers, and single-flight DES escalation
              (see ``docs/serving.md``)
``scenarios`` list / show / validate the scenario library and the
              cluster zoo (see ``docs/scenarios.md``); ``sweep``,
              ``trace``, and ``predict`` accept any of them via
              ``--scenario``
``validate``  run validation lanes by name (``--lane``, repeatable;
              see :data:`repro.validate.lanes.LANES`); ``--regen``
              rewrites the golden corpus and refuses on a dirty git
              tree
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import classify_scaling, domain_efficiency
from repro.harness import ascii_table, run, scaling_sweep
from repro.machine import get_cluster
from repro.spechpc import SUITE_ORDER, all_benchmarks, get_benchmark
from repro.units import GB, fmt_energy, fmt_power, fmt_time
from repro.validate.golden import DEFAULT_GOLDEN_DIR, DirtyTreeError, regenerate
from repro.validate.lanes import LANES, LaneContext


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        (
            b.name,
            b.info.language,
            b.info.collective,
            "memory-bound" if b.info.memory_bound else "non-memory-bound",
            ", ".join(sorted(b.workloads)),
        )
        for b in all_benchmarks()
    ]
    print(ascii_table(
        ["benchmark", "language", "collective", "class", "workloads"], rows,
        title="SPEChpc 2021 suite",
    ))
    print("\nclusters: A = ClusterA (Ice Lake 8360Y), B = ClusterB (Sapphire Rapids 8470)")
    return 0


def _load_faults(path: str | None):
    if path is None:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load(path)


def _scenario_context(args: argparse.Namespace):
    """Resolve ``--scenario`` against explicit flags.

    Precedence: an explicit ``--cluster``/``--suite``/``--faults`` flag
    beats the scenario's value beats the command's default.  Returns
    ``(scenario, cluster, suite, faults)`` with ``suite=None`` left for
    the caller's own default.  Raises
    :class:`~repro.scenarios.ScenarioError` for unknown references,
    scenario/flag fault conflicts, and segmented frequency plans (the
    single-cluster consumers only take fixed plans — segmented plans go
    through :func:`repro.scenarios.run_frequency_plan`).
    """
    scenario = None
    if getattr(args, "scenario", None):
        from repro.scenarios import load_scenario

        scenario = load_scenario(args.scenario)
    if args.cluster is not None:
        cluster = get_cluster(args.cluster)
    elif scenario is not None:
        cluster = scenario.effective_cluster()
    else:
        cluster = get_cluster("A")
    suite = args.suite or (scenario.suite if scenario else None)
    faults = _load_faults(getattr(args, "faults", None))
    if scenario is not None and scenario.faults is not None:
        if faults is not None:
            from repro.scenarios import ScenarioError

            raise ScenarioError(
                "fault plan given both by --faults and the scenario"
            )
        faults = scenario.fault_plan()
    return scenario, cluster, suite, faults


def _scenario_benchmark(args: argparse.Namespace, scenario, name=None) -> str:
    """The benchmark to run: explicit argument, else the scenario's
    first listed one."""
    name = name or getattr(args, "benchmark", None)
    if name is None and scenario is not None and scenario.benchmarks:
        name = scenario.benchmarks[0]
    if name is None:
        from repro.scenarios import ScenarioError

        raise ScenarioError(
            "a benchmark is required (positional, or listed by the scenario)"
        )
    return name


def _cmd_run(args: argparse.Namespace) -> int:
    cluster = get_cluster(args.cluster)
    bench = get_benchmark(args.benchmark)
    nprocs = args.nprocs or cluster.node.cores
    result = run(bench, cluster, nprocs, suite=args.suite, trace=args.trace,
                 faults=_load_faults(args.faults), wavefront=args.wavefront)
    print(f"{bench.name} ({args.suite}) on {cluster.name}, {nprocs} ranks, "
          f"{result.nnodes} node(s)")
    print(f"  time      : {fmt_time(result.elapsed)}")
    print(f"  DP perf   : {result.gflops:.1f} Gflop/s "
          f"({100 * result.vectorization_ratio:.0f} % SIMD)")
    print(f"  memory BW : {result.mem_bandwidth / GB:.1f} GB/s "
          f"({result.per_node_bandwidth / GB:.1f} per node)")
    print(f"  MPI share : {100 * result.mpi_fraction:.1f} %")
    print(f"  energy    : {fmt_energy(result.total_energy)} at "
          f"{fmt_power(result.avg_power)}")
    if args.trace and result.trace is not None:
        print("\ntimeline (first/last ranks):")
        ranks = sorted({0, nprocs // 2, nprocs - 1})
        print(result.trace.ascii_timeline(ranks=ranks, width=80))
    if args.likwid:
        from repro.perfmon.likwid_report import full_report

        print()
        print(full_report(result, cluster))
    if args.diagnose:
        from repro.analysis.bottleneck import diagnose

        print(f"\ndiagnosis: {diagnose(result, cluster).summary()}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from repro.scenarios import ScenarioError

    try:
        scenario, cluster, suite, faults = _scenario_context(args)
        name = _scenario_benchmark(
            args, scenario, name=args.benchmark_opt or args.benchmark
        )
    except ScenarioError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    bench = get_benchmark(name)
    if args.nprocs is not None:
        nprocs = args.nprocs
    elif args.nodes is not None:
        nprocs = args.nodes * cluster.node.cores
    else:
        nprocs = cluster.node.cores
    result = run(bench, cluster, nprocs, suite=suite or "tiny", trace=True,
                 faults=faults)
    obs = result.observability()
    os.makedirs(args.out, exist_ok=True)
    prefix = os.path.join(
        args.out, f"{bench.name}_{cluster.name}_{nprocs}r"
    )
    paths = obs.write(prefix)
    print(obs.report())
    print("artifacts:")
    for kind, path in sorted(paths.items()):
        print(f"  {kind:8s} {path}")
    print("\nload the Chrome trace at https://ui.perfetto.dev (drag & drop).")
    return 0


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    return (host or "0.0.0.0", int(port))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios import ScenarioError

    try:
        scenario, cluster, suite, faults = _scenario_context(args)
        bench = get_benchmark(_scenario_benchmark(args, scenario))
    except ScenarioError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    if args.nodes:
        cores = cluster.node.cores
        counts = [n * cores for n in (1, 2, 4, 8, 16) if n <= cluster.max_nodes]
        suite = suite or "small"
    else:
        counts = [int(c) for c in args.counts.split(",")] if args.counts else None
        if counts is None and scenario is not None:
            counts = scenario.rank_counts(cluster)
        if counts is None:
            dom = cluster.node.cores_per_domain
            counts = sorted({1, 2, 4, dom // 2, dom, 2 * dom, cluster.node.cores})
        suite = suite or "tiny"
    tolerant = bool(
        args.timeout is not None or args.retries or args.resume
        or (faults is not None and not faults.empty)
    )
    executor = args.executor
    if executor == "fabric":
        from repro.harness.fabric import FabricExecutor

        if args.listen is None:
            print("sweep: --executor fabric requires --listen HOST:PORT",
                  file=sys.stderr)
            return 2
        executor = FabricExecutor(args.listen, echo=print)
        host, port = executor.address
        print(f"fabric manager listening on {host}:{port} — join workers "
              f"with: python -m repro worker --connect {host}:{port}")
    elif args.listen is not None:
        print("sweep: --listen only applies to --executor fabric",
              file=sys.stderr)
        return 2
    try:
        series = scaling_sweep(bench, cluster, counts, suite=suite,
                               repeats=args.repeats,
                               noise_sigma=0.015 if args.repeats > 1 else 0.0,
                               workers=args.workers,
                               wavefront=args.wavefront,
                               faults=faults,
                               timeout=args.timeout,
                               retries=args.retries,
                               tolerate_failures=tolerant,
                               checkpoint=args.resume,
                               executor=executor)
    finally:
        if not isinstance(executor, (str, type(None))):
            executor.shutdown()
    sp = series.speedups()
    rows = [
        (
            p.nprocs,
            f"{sp[p.nprocs]:.2f}",
            f"{p.best.gflops:.1f}",
            f"{p.best.per_node_bandwidth / GB:.1f}",
            f"{100 * p.best.mpi_fraction:.1f}%",
            f"{p.best.total_energy / 1e3:.1f}",
            f"{p.best.edp / 1e3:.3g}",
        )
        for p in series.points
    ]
    print(ascii_table(
        ["ranks", "speedup", "Gflop/s", "GB/s/node", "MPI", "energy kJ",
         "EDP kJ*s"],
        rows,
        title=f"{bench.name} ({suite}) on {cluster.name}",
    ))
    if args.nodes:
        ev = classify_scaling(series)
        print(f"\nscaling case: {ev.case.value}")
    if args.metrics:
        from repro.obs import aggregate_metrics

        agg = aggregate_metrics(series)
        mrows = [
            (source, metric, f"{value:g}")
            for source in sorted(agg)
            for metric, value in sorted(agg[source].items())
        ]
        print()
        print(ascii_table(
            ["source", "metric", "value"], mrows,
            title="engine metrics (aggregated over all sweep runs)",
        ))
    if series.failures:
        print(f"\n{len(series.failures)} point(s) failed:")
        for f in series.failures:
            print(f"  {f.summary()}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.harness.fabric import worker_loop

    host, port = args.connect
    return worker_loop(
        host,
        port,
        name=args.name,
        reconnect=args.reconnect,
        heartbeat_interval=args.heartbeat,
        echo=print,
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.harness import RunSpec, run_many

    bench = get_benchmark(args.benchmark)
    a, b = get_cluster("A"), get_cluster("B")
    ra, rb = run_many(
        [
            RunSpec(bench, a, a.node.cores, suite=args.suite),
            RunSpec(bench, b, b.node.cores, suite=args.suite),
        ],
        workers=args.workers,
    )
    print(f"{bench.name} ({args.suite}): ClusterA {fmt_time(ra.elapsed)} vs "
          f"ClusterB {fmt_time(rb.elapsed)}")
    print(f"acceleration factor B over A: {ra.elapsed / rb.elapsed:.2f}")
    print(f"(hardware band: 1.20 compute-bound .. 1.56 memory-bound)")
    return 0


def _cmd_report(_args: argparse.Namespace) -> int:
    a, b = get_cluster("A"), get_cluster("B")
    rows = []
    for name in SUITE_ORDER:
        bench = get_benchmark(name)
        ra = run(bench, a, a.node.cores)
        rb = run(bench, b, b.node.cores)
        eff_a = 100 * domain_efficiency(
            run(bench, a, a.node.cores_per_domain), ra, a.node.numa_domains
        )
        eff_b = 100 * domain_efficiency(
            run(bench, b, b.node.cores_per_domain), rb, b.node.numa_domains
        )
        rows.append(
            (
                name,
                f"{ra.elapsed / rb.elapsed:.2f}",
                f"{eff_a:.0f}%",
                f"{eff_b:.0f}%",
                f"{ra.mem_bandwidth / GB:.0f}",
                f"{100 * ra.vectorization_ratio:.0f}%",
            )
        )
    print(ascii_table(
        ["benchmark", "accel B/A", "eff A", "eff B", "BW(A) GB/s", "SIMD"],
        rows,
        title="SPEChpc 2021 tiny-suite node-level summary",
    ))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import time

    from repro.predict import (
        PredictionCorpus,
        PredictionSpec,
        corpus_from_golden,
        predict,
    )
    from repro.predict.corpus import registry_name

    golden_dir = args.golden_dir or DEFAULT_GOLDEN_DIR
    scenario = None
    if args.scenario:
        from repro.scenarios import ScenarioError, load_scenario

        try:
            scenario = load_scenario(args.scenario)
        except ScenarioError as exc:
            print(f"predict: {exc}", file=sys.stderr)
            return 2
    if args.benchmarks is not None:
        benchmarks = [get_benchmark(b).name for b in args.benchmarks.split(",")]
    elif scenario is not None and scenario.benchmarks:
        benchmarks = [get_benchmark(b).name for b in scenario.benchmarks]
    else:
        benchmarks = list(SUITE_ORDER)
    if scenario is not None and args.cluster is None:
        # label rows with the reference when there is one, else the name
        try:
            clusters = [(scenario.cluster or scenario.name,
                         scenario.effective_cluster())]
        except ScenarioError as exc:
            print(f"predict: {exc}", file=sys.stderr)
            return 2
    else:
        sel = args.cluster or "both"
        names = ["A", "B"] if sel == "both" else [sel]
        clusters = [(n, get_cluster(n)) for n in names]
    if args.nodes is not None:
        node_counts = [int(n) for n in args.nodes.split(",")]
    elif scenario is not None and scenario.node_counts() is not None:
        node_counts = scenario.node_counts()
    else:
        node_counts = [1, 2, 4, 8, 16, 32, 64]
    suite = args.suite or (scenario.suite if scenario else None) or "tiny"
    # reference corpus: DES ground truth for the error-bar column (and
    # the surrogate's training data)
    if args.corpus is not None:
        corpus = PredictionCorpus(args.corpus)
    else:
        corpus = corpus_from_golden(golden_dir)
    truth = {(s.benchmark, s.cluster, s.suite, s.nprocs): s for s in corpus}

    rows = []
    violations = 0
    t0 = time.perf_counter()
    for bname in benchmarks:
        for cname, cluster in clusters:
            # golden truth and the surrogate corpus describe the registry
            # machines; a zoo machine or a re-clocked scenario must
            # neither be compared against them nor corrected by them
            calibrated = registry_name(cluster) is not None
            for nnodes in node_counts:
                spec = PredictionSpec(
                    benchmark=bname, cluster=cluster.name, nnodes=nnodes,
                    suite=suite, cluster_obj=cluster,
                )
                pred = predict(
                    spec, tier=args.tier,
                    corpus=corpus if calibrated else None,
                    allow_des=not args.no_des,
                )
                ref = truth.get((
                    bname, cluster.name, suite,
                    nnodes * cluster.cores_per_node,
                )) if calibrated else None
                if ref is not None and pred.tier != "des":
                    err = pred.runtime / ref.elapsed - 1.0
                    ok = abs(err) <= pred.band
                    violations += not ok
                    vs_des = f"{100 * err:+.1f}% {'ok' if ok else 'VIOLATED'}"
                else:
                    vs_des = "-"
                rows.append((
                    bname,
                    cname,
                    nnodes,
                    pred.details.get("fallback") or pred.tier,
                    fmt_time(pred.runtime),
                    f"±{100 * pred.band:.0f}%",
                    fmt_energy(pred.energy.total_energy),
                    vs_des,
                ))
    elapsed = time.perf_counter() - t0

    print(ascii_table(
        ["benchmark", "cl", "nodes", "tier", "runtime", "band", "energy",
         "vs DES"],
        rows,
        title=f"tiered prediction ({suite}, tier={args.tier})",
    ))
    compared = sum(1 for r in rows if r[-1] != "-")
    print(f"\n{len(rows)} predictions in {elapsed:.3f} s "
          f"({compared} with DES ground truth; corpus: {len(corpus)} samples)")
    if violations:
        print(f"{violations} prediction(s) exceeded their stated error band")
        return 1
    if compared:
        print("every compared prediction is within its stated error band")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeApp

    sweep_executor = args.executor
    if sweep_executor == "fabric":
        from repro.harness.fabric import FabricExecutor

        if args.listen is None:
            print("serve: --executor fabric requires --listen HOST:PORT",
                  file=sys.stderr)
            return 2
        sweep_executor = FabricExecutor(args.listen, echo=print)
        fhost, fport = sweep_executor.address
        print(f"fabric manager listening on {fhost}:{fport} — join workers "
              f"with: python -m repro worker --connect {fhost}:{fport} "
              f"--reconnect 0")
    elif args.listen is not None:
        print("serve: --listen only applies to --executor fabric",
              file=sys.stderr)
        return 2

    golden_dir = args.golden_dir
    if golden_dir is None and not args.no_golden_seed:
        golden_dir = DEFAULT_GOLDEN_DIR
    app = ServeApp(
        host=args.host,
        port=args.port,
        store_path=args.store,
        corpus_path=args.corpus,
        golden_dir=golden_dir,
        workers=args.workers,
        sweep_executor=sweep_executor,
    )

    async def _serve() -> None:
        host, port = await app.start()
        print(f"repro serve listening on http://{host}:{port}")
        print(f"  store : {app.store.path or '(memory)'} "
              f"({len(app.store)} cached result(s))")
        print(f"  corpus: {app.corpus.path or '(memory)'} "
              f"({len(app.corpus)} sample(s))")
        print("  POST /run /sweep /predict — GET /status/<job> /metrics")
        try:
            await asyncio.Event().wait()
        finally:
            await app.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nserve: shut down")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        Scenario,
        ScenarioError,
        load_scenario,
        load_zoo_cluster,
        scenario_names,
        zoo_provenance,
    )

    names = scenario_names()

    if args.action == "list":
        zrows = []
        for name in names["zoo"]:
            c = load_zoo_cluster(name)
            zrows.append((
                f"zoo/{name}",
                c.name,
                f"{c.node.cpu.base_clock_hz / 1e9:g} GHz",
                f"{c.node.cores} x {c.max_nodes}",
                Scenario(name=name, cluster=f"zoo/{name}").short_digest,
            ))
        print(ascii_table(
            ["reference", "cluster", "clock", "cores x nodes", "digest"],
            zrows, title="cluster zoo (parameter files; see docs/scenarios.md)",
        ))
        lrows = []
        for name in names["library"]:
            s = load_scenario(name)
            freq = "-"
            if s.frequency is not None:
                freq = "/".join(
                    f"{seg.frequency_hz / 1e9:g}"
                    for seg in s.frequency.active_segments
                ) + " GHz"
            lrows.append((
                name,
                s.cluster or "(inline)",
                ",".join(s.benchmarks) or "-",
                freq,
                "yes" if s.faults else "-",
                s.short_digest,
            ))
        print()
        print(ascii_table(
            ["scenario", "cluster", "benchmarks", "frequency", "faults",
             "digest"],
            lrows, title="scenario library",
        ))
        return 0

    if args.action in ("show", "frequencies") and args.name is None:
        print(f"scenarios {args.action}: a scenario name is required",
              file=sys.stderr)
        return 2

    if args.action == "show":
        try:
            s = load_scenario(args.name)
            cluster = s.base_cluster()
        except ScenarioError as exc:
            print(f"scenarios show: {exc}", file=sys.stderr)
            return 2
        print(s.to_json())
        print(f"\ndigest : {s.digest}")
        print(f"cluster: {cluster.name} — {cluster.node.cores} cores/node "
              f"({cluster.node.cpu.base_clock_hz / 1e9:g} GHz), "
              f"up to {cluster.max_nodes} nodes")
        if s.cluster and s.cluster.startswith("zoo/"):
            print(f"source : {zoo_provenance(s.cluster)}")
        return 0

    if args.action == "validate":
        refs = (
            [args.name]
            if args.name
            else [f"zoo/{n}" for n in names["zoo"]] + names["library"]
        )
        failures = []
        for ref in refs:
            try:
                s = load_scenario(ref)
                status = s.short_digest
            except ScenarioError as exc:
                failures.append(f"{ref}: {exc}")
                status = "FAIL"
            print(f"  {ref:28s} {status}")
        if failures:
            print(f"\n{len(failures)} invalid scenario(s):")
            for f in failures:
                print(f"  {f}")
            return 1
        print(f"\nall {len(refs)} scenario(s) valid")
        return 0

    # action == "frequencies": DVFS grid sweep via Tier A
    from repro.analysis.energy import (
        dvfs_policy,
        edp_optimal_frequency,
        energy_optimal_frequency,
        frequency_sweep,
    )
    from repro.model.dvfs import frequency_grid

    try:
        s = load_scenario(args.name)
        cluster = s.base_cluster()
    except ScenarioError as exc:
        print(f"scenarios frequencies: {exc}", file=sys.stderr)
        return 2
    if args.benchmarks is not None:
        benchmarks = [get_benchmark(b).name for b in args.benchmarks.split(",")]
    elif s.benchmarks:
        benchmarks = list(s.benchmarks)
    else:
        benchmarks = list(SUITE_ORDER)
    grid = frequency_grid(cluster, steps=args.steps)
    suite = s.suite or "tiny"
    rows = []
    for bname in benchmarks:
        pts = frequency_sweep(
            get_benchmark(bname), cluster, frequencies=grid,
            nnodes=args.nodes, suite=suite,
        )
        e, d = energy_optimal_frequency(pts), edp_optimal_frequency(pts)
        rows.append((
            bname,
            f"{e.frequency_ghz:.2f}",
            f"{e.total_energy / 1e3:.1f}",
            f"{d.frequency_ghz:.2f}",
            f"{d.edp / 1e3:.3g}",
            dvfs_policy(pts),
        ))
    print(ascii_table(
        ["benchmark", "E-opt GHz", "E kJ", "EDP-opt GHz", "EDP kJ*s",
         "policy"],
        rows,
        title=(f"DVFS grid {grid[0] / 1e9:.2f}-{grid[-1] / 1e9:.2f} GHz on "
               f"{cluster.name}, {args.nodes} node(s), {suite} "
               f"(Tier A analytic)"),
    ))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    golden_dir = args.golden_dir or DEFAULT_GOLDEN_DIR
    if args.regen:
        try:
            paths = regenerate(
                golden_dir, scales=tuple(args.scales), force=args.force
            )
        except DirtyTreeError as exc:
            print(f"refusing to regenerate: {exc}", file=sys.stderr)
            return 1
        print(f"regenerated {len(paths)} golden fingerprint(s) in {golden_dir}")
        return 0

    ctx = LaneContext(
        benchmarks=tuple(
            SUITE_ORDER if args.benchmarks is None
            else (get_benchmark(b).name for b in args.benchmarks.split(","))
        ),
        clusters=("A", "B") if args.cluster == "both" else (args.cluster,),
        suite=args.suite,
        nprocs=args.nprocs,
        shuffles=args.shuffles,
        scales=tuple(args.scales),
        golden_dir=golden_dir,
    )
    selected = args.lanes or [n for n, lane in LANES.items() if lane.default]
    rows, failures = [], []
    for name, lane in LANES.items():
        if name in selected:
            found = lane.check(ctx)
            rows.append((name, "FAIL" if found else "ok", len(found)))
            failures += [f"{name}: {f}" for f in found]
    print(ascii_table(["lane", "status", "failures"], rows, title="validation"))
    if failures:
        print(f"\n{len(failures)} failure(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nall validations passed")
    return 0


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Simulated SPEChpc 2021 performance & energy study",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and clusters").set_defaults(
        fn=_cmd_list
    )

    pr = sub.add_parser("run", help="run one benchmark")
    pr.add_argument("benchmark")
    pr.add_argument("--cluster", "-c", default="A")
    pr.add_argument("--nprocs", "-n", type=int, default=None)
    pr.add_argument("--suite", "-s", default="tiny")
    pr.add_argument("--trace", action="store_true")
    pr.add_argument("--likwid", action="store_true",
                    help="print likwid-perfctr-style group reports")
    pr.add_argument("--diagnose", action="store_true",
                    help="print the bottleneck diagnosis")
    pr.add_argument("--faults", metavar="PLAN.json",
                    help="inject faults from a FaultPlan JSON file")
    pr.add_argument("--no-wavefront", action="store_false", dest="wavefront",
                    help="disable the wavefront replay tier (see "
                         "repro.spechpc.wavefront); every step is simulated "
                         "unless the synchronized fast-forward engages")
    pr.set_defaults(fn=_cmd_run)

    pt = sub.add_parser(
        "trace",
        help="traced run -> Chrome trace JSON + SVG timeline + markdown "
             "waiting-time report",
    )
    pt.add_argument("benchmark", nargs="?", default=None)
    pt.add_argument("--benchmark", "-b", dest="benchmark_opt", default=None,
                    help="benchmark name (alternative to the positional)")
    pt.add_argument("--cluster", "-c", default=None,
                    help="registry or zoo cluster (default: A, or the "
                         "scenario's machine)")
    pt.add_argument("--nodes", type=_positive_int, default=None,
                    help="full nodes to use (nprocs = nodes x cores/node)")
    pt.add_argument("--nprocs", "-n", type=_positive_int, default=None,
                    help="explicit rank count (overrides --nodes)")
    pt.add_argument("--suite", "-s", default=None,
                    help="workload class (default: tiny, or the "
                         "scenario's suite)")
    pt.add_argument("--scenario", metavar="REF", default=None,
                    help="trace under a scenario (file, library name, or "
                         "zoo/<cluster>); explicit flags override "
                         "scenario values")
    pt.add_argument("--faults", metavar="PLAN.json",
                    help="inject faults from a FaultPlan JSON file")
    pt.add_argument("--out", "-o", default="trace_out",
                    help="artifact directory (default: trace_out)")
    pt.set_defaults(fn=_cmd_trace)

    ps = sub.add_parser("sweep", help="scaling sweep")
    ps.add_argument("benchmark", nargs="?", default=None,
                    help="benchmark name (optional when the scenario "
                         "lists one)")
    ps.add_argument("--cluster", "-c", default=None,
                    help="registry or zoo cluster (default: A, or the "
                         "scenario's machine)")
    ps.add_argument("--suite", "-s", default=None,
                    help="workload class (default: tiny, or the "
                         "scenario's suite)")
    ps.add_argument("--scenario", metavar="REF", default=None,
                    help="run under a scenario: a JSON file, a library "
                         "name, or zoo/<cluster> (explicit flags "
                         "override scenario values; see "
                         "docs/scenarios.md)")
    ps.add_argument("--counts", help="comma-separated rank counts")
    ps.add_argument("--nodes", action="store_true",
                    help="node-level sweep of the small workload")
    ps.add_argument("--repeats", type=int, default=1)
    ps.add_argument("--workers", "-j", type=_positive_int, default=1,
                    help="run sweep points over N worker processes")
    ps.add_argument("--faults", metavar="PLAN.json",
                    help="inject faults from a FaultPlan JSON file "
                         "(enables failure-tolerant mode)")
    ps.add_argument("--timeout", type=float, default=None, metavar="SEC",
                    help="per-point wall-clock budget; a point that "
                         "produces no result in time is recorded as failed")
    ps.add_argument("--retries", type=int, default=0, metavar="N",
                    help="retry each failed point up to N times with "
                         "exponential backoff")
    ps.add_argument("--resume", metavar="CKPT.jsonl",
                    help="JSONL checkpoint: completed points are restored "
                         "from (and new ones appended to) this file; "
                         "compacted atomically on load, and doubles as the "
                         "fabric lease journal")
    ps.add_argument("--executor", choices=["serial", "local", "fabric"],
                    default=None,
                    help="where points run (default: auto — a local pool "
                         "when -j/--timeout ask for one, else serial); "
                         "'fabric' fans out over TCP workers (--listen)")
    ps.add_argument("--listen", type=_parse_hostport, default=None,
                    metavar="HOST:PORT",
                    help="with --executor fabric: address to accept "
                         "workers on (port 0 picks a free port)")
    ps.add_argument("--metrics", action="store_true",
                    help="print engine metrics aggregated over all runs "
                         "(includes the wavefront tier-decision counters)")
    ps.add_argument("--no-wavefront", action="store_false", dest="wavefront",
                    help="disable the wavefront replay tier for every point")
    ps.set_defaults(fn=_cmd_sweep)

    pw = sub.add_parser(
        "worker",
        help="join a fabric sweep as a worker (see `repro sweep "
             "--executor fabric`)",
    )
    pw.add_argument("--connect", type=_parse_hostport, required=True,
                    metavar="HOST:PORT",
                    help="manager address printed by `repro sweep --listen`")
    pw.add_argument("--name", default=None,
                    help="worker name (default: hostname-pid)")
    pw.add_argument("--reconnect", type=float, default=30.0, metavar="SEC",
                    help="window to keep retrying a refused or dropped "
                         "connection — covers workers started before the "
                         "manager and managers restarted with --resume "
                         "(default: 30)")
    pw.add_argument("--heartbeat", type=float, default=0.5, metavar="SEC",
                    help="heartbeat interval offered at handshake "
                         "(the manager's interval wins; default: 0.5)")
    pw.set_defaults(fn=_cmd_worker)

    pc = sub.add_parser("compare", help="ClusterB over ClusterA")
    pc.add_argument("benchmark")
    pc.add_argument("--suite", "-s", default="tiny")
    pc.add_argument("--workers", "-j", type=_positive_int, default=1,
                    help="run the two cluster runs concurrently (use 2)")
    pc.set_defaults(fn=_cmd_compare)

    sub.add_parser("report", help="suite-wide summary").set_defaults(
        fn=_cmd_report
    )

    pp = sub.add_parser(
        "predict",
        help="tiered prediction of the scaling grid with "
             "predicted-vs-simulated error bars",
    )
    pp.add_argument("--benchmarks", "-b", default=None,
                    help="comma-separated subset (default: all nine, or "
                         "the scenario's list)")
    pp.add_argument("--cluster", "-c", default=None,
                    help="'A', 'B', 'both', or any registry/zoo name "
                         "(default: both, or the scenario's machine)")
    pp.add_argument("--suite", "-s", default=None,
                    help="workload class (default: tiny, or the "
                         "scenario's suite)")
    pp.add_argument("--scenario", metavar="REF", default=None,
                    help="price a scenario: zoo/<cluster> answers the "
                         "whole grid from the parameter file alone "
                         "(Tier A); explicit flags override scenario "
                         "values")
    pp.add_argument("--nodes", default=None,
                    help="comma-separated node counts (default: the "
                         "paper grid 1..64 powers of two, or the "
                         "scenario's sweep axis)")
    pp.add_argument("--tier", default="analytic",
                    choices=["auto", "analytic", "surrogate", "des"],
                    help="prediction fidelity (default: analytic — the "
                         "whole grid in well under a second)")
    pp.add_argument("--corpus", metavar="CORPUS.jsonl", default=None,
                    help="surrogate corpus file (default: seeded "
                         "in-memory from the golden fingerprints)")
    pp.add_argument("--no-des", action="store_true",
                    help="with --tier auto: never escalate to the "
                         "simulator; degrade to the analytic answer")
    pp.add_argument("--golden-dir", default=None,
                    help="golden corpus directory (default: tests/golden)")
    pp.set_defaults(fn=_cmd_predict)

    pserve = sub.add_parser(
        "serve",
        help="simulation-as-a-service HTTP front end with a "
             "content-addressed result cache (see docs/serving.md)",
    )
    pserve.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1; use "
                             "0.0.0.0 to accept remote clients)")
    pserve.add_argument("--port", type=int, default=8753,
                        help="bind port (default: 8753; 0 picks a free one)")
    pserve.add_argument("--store", metavar="STORE.jsonl", default=None,
                        help="content-addressed result store file "
                             "(default: in-memory; results are lost on "
                             "shutdown)")
    pserve.add_argument("--corpus", metavar="CORPUS.jsonl", default=None,
                        help="prediction-corpus file fed by every DES "
                             "answer (default: in-memory)")
    pserve.add_argument("--golden-dir", default=None,
                        help="seed the corpus from this golden directory "
                             "(default: tests/golden)")
    pserve.add_argument("--no-golden-seed", action="store_true",
                        help="start with an empty prediction corpus")
    pserve.add_argument("--workers", "-j", type=_positive_int, default=2,
                        help="DES thread-pool width and run_many worker "
                             "count for sweep batches (default: 2)")
    pserve.add_argument("--executor", choices=["serial", "local", "fabric"],
                        default=None,
                        help="run_many backend for sweep batches "
                             "(default: auto; 'fabric' fans cold batches "
                             "out over TCP workers and keeps them joined "
                             "across requests)")
    pserve.add_argument("--listen", type=_parse_hostport, default=None,
                        metavar="HOST:PORT",
                        help="with --executor fabric: address to accept "
                             "fabric workers on (port 0 picks a free port)")
    pserve.set_defaults(fn=_cmd_serve)

    psc = sub.add_parser(
        "scenarios",
        help="list / show / validate scenarios and the cluster zoo; "
             "'frequencies' sweeps the DVFS grid via Tier A "
             "(see docs/scenarios.md)",
    )
    psc.add_argument("action", nargs="?", default="list",
                     choices=["list", "show", "validate", "frequencies"],
                     help="list (default): zoo + library tables; "
                          "show REF: full JSON + digest; "
                          "validate [REF]: resolve every reference; "
                          "frequencies REF: per-benchmark E/EDP-optimal "
                          "frequency table")
    psc.add_argument("name", nargs="?", default=None,
                     help="scenario reference (file, library name, or "
                          "zoo/<cluster>)")
    psc.add_argument("--benchmarks", "-b", default=None,
                     help="with frequencies: comma-separated subset "
                          "(default: the scenario's list, else all nine)")
    psc.add_argument("--nodes", type=_positive_int, default=1,
                     help="with frequencies: node count per point "
                          "(default: 1)")
    psc.add_argument("--steps", type=_positive_int, default=9,
                     help="with frequencies: grid points over "
                          "0.5x-1.33x nominal (default: 9)")
    psc.set_defaults(fn=_cmd_scenarios)

    pv = sub.add_parser(
        "validate",
        help="golden fingerprints, perturbation sanitizer, differential "
             "conformance",
    )
    pv.add_argument("--benchmarks", "-b", default=None,
                    help="comma-separated subset (default: all nine)")
    pv.add_argument("--cluster", "-c", default="both",
                    choices=["A", "B", "both"])
    pv.add_argument("--suite", "-s", default="tiny")
    pv.add_argument("--nprocs", "-n", type=_positive_int, default=None,
                    help="ranks per job (default: one full node)")
    pv.add_argument("--shuffles", type=_positive_int, default=20,
                    help="perturbation seeds per job (default: 20)")
    pv.add_argument("--lane", action="append", dest="lanes",
                    choices=list(LANES),
                    help="run this lane; repeatable (default: "
                         + " ".join(n for n, lane in LANES.items()
                                    if lane.default) + ")")
    pv.add_argument("--golden-dir", default=None,
                    help="golden corpus directory (default: tests/golden)")
    pv.add_argument("--regen", action="store_true",
                    help="recompute and rewrite the golden corpus "
                         "(refuses on a dirty git tree)")
    pv.add_argument("--force", action="store_true",
                    help="with --regen: override the dirty-tree refusal")
    pv.add_argument("--scales", type=_positive_int, nargs="+", default=[1, 4],
                    metavar="NODES",
                    help="golden-corpus node counts read by the golden, "
                         "prediction and serving lanes and rewritten by "
                         "--regen (default: 1 4)")
    pv.set_defaults(fn=_cmd_validate)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
