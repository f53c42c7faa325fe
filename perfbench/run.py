#!/usr/bin/env python3
"""The repository benchmark: one command, two named workloads.

    python3 perfbench/run.py --workload corpus_des --seed 1 --seconds 48 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``corpus_des``   the 36-case golden grid through ``scaling_sweep`` with
                 checkpoints, checked against ``tests/golden``;
``serve_mixed``  a closed-loop request stream against a loopback
                 ``ServeApp``, every answer checked against a direct run.

A run repeats *passes* (DES workloads: the whole grid; ``serve_mixed``: a
1000-request round against a fresh server) until ``--seconds`` is spent,
at least three of them.  Timings come from untraced passes.  With
``--trace 1`` a third of the time goes to untraced passes, a third to
passes with spans around each layer's entry points, and one last pass
adds ``cProfile`` for each layer's self time.  The program's own counts
(events, matching operations, replay decisions, serve answers) must
repeat exactly in every pass; if they do not, the run fails.

The last line of standard output is the result object; the line before
it records the host, the seed and the workload's reason.  Every file a
run writes (checkpoints, stores, span dumps) goes under ``.bench_tmp/``
in the checkout; checkpoints and stores are removed when the run ends.
"""

import time

_T0 = time.perf_counter()  # process set-up is measured from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")
#: set-up samples taken in fresh interpreters, besides this process
SETUP_PROBES = 4
#: untraced passes per run, at least: per-operation medians need three
MIN_PASSES = 3

WORKLOADS = {
    "corpus_des": ("des_workloads", "CorpusDes"),
    "serve_mixed": ("serve_mixed", "ServeMixed"),
}

#: span name -> per-layer metric holding its summed seconds per pass
SPAN_SECONDS = {
    "harness.run": "harness.run.busy_s",
    "harness.checkpoint.append": "harness.checkpoint.append_s",
    "serve.store.get": "serve.store.get_s",
    "serve.store.put": "serve.store.put_s",
    "serve.spec.key": "serve.spec.key_s",
    "predict.predict": "predict.busy_s",
    "scenarios.resolve": "scenarios.resolve_s",
}
#: span name -> per-layer metric holding its call count per pass
SPAN_CALLS = {
    "predict.predict": "predict.calls",
    "scenarios.resolve": "scenarios.resolve.calls",
}


def make_workload(name: str, seed: int):
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise FileNotFoundError(
            f"no program sources at {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module, cls = WORKLOADS[name]
    return getattr(__import__(module), cls)(ROOT, seed)


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter (see ``probe.py``)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_phase(workload, budget: float, min_passes: int,
              make_tracer=None) -> list:
    """Passes until ``budget`` seconds are spent, ending the phase at the
    pass boundary nearest to the budget."""
    passes, costs = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        tracer = make_tracer() if make_tracer is not None else None
        workdir = tempfile.mkdtemp(dir=TMP)
        try:
            p = workload.run_pass(workdir, tracer)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        p.tracer = tracer
        passes.append(p)
        costs.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and \
                elapsed + statistics.median(costs) / 2 > budget:
            return passes


def traced_counts(p) -> dict:
    """The program's counts for one pass, with the span call counts."""
    counts = dict(p.counts)
    if p.tracer is not None:
        for span, metric in SPAN_CALLS.items():
            counts[metric] = float(p.tracer.totals(span)[0])
        for tier in ("analytic", "surrogate", "des"):
            key = f"predict.answered.{tier}"
            counts[key] = float(p.tracer.counts.get(key, 0))
    return counts


def determinism_errors(passes: list) -> list[str]:
    """Counts that differ between passes of the same inputs (each count
    is compared with the first pass that reported it)."""
    first: dict[str, tuple[int, float]] = {}
    errors = []
    for i, p in enumerate(passes):
        for key, value in sorted(traced_counts(p).items()):
            j, ref = first.setdefault(key, (i, value))
            if value != ref:
                errors.append(f"pass {i}: {key} = {value!r}, pass {j} had {ref!r}")
    return errors


def end_to_end(passes: list, setup_s: float) -> dict[str, float]:
    """Every pass sends the same operations in the same order, so each
    operation's latency is its median over the passes; one pass's time
    is the sum of those medians, and the percentiles interpolate between
    them.  A burst of host noise during one pass then moves no figure."""
    columns = list(zip(*(p.latencies for p in passes)))
    if any(len(p.latencies) != len(columns) for p in passes):
        raise RuntimeError("passes ran different numbers of operations")
    per_op = [statistics.median(col) for col in columns]
    wall = sum(per_op)
    cuts = statistics.quantiles(per_op, n=100, method="inclusive")
    ops = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": passes[0].ops / wall,
        "p50_ms": 1e3 * cuts[49],
        "p99_ms": 1e3 * cuts[98],
        "ok_frac": (ops - failed) / ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced: list, spanned: list, profiled, names: list[str]) -> dict[str, float]:
    """Per-layer metrics, each per pass: counts from the spanned passes,
    latencies from the untraced ones, self time from the profiled pass
    scaled to the untraced wall time."""
    out = {name: 0.0 for name in names}
    out.update(traced_counts(spanned[0]))
    for span, metric in SPAN_SECONDS.items():
        out[metric] = statistics.median(p.tracer.totals(span)[1] for p in spanned)
    for key in untraced[0].layer:
        out[key] = statistics.median(p.layer[key] for p in untraced)
    if out["harness.run.busy_s"] > 0:
        out["des.events_per_s"] = out["des.events"] / out["harness.run.busy_s"]
    wall = statistics.median(p.wall for p in untraced)
    selfs = profiled.tracer.self_times()
    total = sum(selfs.values())
    for layer, seconds in selfs.items():
        out[f"self_s.{layer}"] = wall * seconds / total
    out["trace.overhead_ratio"] = statistics.median(p.wall for p in spanned) / wall
    passes = untraced + spanned + [profiled]
    out["validate.fingerprint_s"] = sum(p.check_s for p in passes) / len(passes)
    unknown = sorted(set(out) - set(names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    return out


def host_facts() -> dict[str, object]:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=48.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    metric_group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[metric_group]}

    workload = make_workload(args.workload, args.seed)
    workload.setup()
    setup_here = time.perf_counter() - _T0

    os.makedirs(TMP, exist_ok=True)
    from tracing import Tracer

    if args.trace:
        third = args.seconds / 3
        untraced = run_phase(workload, third, 1)
        spanned = run_phase(workload, third, 1, Tracer)
        profiled = run_phase(workload, 0.0, 1, lambda: Tracer(profile_des=True))[0]
        passes = untraced + spanned + [profiled]
        metrics = per_layer(untraced, spanned, profiled, list(units))
        spans_path = os.path.join(
            os.path.basename(TMP), f"spans-{args.workload}-seed{args.seed}.json")
        spanned[0].tracer.dump(os.path.join(ROOT, spans_path))
    else:
        setups = [setup_here] + [probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES)]
        passes = run_phase(workload, args.seconds, MIN_PASSES)
        round_setups = [p.setup for p in passes if p.setup is not None]
        setup_s = statistics.median(setups) + (
            statistics.median(round_setups) if round_setups else 0.0)
        metrics = end_to_end(passes, setup_s)
        spans_path = None

    errors = determinism_errors(passes)
    failures = [f for p in passes for f in p.failures]
    for line in errors:
        print(f"NONDETERMINISTIC: {line}", file=sys.stderr)
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    counts = traced_counts(passes[-1])
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "why": why,
        "trace": args.trace, "host": host_facts(), "passes": len(passes),
        "counts": counts,
        "counts_digest": hashlib.sha256(
            json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16],
        "spans": spans_path,
    }}, sort_keys=True))
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
