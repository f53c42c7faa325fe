"""Engine microbenchmark: DES fast path, memoization, matching, sweeps,
and paper-scale replay.

Quantifies the performance work on the simulation engine itself (not a
paper figure): event throughput of the run-queue fast path versus the
pure-heap reference engine, the per-run phase-cost cache, the combined
effect on a full-node tiny sweep, and — with ``-m paperscale`` — full
64-node jobs (the scale of the paper's Figs. 5-6) comparing the
optimized engine (indexed matching + level-set replay of periodic
steps) against the pre-PR reference flags.  Run with
``--json`` to emit the ``BENCH_engine.json`` perf-trajectory artifact.
"""

import os
import time
from dataclasses import replace

import pytest

from _shared import WORKERS
from repro.des import Delay, Signal, Simulator, Wait
from repro.harness import ascii_table, run, scaling_sweep
from repro.machine import get_cluster
from repro.spechpc import get_benchmark

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")

#: Reference flags restoring the pre-optimization engine end to end
#: (linear matching, every step simulated).
PRE_PR_FLAGS = dict(matcher="linear", wavefront=False)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _identical(a, b) -> bool:
    """Bit-identical simulation outcome (meta records flag settings, so
    it is excluded; everything physical must match exactly)."""
    return (
        a.elapsed == b.elapsed
        and a.sim_elapsed == b.sim_elapsed
        and a.step_scale == b.step_scale
        and a.counters == b.counters
        and a.time_by_kind == b.time_by_kind
        and a.energy == b.energy
    )


def _barrier_workload(fast_path, nprocs=128, steps=40):
    """Pure-DES BSP skeleton: compute-delay, barrier, repeat.

    Every barrier release is a same-timestamp fan-out to ``nprocs``
    waiters — exactly the traffic the run-queue fast path targets.
    """
    sim = Simulator(fast_path=fast_path)
    state = {"arrived": 0, "gate": Signal()}

    def worker(r):
        for s in range(steps):
            yield Delay(1.0)
            yield Delay(0.0)  # exercises the in-place continuation
            state["arrived"] += 1
            if state["arrived"] == nprocs:
                gate, state["gate"] = state["gate"], Signal()
                state["arrived"] = 0
                gate.fire(s)
            else:
                yield Wait(state["gate"])

    for r in range(nprocs):
        sim.spawn(f"w{r}", worker(r))
    sim.run()
    return sim


def test_des_event_throughput(benchmark):
    def compare():
        t_fast, fast = min(
            (_timed(lambda: _barrier_workload(True)) for _ in range(3)),
            key=lambda tr: tr[0],
        )
        t_ref, ref = min(
            (_timed(lambda: _barrier_workload(False)) for _ in range(3)),
            key=lambda tr: tr[0],
        )
        return fast, t_fast, ref, t_ref

    fast, t_fast, ref, t_ref = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    fs, rs = fast.stats, ref.stats
    rows = [
        ("fast path", fs.events, fs.heap_pushes, fs.runq_events,
         fs.zero_delay_continues, f"{fs.events / t_fast / 1e3:.0f}"),
        ("pure heap", rs.events, rs.heap_pushes, rs.runq_events,
         rs.zero_delay_continues, f"{rs.events / t_ref / 1e3:.0f}"),
    ]
    print()
    print(ascii_table(
        ["engine", "events", "heap pushes", "runq events", "Delay(0)",
         "kEvents/s"],
        rows,
        title="DES engine: 128-rank x 40-step barrier workload",
    ))
    print(f"wall-clock speedup: {t_ref / t_fast:.2f}x")
    # identical virtual outcome ...
    assert fast.now == ref.now
    # ... with most events never touching the heap
    assert fs.runq_events + fs.zero_delay_continues > 0.5 * fs.events
    assert fs.heap_pushes < 0.5 * rs.heap_pushes


def test_memoized_single_run(benchmark):
    cluster = get_cluster("ClusterA")
    bench = get_benchmark("pot3d")
    n = cluster.node.cores

    def compare():
        run(bench, cluster, n)  # warm caches/allocators
        t_fast = min(
            _timed(lambda: run(bench, cluster, n))[0] for _ in range(3)
        )
        fast = run(bench, cluster, n)
        t_ref = min(
            _timed(
                lambda: run(bench, cluster, n, fast_path=False, memoize=False)
            )[0]
            for _ in range(3)
        )
        ref = run(bench, cluster, n, fast_path=False, memoize=False)
        return fast, t_fast, ref, t_ref

    fast, t_fast, ref, t_ref = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    print()
    print(f"pot3d full node: optimized {t_fast * 1e3:.1f} ms, "
          f"reference {t_ref * 1e3:.1f} ms "
          f"({t_ref / t_fast:.2f}x)")
    assert fast == ref  # bit-identical results


def test_full_node_sweep_speedup(benchmark):
    """Acceptance target: >= 3x on a full-node tiny sweep with repeats
    for at least one bandwidth-bound code (pot3d / tealeaf).

    Optimized = fast path + memoization + repeat deduplication + worker
    pool; reference = pure-heap engine, no cache, every repeat simulated,
    serial.  With ``noise_sigma == 0`` the repeats are provably identical,
    so the dedup factor (x repeats) is exact, and the worker pool adds
    whatever the host's cores allow on top.
    """
    cluster = get_cluster("ClusterA")
    dom = cluster.node.cores_per_domain
    counts = sorted({1, 2, 4, dom, 2 * dom, cluster.node.cores})
    repeats = 3

    def timed(fn, rounds=3):
        # min over a few rounds: scheduler noise only ever adds time
        best, result = None, None
        for _ in range(rounds):
            dt, result = _timed(fn)
            best = dt if best is None else min(best, dt)
        return best, result

    def one(bench):
        t_opt, opt = timed(lambda: scaling_sweep(
            bench, cluster, counts, repeats=repeats, noise_sigma=0.0,
            workers=WORKERS,
        ))
        t_ref, ref = timed(lambda: scaling_sweep(
            bench, cluster, counts, repeats=repeats, noise_sigma=0.0,
            workers=1, fast_path=False, memoize=False,
            reuse_identical_repeats=False,
        ))
        assert opt == ref  # field-for-field identical series
        return t_opt, t_ref

    def compare():
        out = {}
        for name in ("pot3d", "tealeaf"):
            bench = get_benchmark(name)
            run(bench, cluster, counts[-1])  # warm caches/allocators
            out[name] = one(bench)
        return out

    timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = [
        (name, f"{t_opt:.2f}", f"{t_ref:.2f}", f"{t_ref / t_opt:.1f}x")
        for name, (t_opt, t_ref) in timings.items()
    ]
    print()
    print(ascii_table(
        ["benchmark", "optimized [s]", "serial/unmemoized [s]", "speedup"],
        rows,
        title=f"Full-node tiny sweep {counts} x {repeats} repeats "
        f"(workers={WORKERS})",
    ))
    best = max(t_ref / t_opt for t_opt, t_ref in timings.values())
    assert best >= 3.0


def test_fast_engine_equivalence_smoke(benchmark, perf_records):
    """CI smoke case: one-node lbm with enough steps for replay to
    engage; the optimized engine must agree bit-for-bit with the pre-PR
    reference flags (and with each flag individually)."""
    cluster = get_cluster("ClusterA")
    bench = get_benchmark("lbm")
    n = cluster.node.cores
    steps = 12

    def compare():
        run(bench, cluster, n, sim_steps=steps)  # warm caches/allocators
        t_fast, fast = _timed(lambda: run(bench, cluster, n, sim_steps=steps))
        t_ref, ref = _timed(
            lambda: run(bench, cluster, n, sim_steps=steps, **PRE_PR_FLAGS)
        )
        return fast, t_fast, ref, t_ref

    fast, t_fast, ref, t_ref = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert fast.meta["wavefront"] is True
    assert _identical(fast, ref), "optimized engine diverged from reference"
    for flag in (
        dict(wavefront=False),
        dict(matcher="linear"),
        dict(fast_path=False),
        dict(memoize=False),
    ):
        single = run(bench, cluster, n, sim_steps=steps, **flag)
        assert _identical(fast, single), f"divergence under {flag}"
    print()
    print(f"lbm 1-node x {steps} steps: optimized {t_fast:.2f}s, "
          f"pre-PR flags {t_ref:.2f}s ({t_ref / t_fast:.2f}x), bit-identical")
    perf_records.append({
        "case": "smoke_lbm_1node",
        "nprocs": n,
        "sim_steps": steps,
        "optimized_s": round(t_fast, 4),
        "reference_s": round(t_ref, 4),
        "speedup": round(t_ref / t_fast, 3),
        "identical": True,
        "wavefront_engaged": True,
    })
    assert t_ref / t_fast >= 1.0, "engine regression: smoke case below 1x"


def test_wavefront_smoke(benchmark, perf_records):
    """CI smoke case for replay on a skewed structure: one-node minisweep
    — no collective, skewed step boundaries — with enough steps for the
    DAG replay to engage; must agree bit-for-bit with the pre-PR
    reference and never regress below it."""
    cluster = get_cluster("ClusterA")
    bench = get_benchmark("minisweep")
    n = cluster.node.cores
    steps = 12

    def compare():
        run(bench, cluster, n, sim_steps=steps)  # warm caches/allocators
        t_fast, fast = _timed(lambda: run(bench, cluster, n, sim_steps=steps))
        t_ref, ref = _timed(
            lambda: run(bench, cluster, n, sim_steps=steps, **PRE_PR_FLAGS)
        )
        return fast, t_fast, ref, t_ref

    fast, t_fast, ref, t_ref = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert fast.meta["wavefront"] is True
    assert ref.meta["wavefront"] is False
    assert _identical(fast, ref), "replay diverged from reference"
    wf = fast.meta["metrics"]["wavefront"]
    print()
    print(f"minisweep 1-node x {steps} steps: optimized {t_fast:.2f}s, "
          f"pre-PR flags {t_ref:.2f}s ({t_ref / t_fast:.2f}x), "
          f"levels={wf['levels']:.0f}, events_saved={wf['events_saved']:.0f}")
    perf_records.append({
        "case": "smoke_minisweep_1node_wavefront",
        "nprocs": n,
        "sim_steps": steps,
        "optimized_s": round(t_fast, 4),
        "reference_s": round(t_ref, 4),
        "speedup": round(t_ref / t_fast, 3),
        "identical": True,
        "wavefront_engaged": True,
        "dag_levels": wf["levels"],
        "events_saved": wf["events_saved"],
    })
    assert t_ref / t_fast >= 1.0, "engine regression: wavefront smoke below 1x"


def test_paper_scale_grid_predict(benchmark, perf_records):
    """Acceptance gate for the tiered predictor: Tier A answers the full
    paper grid — 9 benchmarks x 2 clusters x {1..64} power-of-two node
    counts, 126 queries — in **under one second total**, every
    golden-covered point within its stated band.  Also records the
    per-benchmark latency and golden-relative error of all three tiers
    (the DES rows make the screening ratio visible in the artifact)."""
    from repro.predict import (
        PredictionSpec,
        SurrogatePredictionTier,
        corpus_from_golden,
        predict,
    )
    from repro.spechpc import SUITE_ORDER

    node_grid = (1, 2, 4, 8, 16, 32, 64)
    corpus = corpus_from_golden(GOLDEN_DIR)
    truth = {(s.benchmark, s.cluster, s.nnodes): s for s in corpus}

    def grid_pass():
        t0 = time.perf_counter()
        out = {}
        for name in SUITE_ORDER:
            for cl in ("A", "B"):
                for nnodes in node_grid:
                    out[name, cl, nnodes] = predict(
                        PredictionSpec(name, cl, nnodes), tier="analytic"
                    )
        return time.perf_counter() - t0, out

    def compare():
        grid_pass()  # warm caches/allocators
        return min((grid_pass() for _ in range(2)), key=lambda tr: tr[0])

    t_grid, preds = benchmark.pedantic(compare, rounds=1, iterations=1)

    rows = []
    for name in SUITE_ORDER:
        # analytic: latency re-measured per benchmark, error vs golden
        t0 = time.perf_counter()
        for cl in ("A", "B"):
            for nnodes in node_grid:
                predict(PredictionSpec(name, cl, nnodes), tier="analytic")
        t_analytic = (time.perf_counter() - t0) / (2 * len(node_grid))

        gold = [s for s in corpus if s.benchmark == name]
        a_err = s_err = 0.0
        tier_b = SurrogatePredictionTier(corpus)
        t_surr = 0.0
        for s in gold:
            spec = PredictionSpec(
                name, s.cluster, s.nnodes, suite=s.suite, nprocs=s.nprocs
            )
            a = predict(spec, tier="analytic")
            assert abs(a.runtime / s.elapsed - 1.0) <= a.band
            a_err = max(a_err, abs(a.runtime / s.elapsed - 1.0))
            t0 = time.perf_counter()
            b = tier_b.predict(spec)
            t_surr += time.perf_counter() - t0
            s_err = max(s_err, abs(b.runtime / s.elapsed - 1.0))
        t_surr /= len(gold)

        # DES reference latency: one 1-node ground-truth run
        t_des, _ = _timed(lambda: run(
            get_benchmark(name), get_cluster("A"),
            get_cluster("A").cores_per_node,
        ))
        rows.append((name, t_analytic, t_surr, t_des, a_err, s_err))
        perf_records.append({
            "case": f"predict_{name}",
            "analytic_ms": round(1e3 * t_analytic, 3),
            "surrogate_ms": round(1e3 * t_surr, 3),
            "des_ms": round(1e3 * t_des, 1),
            "analytic_rel_err": round(a_err, 4),
            "surrogate_rel_err": round(s_err, 6),
        })

    print()
    print(ascii_table(
        ["benchmark", "analytic [ms]", "surrogate [ms]", "DES [ms]",
         "analytic err", "surrogate err"],
        [(n, f"{a * 1e3:.2f}", f"{s * 1e3:.2f}", f"{d * 1e3:.0f}",
          f"{100 * ae:.1f}%", f"{100 * se:.2g}%")
         for n, a, s, d, ae, se in rows],
        title=f"Tiered prediction vs DES ({len(preds)}-query paper grid "
        f"in {t_grid:.3f}s)",
    ))
    perf_records.append({
        "case": "predict_paper_grid_analytic",
        "queries": len(preds),
        "total_s": round(t_grid, 4),
    })
    assert t_grid < 1.0, (
        f"analytic tier took {t_grid:.2f}s for the paper grid (gate: 1s)"
    )
    # the surrogate is an interpolator: exact at every golden point
    assert all(se < 1e-9 for *_, se in rows)


@pytest.mark.paperscale
def test_paper_scale_64node(benchmark, perf_records):
    """Acceptance targets: >= 5x on the paper-scale 64-node minisweep
    case (the skewed KBA pipeline), >= 5x combined, and **no case below
    1x** — bit-identical throughout.

    lbm (torus halo exchange + allreduce) runs a 128-step slice of its
    600-step tiny workload; minisweep has no collective (Table 1) and
    weather's halo pipeline keeps its step boundaries skewed.  All three
    take the one replay path: four steps are simulated, the journaled
    step compiles once into a rank x step dependency DAG, and the
    remaining steps replay as vectorized level-set relaxation, O(levels)
    instead of O(events).
    """
    cluster = replace(get_cluster("ClusterA"), max_nodes=64)
    n = 64 * cluster.node.cores
    cases = [("lbm", 128), ("minisweep", 40), ("weather", 128)]

    def compare():
        out = {}
        for name, steps in cases:
            bench = get_benchmark(name)
            t_fast, fast = _timed(
                lambda: run(bench, cluster, n, sim_steps=steps)
            )
            t_ref, ref = _timed(
                lambda: run(bench, cluster, n, sim_steps=steps, **PRE_PR_FLAGS)
            )
            assert _identical(fast, ref), f"{name} diverged from reference"
            assert fast.meta["wavefront"] is True, f"{name}: replay not engaged"
            out[name] = (t_fast, t_ref)
        return out

    timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = [
        (name, f"{t_fast:.2f}", f"{t_ref:.2f}", f"{t_ref / t_fast:.2f}x")
        for name, (t_fast, t_ref) in timings.items()
    ]
    t_fast_all = sum(v[0] for v in timings.values())
    t_ref_all = sum(v[1] for v in timings.values())
    combined = t_ref_all / t_fast_all
    rows.append(("combined", f"{t_fast_all:.2f}", f"{t_ref_all:.2f}",
                 f"{combined:.2f}x"))
    print()
    print(ascii_table(
        ["case", "optimized [s]", "pre-PR flags [s]", "speedup"],
        rows,
        title=f"Paper scale: 64 nodes x {cluster.node.cores} ranks "
        f"({n} ranks), bit-identical",
    ))
    for name, (t_fast, t_ref) in timings.items():
        perf_records.append({
            "case": f"paper_scale_{name}_64node",
            "nprocs": n,
            "optimized_s": round(t_fast, 4),
            "reference_s": round(t_ref, 4),
            "speedup": round(t_ref / t_fast, 3),
            "identical": True,
        })
    perf_records.append({
        "case": "paper_scale_combined_64node",
        "optimized_s": round(t_fast_all, 4),
        "reference_s": round(t_ref_all, 4),
        "speedup": round(combined, 3),
    })
    # hard no-regression gate: every case must at least break even
    for name, (t_fast, t_ref) in timings.items():
        assert t_ref / t_fast >= 1.0, f"engine regression on {name}"
    assert timings["minisweep"][1] / timings["minisweep"][0] >= 5.0
    assert combined >= 5.0
