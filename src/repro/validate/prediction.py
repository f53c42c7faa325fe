"""Prediction differential: every cheap tier must honor its stated band.

A :class:`~repro.predict.api.Prediction` carries a **band** — the tier's
own claimed bound on ``|predicted - DES| / DES``.  This module is the
enforcement side of that contract, checked against DES ground truth from
three directions:

1. **Analytic vs golden** — Tier A re-prices every golden fingerprint
   case (``tests/golden``) and must land within its calibrated
   per-benchmark band (:data:`repro.predict.analytic.ANALYTIC_BAND`) for
   both runtime and total energy.
2. **Surrogate exactness** — Tier B trained on the full golden corpus
   must reproduce every corpus point to round-off (it interpolates; a
   query at a trained point *is* the DES value).
3. **Surrogate holdout** — fresh DES runs at node counts *inside* the
   trained hull but absent from the corpus (2 nodes between the golden
   1- and 4-node points); the surrogate's interpolated answer must fall
   within its own stated (LOO-CV derived) band.
4. **Surrogate gate** — the corpus describes the nominal registry
   machines only, so the same points on a re-clocked machine (which
   keeps its registry name) must never be answered by the surrogate.

:func:`prediction_differential` returns a list of human-readable
failure strings — empty means every tier honored its claim.
"""

from __future__ import annotations

from repro.validate.golden import DEFAULT_GOLDEN_DIR, DEFAULT_SCALES

#: Relative tolerance for "exact": interpolation at a trained point goes
#: through exp(log(...)) once, so allow a few ulps of round-off.
EXACT_RTOL = 1e-9

#: Node counts simulated fresh as interpolation holdouts (must lie
#: strictly inside the golden scales' hull).
HOLDOUT_SCALES = (2,)

#: Clock ratio of the re-clocked machine in the surrogate-gate check
#: (1.6 GHz on ClusterA's 2.4 GHz nominal).
RECLOCK_RATIO = 2.0 / 3.0


def _rel(predicted: float, reference: float) -> float:
    return abs(predicted - reference) / reference


def prediction_differential(
    golden_dir: str = DEFAULT_GOLDEN_DIR,
    scales: tuple[int, ...] = DEFAULT_SCALES,
    holdout_scales: tuple[int, ...] = HOLDOUT_SCALES,
    benchmarks: tuple[str, ...] | None = None,
    clusters: tuple[str, ...] = ("A", "B"),
    sample_limit: int | None = None,
) -> list[str]:
    """Hold every prediction tier to its stated error band.

    Returns failure descriptions (empty list = pass).  ``benchmarks``
    restricts the sweep to a subset; ``holdout_scales=()`` skips the
    fresh DES holdout runs (the cheap, simulation-free subset).
    """
    from repro.machine.registry import get_cluster
    from repro.model.dvfs import apply_frequency
    from repro.predict import (
        PredictionSpec,
        SurrogatePredictionTier,
        corpus_from_golden,
        predict,
    )
    from repro.predict.analytic import SAMPLE_LIMIT

    if sample_limit is None:
        sample_limit = SAMPLE_LIMIT

    failures: list[str] = []
    corpus = corpus_from_golden(golden_dir, scales=scales)
    if not len(corpus):
        return [f"prediction: no golden fingerprints under {golden_dir}"]

    cluster_names = {get_cluster(c).name for c in clusters}

    def selected(sample) -> bool:
        if sample.cluster not in cluster_names:
            return False
        return benchmarks is None or sample.benchmark in benchmarks

    # --- 1. analytic within its calibrated band at every golden point ---
    for s in corpus:
        if not selected(s):
            continue
        pred = predict(PredictionSpec.for_sample(s), tier="analytic",
                       sample_limit=sample_limit)
        for label, got, want in (
            ("runtime", pred.runtime, s.elapsed),
            ("energy", pred.energy.total_energy, s.total_energy),
        ):
            err = _rel(got, want)
            if err > pred.band:
                failures.append(
                    f"analytic {s.benchmark}/{s.cluster}/{s.nnodes}n "
                    f"{label}: error {err:.3f} exceeds stated band "
                    f"{pred.band:.3f}"
                )

    # --- 2. surrogate exact at every trained corpus point ---------------
    tier_b = SurrogatePredictionTier(corpus)
    for s in corpus:
        if not selected(s):
            continue
        pred = tier_b.predict(PredictionSpec.for_sample(s))
        if pred is None:
            failures.append(
                f"surrogate {s.benchmark}/{s.cluster}/{s.nnodes}n: "
                f"no answer for a trained corpus point"
            )
            continue
        for label, got, want in (
            ("runtime", pred.runtime, s.elapsed),
            ("energy", pred.energy.total_energy, s.total_energy),
        ):
            err = _rel(got, want)
            if err > EXACT_RTOL:
                failures.append(
                    f"surrogate {s.benchmark}/{s.cluster}/{s.nnodes}n "
                    f"{label}: not exact at a trained point "
                    f"(error {err:.2e}; interpolation must reproduce the "
                    f"corpus bit-for-bit)"
                )

    # --- 3. surrogate holdout: fresh DES points inside the hull ---------
    if holdout_scales:
        from repro.harness.runner import run as des_run
        from repro.spechpc.suite import get_benchmark

        groups = [g for g in corpus.groups()
                  if (benchmarks is None or g[0] in benchmarks)
                  and g[1] in cluster_names and len(corpus.group(g)) >= 2]
        for bench_name, cluster_name, suite, threads in groups:
            cluster = get_cluster(cluster_name)
            bench = get_benchmark(bench_name)
            for nnodes in holdout_scales:
                pred = tier_b.predict(PredictionSpec(
                    benchmark=bench_name, cluster=cluster_name,
                    nnodes=nnodes, suite=suite, threads=threads,
                ))
                if pred is None or not pred.details.get("in_hull"):
                    failures.append(
                        f"surrogate {bench_name}/{cluster_name}/{nnodes}n: "
                        f"holdout point unexpectedly outside the hull"
                    )
                    continue
                truth = des_run(
                    bench, cluster, nprocs=nnodes * cluster.cores_per_node,
                    suite=suite, threads_per_rank=threads,
                )
                for label, got, want in (
                    ("runtime", pred.runtime, truth.elapsed),
                    ("energy", pred.energy.total_energy,
                     truth.energy.total_energy),
                ):
                    err = _rel(got, want)
                    if err > pred.band:
                        failures.append(
                            f"surrogate {bench_name}/{cluster_name}/"
                            f"{nnodes}n {label}: holdout error {err:.3f} "
                            f"exceeds stated band {pred.band:.3f}"
                        )

    # --- 4. a re-clocked machine never takes the surrogate --------------
    for s in corpus:
        if not selected(s):
            continue
        cluster = get_cluster(s.cluster)
        clocked = apply_frequency(
            cluster, RECLOCK_RATIO * cluster.node.cpu.nominal_clock_hz
        )
        pred = predict(PredictionSpec.for_sample(s, cluster_obj=clocked),
                       corpus=corpus, allow_des=False, sample_limit=sample_limit)
        if pred.tier == "surrogate":
            failures.append(
                f"surrogate {s.benchmark}/{s.cluster}/{s.nnodes}n re-clocked "
                f"to {RECLOCK_RATIO:.3f}x nominal: answered from "
                f"nominal-clock corpus samples"
            )
    return failures
