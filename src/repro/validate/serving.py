"""Serving differential: the HTTP service must not change a single bit.

The serving layer (:mod:`repro.serve`) is a *distribution* layer — a
cache, a band-negotiated predictor, and a deduplicating front end around
the same engine.  This differential holds it to that claim over a real
loopback HTTP server, for every selected golden-corpus spec, on all
three ladder paths:

* **cold (DES)** — the first request escalates to the engine; its
  response must carry the same golden fingerprint as a direct
  :func:`repro.harness.runner.run`, and the result *reconstructed from
  the response JSON* must re-fingerprint identically (the store format
  and the HTTP round trip are both lossless).
* **cache hit** — the repeat request must be answered from the store
  (``source: "store"``, zero engine executions) with the identical
  fingerprint and an identical result document.
* **predict hit** — a ``max_band`` request must be answered by a cheap
  tier, *flagged* (``source: "predict"``, ``fingerprint: null``),
  band-annotated, and its runtime must actually fall within the stated
  band of the DES ground truth.

:func:`serving_differential` returns human-readable failure strings —
empty means the service is transparent.
"""

from __future__ import annotations

from repro.validate.golden import (
    DEFAULT_GOLDEN_DIR,
    fingerprint,
    golden_cases,
    run_case,
)

#: max_band offered on the predict-path check: generous enough that the
#: surrogate (exact at corpus points) always qualifies at golden specs.
PREDICT_MAX_BAND = 0.25


def serving_differential(
    golden_dir: str = DEFAULT_GOLDEN_DIR,
    scales: tuple[int, ...] = (1,),
    benchmarks: tuple[str, ...] | None = None,
    clusters: tuple[str, ...] = ("A", "B"),
    workers: int = 2,
) -> list[str]:
    """Replay golden specs through a loopback server; diff against
    direct runs.

    ``scales=(1,)`` covers the 1-node corpus lane (the tier-1 default);
    ``repro validate --lane serving`` widens to ``--scales 1 4`` — the
    full checked-in corpus.  Returns failure descriptions (empty list =
    pass).
    """
    from repro.harness.runner import engine_run_count
    from repro.serve import ServeApp, ServeClient, loopback_server

    cases = [
        c for c in golden_cases(scales=scales)
        if (benchmarks is None or c.benchmark in benchmarks)
        and c.cluster in clusters
    ]
    failures: list[str] = []

    # the corpus is seeded from the golden fingerprints, so the predict
    # path can interpolate at exactly the specs being replayed
    app = ServeApp(workers=workers, golden_dir=golden_dir)
    with loopback_server(app) as (host, port):
        client = ServeClient(host, port)
        for case in cases:
            spec = {
                "benchmark": case.benchmark,
                "cluster": case.cluster,
                "nnodes": case.nnodes,
                "suite": case.suite,
            }
            direct = run_case(case)
            expected = fingerprint(direct).digest

            # --- path 1: cold DES ------------------------------------
            runs_before = engine_run_count()
            cold = client.run(spec)
            if cold.source != "des":
                failures.append(
                    f"{case.slug}: first request answered from "
                    f"{cold.source!r}, expected a cold DES execution"
                )
            if cold.fingerprint != expected:
                failures.append(
                    f"{case.slug}: served fingerprint "
                    f"{str(cold.fingerprint)[:16]}… != direct "
                    f"{expected[:16]}… on the cold path"
                )
            rebuilt = fingerprint(cold.result()).digest
            if rebuilt != expected:
                failures.append(
                    f"{case.slug}: result reconstructed from the response "
                    f"re-fingerprints to {rebuilt[:16]}… != {expected[:16]}… "
                    "(lossy serialization)"
                )

            # --- path 2: cache hit -----------------------------------
            runs_cold = engine_run_count()
            warm = client.run(spec)
            if warm.source != "store":
                failures.append(
                    f"{case.slug}: repeat request answered from "
                    f"{warm.source!r}, expected the result store"
                )
            if engine_run_count() != runs_cold:
                failures.append(
                    f"{case.slug}: the cache hit cost "
                    f"{engine_run_count() - runs_cold} engine execution(s)"
                )
            if warm.fingerprint != expected:
                failures.append(
                    f"{case.slug}: cached fingerprint drifted to "
                    f"{str(warm.fingerprint)[:16]}…"
                )
            if warm.doc["result"] != cold.doc["result"]:
                failures.append(
                    f"{case.slug}: cached result document differs from the "
                    "cold answer"
                )
            if engine_run_count() - runs_before != 1:
                failures.append(
                    f"{case.slug}: cold+warm cost "
                    f"{engine_run_count() - runs_before} engine executions, "
                    "expected exactly 1"
                )

            # --- path 3: predict hit (band-negotiated) ---------------
            pred = client.run(
                {**spec, "seed": case.nnodes + 1000},  # fresh key: not cached
                max_band=PREDICT_MAX_BAND,
            )
            if pred.source != "predict":
                failures.append(
                    f"{case.slug}: max_band request answered from "
                    f"{pred.source!r}, expected the prediction ladder level"
                )
                continue
            if pred.fingerprint is not None:
                failures.append(
                    f"{case.slug}: prediction carries a fingerprint — "
                    "predictions must never masquerade as ground truth"
                )
            if not (0.0 <= pred.band <= PREDICT_MAX_BAND):
                failures.append(
                    f"{case.slug}: predict answer states band {pred.band}, "
                    f"outside the negotiated max_band {PREDICT_MAX_BAND}"
                )
            served_runtime = pred.result().elapsed
            err = abs(served_runtime - direct.elapsed) / direct.elapsed
            if err > pred.band * (1.0 + 1e-9):
                failures.append(
                    f"{case.slug}: predict runtime off by {100 * err:.2f}% "
                    f"— outside its own stated band of {100 * pred.band:.2f}%"
                )
    return failures
