"""The tiered prediction interface: ``predict(spec) -> Prediction``.

One entry point in front of three tiers:

=========== ============================ =================== ==============
tier        mechanism                    latency             stated band
=========== ============================ =================== ==============
analytic    closed-form Roofline + LogGP ~1 ms               calibrated per
            step pricing (Tier A)                            benchmark
surrogate   corpus-interpolated residual ~1 ms               LOO-CV based,
            correction (Tier B)                              exact at corpus
                                                             points
des         the event-level simulator    seconds - minutes   0 (ground
            (Tier C)                                         truth)
=========== ============================ =================== ==============

``tier="auto"`` escalation policy (cheapest tier that can defend its
answer):

1. price analytically — always;
2. if the query's machine is a registry machine at its calibrated
   parameters and the corpus covers the query (group trained, node
   count inside the hull), take the surrogate **unless** it disagrees
   with the analytic tier beyond their combined stated bands —
   disagreement means the residual surface is extrapolating something
   the corpus cannot support;
3. otherwise fall back to the DES (when ``allow_des``) and feed the
   fresh ground truth back into the corpus, so the next query
   interpolates instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Protocol

from repro.machine.registry import get_cluster
from repro.perfmon.rapl import EnergyReading
from repro.predict.analytic import SAMPLE_LIMIT, AnalyticEstimate, analytic_prediction
from repro.predict.corpus import CorpusSample, PredictionCorpus, registry_name
from repro.predict.surrogate import ResidualSurrogate
from repro.spechpc.suite import get_benchmark

#: Benchmarks whose tiny-suite runtime strictly improves with nodes on
#: the paper grid (strong scaling without a saturating replicated phase;
#: soma replicates its field update and flattens out).
STRONG_SCALING = (
    "lbm", "tealeaf", "cloverleaf", "pot3d", "sph-exa", "hpgmgfv", "weather",
)


def strong_scaling_eligible(benchmark: str) -> bool:
    """True if Tier A should be monotone in nodes for this benchmark."""
    return benchmark in STRONG_SCALING


@dataclass(frozen=True)
class PredictionSpec:
    """One prediction query on the paper's scaling axes.

    ``nprocs=None`` means fully populated nodes (``nnodes`` x cores per
    node, the paper's multi-node axis); an explicit ``nprocs`` expresses
    domain-fill points (several rank counts on one node).  The
    ``benchmark_obj`` / ``cluster_obj`` escape hatches let callers that
    already hold (possibly modified) spec objects — the sweep harness —
    bypass the registry lookup; they do not participate in equality.
    """

    benchmark: str
    cluster: str               # "A" / "B" / registry name
    nnodes: int
    suite: str = "tiny"
    threads: int = 1
    nprocs: int | None = None
    benchmark_obj: Any = field(default=None, compare=False, repr=False)
    cluster_obj: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.nnodes < 1:
            raise ValueError("nnodes must be >= 1")
        if self.nprocs is not None and self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")

    @classmethod
    def for_sample(cls, sample: CorpusSample, **overrides) -> "PredictionSpec":
        """The query at one corpus sample's point."""
        return cls(
            benchmark=sample.benchmark, cluster=sample.cluster,
            nnodes=sample.nnodes, suite=sample.suite, threads=sample.threads,
            nprocs=sample.nprocs, **overrides,
        )

    def resolve(self):
        """-> (Benchmark, ClusterSpec) with capacity raised to fit the
        query (the paper grid reaches 64 nodes; the seeded clusters cap
        at their Table 3 sizes)."""
        bench = self.benchmark_obj or get_benchmark(self.benchmark)
        cluster = self.cluster_obj or get_cluster(self.cluster)
        if self.nnodes > cluster.max_nodes:
            cluster = replace(cluster, max_nodes=self.nnodes)
        return bench, cluster

    def resolved_nprocs(self, cluster) -> int:
        """The query's rank count (defaults to fully populated nodes)."""
        return self.nprocs or self.nnodes * cluster.cores_per_node


@dataclass(frozen=True)
class Prediction:
    """One tier's answer, with its stated error band.

    ``band`` is the tier's claimed bound on ``|predicted - DES| / DES``
    for runtime and energy; ``validate.prediction_differential`` holds
    every tier to its own claim against the golden corpus.  The DES
    itself states ``band=0`` (it *is* the reference).
    """

    spec: PredictionSpec
    tier: str                       # "analytic" | "surrogate" | "des"
    runtime: float                  # full-run elapsed [s]
    band: float
    energy: EnergyReading
    time_by_kind: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def runtime_interval(self) -> tuple[float, float]:
        """(low, high) runtime bracket implied by the stated band."""
        return self.runtime / (1.0 + self.band), self.runtime * (1.0 + self.band)


class PredictionTier(Protocol):
    """What :func:`predict` requires of a tier implementation."""

    name: str

    def predict(self, spec: PredictionSpec) -> Prediction | None:
        """Answer the query, or ``None`` if this tier cannot."""
        ...


# --------------------------------------------------------------------------
# tier implementations
# --------------------------------------------------------------------------

class AnalyticPredictionTier:
    """Tier A: always answers."""

    name = "analytic"

    def __init__(self, sample_limit: int = SAMPLE_LIMIT) -> None:
        self.sample_limit = sample_limit

    def estimate(self, spec: PredictionSpec) -> AnalyticEstimate:
        bench, cluster = spec.resolve()
        return analytic_prediction(
            bench, cluster, spec.suite,
            nnodes=spec.nnodes, nprocs=spec.nprocs,
            threads=spec.threads, sample_limit=self.sample_limit,
        )

    def predict(self, spec: PredictionSpec) -> Prediction:
        est = self.estimate(spec)
        return Prediction(
            spec=spec,
            tier=self.name,
            runtime=est.elapsed,
            band=est.band,
            energy=est.energy,
            time_by_kind=est.time_by_kind,
            counters=est.counters,
            details={
                "step_seconds": est.step_seconds,
                "sim_steps": est.sim_steps,
                "total_iterations": est.total_iterations,
                **est.details,
            },
        )


class SurrogatePredictionTier:
    """Tier B: answers when the corpus has the query's scaling curve."""

    name = "surrogate"

    def __init__(
        self,
        corpus: PredictionCorpus,
        analytic: AnalyticPredictionTier | None = None,
    ) -> None:
        self.corpus = corpus
        self.analytic = analytic or AnalyticPredictionTier()
        self.model = ResidualSurrogate(corpus, self._analytic_point)

    def _analytic_point(self, sample: CorpusSample) -> tuple[float, float]:
        est = self.analytic.estimate(PredictionSpec.for_sample(sample))
        return est.elapsed, est.chip_energy + est.dram_energy

    def predict(self, spec: PredictionSpec) -> Prediction | None:
        a = self.analytic.estimate(spec)
        group = (a.benchmark, a.cluster, spec.suite, spec.threads)
        s = self.model.estimate(group, a.nprocs, a.elapsed, a.energy.total_energy)
        if s is None:
            return None
        # keep the analytic chip/DRAM split, rescaled to the corrected
        # total (the corpus records totals, not the split)
        scale = s.total_energy / a.energy.total_energy
        energy = EnergyReading(
            elapsed=s.runtime,
            chip_energy=a.chip_energy * scale,
            dram_energy=a.dram_energy * scale,
            nnodes=a.nnodes,
        )
        rt_scale = s.runtime / a.elapsed
        return Prediction(
            spec=spec,
            tier=self.name,
            runtime=s.runtime,
            band=s.band,
            energy=energy,
            time_by_kind={k: v * rt_scale for k, v in a.time_by_kind.items()},
            counters=a.counters,
            details={
                "in_hull": s.in_hull,
                "cv_error": s.cv_error,
                "n_samples": s.n_samples,
                "residual": s.residual,
                "analytic_runtime": a.elapsed,
                "sim_steps": a.sim_steps,
                "total_iterations": a.total_iterations,
            },
        )


class DesPredictionTier:
    """Tier C: the event-level engine; ground truth, fed back into the
    corpus when one is attached."""

    name = "des"

    def __init__(self, corpus: PredictionCorpus | None = None, **run_kwargs) -> None:
        self.corpus = corpus
        self.run_kwargs = run_kwargs

    def predict(self, spec: PredictionSpec) -> Prediction:
        from repro.harness.runner import run

        bench, cluster = spec.resolve()
        result = run(
            bench,
            cluster,
            nprocs=spec.resolved_nprocs(cluster),
            suite=spec.suite,
            threads_per_rank=spec.threads,
            **self.run_kwargs,
        )
        name = None if self.corpus is None else registry_name(cluster)
        if name is not None:
            self.corpus.add(CorpusSample(
                benchmark=result.benchmark,
                cluster=name,
                suite=spec.suite,
                nnodes=result.nnodes,
                nprocs=result.nprocs,
                threads=spec.threads,
                elapsed=result.elapsed,
                total_energy=result.energy.total_energy,
            ))
        return Prediction(
            spec=spec,
            tier=self.name,
            runtime=result.elapsed,
            band=0.0,
            energy=result.energy,
            time_by_kind=dict(result.time_by_kind),
            counters=dict(result.counters),
            details={"sim_elapsed": result.sim_elapsed,
                     "step_scale": result.step_scale},
        )


# --------------------------------------------------------------------------
# the policy
# --------------------------------------------------------------------------

TIERS = ("auto", "analytic", "surrogate", "des")


def predict(
    spec: PredictionSpec,
    tier: str = "auto",
    corpus: PredictionCorpus | None = None,
    allow_des: bool = True,
    sample_limit: int = SAMPLE_LIMIT,
    **des_kwargs,
) -> Prediction:
    """Answer one prediction query at the requested fidelity.

    ``tier="surrogate"`` without corpus coverage degrades to the
    analytic answer (flagged in ``details["fallback"]``) rather than
    failing; ``tier="auto"`` escalates to the DES instead — see the
    module docstring for the full policy.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
    analytic = AnalyticPredictionTier(sample_limit)
    if tier == "des":
        return DesPredictionTier(corpus, **des_kwargs).predict(spec)
    a_pred = analytic.predict(spec)
    if tier == "analytic":
        return a_pred

    # the corpus describes the calibrated registry machines only: a
    # re-clocked or zoo machine must never be corrected by their samples
    s_pred = None
    if (corpus is not None and len(corpus)
            and registry_name(spec.resolve()[1]) is not None):
        s_pred = SurrogatePredictionTier(corpus, analytic).predict(spec)

    if tier == "surrogate":
        if s_pred is not None and math.isfinite(s_pred.band):
            return s_pred
        return replace(a_pred, details={**a_pred.details, "fallback": "analytic"})

    # tier == "auto"
    covered = (
        s_pred is not None
        and s_pred.details["in_hull"]
        and math.isfinite(s_pred.band)
    )
    if covered:
        disagreement = abs(math.log(s_pred.runtime / a_pred.runtime))
        threshold = math.log1p(a_pred.band + s_pred.band)
        if disagreement <= threshold:
            return s_pred
    if allow_des:
        des = DesPredictionTier(corpus, **des_kwargs)
        return des.predict(spec)
    return replace(a_pred, details={**a_pred.details, "fallback": "analytic"})


def prediction_to_result(pred: Prediction):
    """Synthesize a :class:`~repro.harness.results.RunResult` from a
    prediction, so sweeps and reports consume any tier transparently
    (``meta["tier"]`` records the provenance)."""
    from repro.harness.results import RunResult

    spec = pred.spec
    bench, cluster = spec.resolve()
    sim_steps = pred.details.get("sim_steps") or bench.default_sim_steps(spec.suite)
    total_iter = (
        pred.details.get("total_iterations")
        or bench.workload(spec.suite).total_iterations
    )
    step_scale = total_iter / sim_steps
    return RunResult(
        benchmark=bench.name,
        cluster=cluster.name,
        suite=spec.suite,
        nprocs=spec.resolved_nprocs(cluster),
        nnodes=pred.energy.nnodes,
        elapsed=pred.runtime,
        sim_elapsed=pred.runtime / step_scale,
        step_scale=step_scale,
        counters=dict(pred.counters),
        time_by_kind=dict(pred.time_by_kind),
        energy=pred.energy,
        meta={"tier": pred.tier, "band": pred.band, **pred.details},
    )
