"""Validation lanes: the one registry behind ``repro validate``.

A *lane* is one named determinism or conformance check: one
:class:`Lane` entry in :data:`LANES` whose ``check(ctx)`` returns
human-readable failure strings (empty = pass).  ``default`` lanes run
when no ``--lane`` is given.  The CLI, CI and the docs select lanes by
name only, so adding a lane means adding one entry here.

Each entry is also the only place that adapts its validator's report
type (:class:`~repro.validate.perturb.SanitizerReport`,
:class:`~repro.validate.differential.DifferentialReport`,
:class:`~repro.validate.differential.SchedulerMismatch`) to failure
strings.  The CLI builds its ``--lane`` choices from this module at
import, so each check imports its validator (and through it the engine
or the server) only when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.machine.registry import get_cluster
from repro.validate.golden import (
    CLUSTER_NAMES,
    DEFAULT_GOLDEN_DIR,
    DEFAULT_SCALES,
    check_case,
    golden_cases,
)


@dataclass(frozen=True)
class LaneContext:
    """What a lane may validate: the selected benchmarks and clusters,
    the per-job rank count (``None`` = one full node), perturbation
    shuffles, and the golden corpus and node scales to read."""

    benchmarks: tuple[str, ...]
    clusters: tuple[str, ...] = CLUSTER_NAMES
    suite: str = "tiny"
    nprocs: int | None = None
    shuffles: int = 20
    scales: tuple[int, ...] = DEFAULT_SCALES
    golden_dir: str = DEFAULT_GOLDEN_DIR

    def jobs(self) -> Iterator[tuple[str, str, int]]:
        """(benchmark, cluster, nprocs) for every selected job."""
        for bname in self.benchmarks:
            for cname in self.clusters:
                yield bname, cname, self.nprocs or get_cluster(cname).node.cores


@dataclass(frozen=True)
class Lane:
    """One registry entry: whether it runs without ``--lane``, and its
    check."""

    default: bool
    check: Callable[[LaneContext], list[str]]


def _golden(ctx: LaneContext) -> list[str]:
    """Per-case golden fingerprints at ``ctx.scales``."""
    failures = []
    for case in golden_cases(scales=ctx.scales):
        if case.benchmark not in ctx.benchmarks or case.cluster not in ctx.clusters:
            continue
        try:
            mismatch = check_case(ctx.golden_dir, case)
        except FileNotFoundError:
            mismatch = (f"{case.slug}: no checked-in fingerprint "
                        f"(run `repro validate --regen`)")
        if mismatch:
            failures.append(mismatch)
    return failures


def _perturb(ctx: LaneContext) -> list[str]:
    """Schedule-perturbation sanitizer, per job."""
    from repro.validate.perturb import sanitize

    reports = (sanitize(b, c, n, suite=ctx.suite, shuffles=ctx.shuffles)
               for b, c, n in ctx.jobs())
    return [r.summary() for r in reports if not r.ok]


def _differential(ctx: LaneContext) -> list[str]:
    """Engine flag matrix per job, plus the bandwidth-scheduler
    differential once (it lives below MPI, so it has no job axis).  A
    job in which no mode engaged replay fails too: its replay axis
    compared full stepping with full stepping."""
    from repro.validate.differential import (
        bandwidth_scheduler_differential,
        differential_run,
    )

    failures = [f"scheduler flow {mm.flow} {mm.kind}: {mm.detail}"
                for mm in bandwidth_scheduler_differential()]
    reports = (differential_run(b, c, n, suite=ctx.suite)
               for b, c, n in ctx.jobs())
    return failures + [r.summary() for r in reports
                       if not (r.ok and r.engaged)]


def _prediction(ctx: LaneContext) -> list[str]:
    """Every predict tier within its stated band of the golden corpus."""
    from repro.validate.prediction import prediction_differential

    return prediction_differential(
        ctx.golden_dir, scales=ctx.scales, benchmarks=ctx.benchmarks,
        clusters=ctx.clusters,
    )


def _serving(ctx: LaneContext) -> list[str]:
    """Golden specs through a loopback server, diffed against direct runs."""
    from repro.validate.serving import serving_differential

    return serving_differential(
        ctx.golden_dir, scales=ctx.scales, benchmarks=ctx.benchmarks,
        clusters=ctx.clusters,
    )


def _scenarios(ctx: LaneContext) -> list[str]:
    """Cluster-zoo validation plus named-vs-inline scenario differential."""
    from repro.validate.scenario import scenario_differential, zoo_validation

    return zoo_validation() + scenario_differential()


#: Every lane by name, in run order.
LANES: dict[str, Lane] = {
    "golden": Lane(True, _golden),
    "perturb": Lane(True, _perturb),
    "differential": Lane(True, _differential),
    "prediction": Lane(True, _prediction),
    "serving": Lane(False, _serving),
    "scenarios": Lane(False, _scenarios),
}
