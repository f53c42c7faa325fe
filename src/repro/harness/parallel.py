"""Parallel, failure-tolerant execution of independent benchmark runs.

A scaling sweep is embarrassingly parallel: every (nprocs, repeat) point
is an independent simulation with its own seed.  :func:`run_many` fans a
list of :class:`RunSpec` out over a pluggable :class:`~repro.harness.
executors.Executor` and returns the results **in submission order**, so
callers get exactly the list the serial loop would have produced —
determinism lives in the per-point seeds, not in scheduling.

Executors (see :mod:`repro.harness.executors`)
----------------------------------------------
``executor=None`` keeps the historical auto-selection: a local process
pool when ``workers > 1`` or a ``timeout`` demands process isolation,
otherwise in-process serial execution.  Pass ``"serial"``, ``"local"``,
or a constructed executor instance — e.g. a
:class:`~repro.harness.fabric.FabricExecutor` listening for TCP workers
on other machines — to choose explicitly.  The failure policy below is
identical for every backend because it lives in one shared driver, not
in the backends.

Failure tolerance
-----------------
Real measurement campaigns lose points — to OOM kills, node failures,
buggy fault plans, hung runs (Brunst et al. stress that anomalies
dominate SPEChpc campaigns).  ``run_many`` therefore supports:

* ``retries`` — bounded re-execution with deterministic exponential
  backoff, jittered per ``(spec, attempt)`` (seeded, no wall-clock
  randomness) so simultaneous retry storms decorrelate;
* ``timeout`` — a per-point wall-clock budget; a point that produces no
  result in time is recorded as failed and its (possibly hung) worker
  is abandoned so later points are not starved — the fabric instead
  retries the spec on another worker;
* ``tolerate_failures`` — failed points come back as structured
  :class:`~repro.harness.results.FailedRun` records in the result list
  (exception type, message, traceback, spec identity) instead of
  aborting the sweep; without it the first terminal failure raises
  :class:`RunFailedError` naming the spec;
* ``checkpoint`` — a JSONL file (see :mod:`repro.harness.checkpoint`)
  appended after every completed point; re-running with the same path
  restores completed points and simulates only the rest.  The file is
  compacted atomically on every resume (last record wins per spec) and,
  under the fabric, doubles as the lease journal;
* worker-death fallback — a broken local pool degrades the remaining
  points to serial execution (same timeout/retry/checkpoint policy);
  a lost fabric worker re-queues its leased specs to the survivors.

Worker exceptions are shipped back as plain strings (type name, message,
formatted traceback), never as pickled exception objects — an error type
that cannot cross the process boundary still surfaces as a precise
:class:`FailedRun`/:class:`RunFailedError` instead of an opaque
``PicklingError``.

Caveats
-------
* Results must cross a process boundary, so ``trace=True`` is rejected
  for ``workers > 1``, for ``timeout`` (which forces process isolation),
  and for any executor other than in-process serial: an ITAC-style
  trace of a large run is far bigger than the run's summary.  Trace-free
  :class:`~repro.harness.results.RunResult` records are plain frozen
  dataclasses of scalars and dicts — cheap to pickle.
* Benchmark and cluster objects ride along via pickle.  The bundled
  benchmarks are stateless singletons and specs are frozen dataclasses;
  custom benchmarks only need to be importable from the worker — for
  fabric workers, importable on the *worker's machine*.
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.harness.checkpoint import (
    append_checkpoint,
    compact,
    spec_key,
)
from repro.harness.results import FailedRun, RunResult
from repro.machine.cluster import ClusterSpec
from repro.spechpc.base import Benchmark

try:  # FaultPlan is optional in a spec; import only for typing/pickling
    from repro.faults.plan import FaultPlan
except ImportError:  # pragma: no cover - faults is part of the package
    FaultPlan = None  # type: ignore

#: Executor names ``run_many`` can construct itself (the fabric needs a
#: listen address, so it must be constructed by the caller or the CLI).
EXECUTOR_NAMES = ("serial", "local", "fabric")


@dataclass(frozen=True)
class RunSpec:
    """One independent simulated run (the unit of parallel work)."""

    benchmark: Benchmark
    cluster: ClusterSpec
    nprocs: int
    suite: str = "tiny"
    sim_steps: Optional[int] = None
    noise_sigma: float = 0.0
    seed: int = 0
    trace: bool = False
    threads_per_rank: int = 1
    fast_path: bool = True
    memoize: bool = True
    matcher: str = "indexed"
    wavefront: bool = True
    faults: Optional["FaultPlan"] = None
    max_events: Optional[int] = None
    sim_time_limit: Optional[float] = None
    perturb_seed: Optional[int] = None
    invariants: bool = False


class RunFailedError(RuntimeError):
    """A sweep point failed terminally and failures are not tolerated.

    ``failure`` carries the structured :class:`FailedRun` record (spec
    identity, exception type/message, formatted traceback, attempts).
    """

    def __init__(self, failure: FailedRun) -> None:
        message = f"sweep point failed: {failure.summary()}"
        if failure.traceback:
            message += "\n" + failure.traceback.rstrip()
        super().__init__(message)
        self.failure = failure


def execute(spec: RunSpec) -> RunResult:
    """Run one spec (top-level so it pickles for worker processes)."""
    from repro.harness.runner import run  # local import: no cycle

    return run(
        spec.benchmark,
        spec.cluster,
        spec.nprocs,
        suite=spec.suite,
        sim_steps=spec.sim_steps,
        trace=spec.trace,
        noise_sigma=spec.noise_sigma,
        seed=spec.seed,
        threads_per_rank=spec.threads_per_rank,
        fast_path=spec.fast_path,
        memoize=spec.memoize,
        matcher=spec.matcher,
        wavefront=spec.wavefront,
        faults=spec.faults,
        max_events=spec.max_events,
        sim_time_limit=spec.sim_time_limit,
        perturb_seed=spec.perturb_seed,
        invariants=spec.invariants,
    )


def _execute_packed(spec: RunSpec):
    """Worker entry point: success or a fully string-ified failure.

    The return value is always picklable (and, for the fabric,
    JSON-able via the result's checkpoint dict), so an exception type
    that cannot cross the process boundary (custom attributes, local
    classes) still comes back as a structured record instead of
    poisoning the pool with a ``PicklingError``.
    """
    try:
        return ("ok", execute(spec))
    except Exception as exc:
        return (
            "failed",
            type(exc).__name__,
            str(exc),
            _traceback.format_exc(),
        )


def _failure(
    spec: RunSpec, error_type: str, message: str, tb: str, attempts: int
) -> FailedRun:
    return FailedRun(
        benchmark=spec.benchmark.name,
        cluster=spec.cluster.name,
        suite=spec.suite,
        nprocs=spec.nprocs,
        seed=spec.seed,
        error_type=error_type,
        error_message=message,
        traceback=tb,
        attempts=attempts,
    )


def _resolve_executor(executor, workers: int, npending: int, timeout):
    from repro.harness.executors import LocalPoolExecutor, SerialExecutor

    pool_width = max(1, min(workers, npending))
    if executor is None:
        # historical auto-selection: a pool whenever parallelism or
        # process isolation (timeout) is called for
        if timeout is not None or pool_width > 1:
            return LocalPoolExecutor(pool_width)
        return SerialExecutor()
    if isinstance(executor, str):
        if executor == "serial":
            return SerialExecutor()
        if executor == "local":
            return LocalPoolExecutor(pool_width)
        if executor == "fabric":
            raise ValueError(
                "the fabric executor needs a listen address — construct "
                "repro.harness.fabric.FabricExecutor((host, port)) and pass "
                "the instance, or use the CLI: repro sweep --executor "
                "fabric --listen HOST:PORT"
            )
        raise ValueError(
            f"unknown executor {executor!r}: choose one of "
            f"{', '.join(EXECUTOR_NAMES)}, or pass an Executor instance"
        )
    return executor


def run_many(
    specs: Sequence[RunSpec],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.05,
    tolerate_failures: bool = False,
    checkpoint: Optional[str] = None,
    executor=None,
) -> list[Union[RunResult, FailedRun]]:
    """Execute every spec over the chosen executor; results in spec order.

    See the module docstring for the failure-tolerance contract.  With
    the default flags the behavior is unchanged from the plain executor:
    all points run once, in this process, and the first failure
    propagates.
    """
    from repro.harness.executors import drive

    specs = list(specs)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if backoff < 0.0:
        raise ValueError("backoff must be >= 0")
    if timeout is not None and timeout <= 0.0:
        raise ValueError("timeout must be > 0 seconds")
    has_trace = any(s.trace for s in specs)
    if workers > 1 and has_trace:
        raise ValueError(
            "trace collection is not supported with workers > 1 — traces "
            "are too large to ship across the process boundary; run traced "
            "jobs serially"
        )
    if timeout is not None and has_trace:
        raise ValueError(
            "per-point timeout requires process isolation, which traced "
            "runs cannot use; drop trace=True or the timeout"
        )
    if checkpoint is not None and has_trace:
        raise ValueError(
            "checkpoints cannot record event traces; drop trace=True or "
            "the checkpoint"
        )

    results: list = [None] * len(specs)
    keys: Optional[list[str]] = None
    if checkpoint is not None:
        # last-record-wins compaction: retry/resume cycles append
        # duplicate keys and the fabric appends lease-journal events;
        # resume is the natural point to fold the file back to one
        # result line per completed spec (atomically — a crash here
        # leaves the old file intact)
        saved = compact(checkpoint)
        keys = [spec_key(s) for s in specs]
        for i, key in enumerate(keys):
            if key in saved:
                results[i] = saved[key]
    pending = [i for i, r in enumerate(results) if r is None]

    def record(i: int, outcome: Union[RunResult, FailedRun]) -> None:
        results[i] = outcome
        if checkpoint is not None and isinstance(outcome, RunResult):
            append_checkpoint(checkpoint, keys[i], outcome)

    if not pending:
        return results

    ex = _resolve_executor(executor, workers, len(pending), timeout)
    if has_trace and (ex.capabilities.parallel or ex.capabilities.distributed):
        raise ValueError(
            f"trace collection requires in-process serial execution; the "
            f"{ex.name!r} executor ships results across a process or "
            "machine boundary"
        )
    if checkpoint is not None:
        ex.journal_path = checkpoint
    drive(
        ex,
        specs,
        pending,
        record,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        tolerate_failures=tolerate_failures,
    )
    return results
