"""Experiment harness: run benchmarks, sweep scales, collect statistics.

The harness mirrors the paper's methodology (Sect. 3): warmed-up runs,
repeated executions with min/max/average statistics, consecutive-core
pinning, fixed clocks (implicit in the machine model), and LIKWID/RAPL
measurement of every run.  Sweeps are failure-tolerant (per-point
timeout, bounded retries, structured :class:`FailedRun` records,
checkpoint/resume) — see :mod:`repro.harness.parallel`.
"""

from repro.harness.checkpoint import (
    compact,
    load_checkpoint,
    load_journal,
    spec_key,
)
from repro.harness.executors import (
    Executor,
    ExecutorCapabilities,
    LocalPoolExecutor,
    SerialExecutor,
)
from repro.harness.fabric import FabricExecutor, worker_loop
from repro.harness.parallel import RunFailedError, RunSpec, run_many
from repro.harness.results import FailedRun, RunResult, ScalingPoint, ScalingSeries
from repro.harness.runner import engine_run_count, run
from repro.harness.sweep import domain_fill_counts, node_counts, scaling_sweep
from repro.harness.report import ascii_plot, ascii_table, fmt_float

__all__ = [
    "run",
    "RunResult",
    "FailedRun",
    "RunSpec",
    "RunFailedError",
    "run_many",
    "ScalingPoint",
    "ScalingSeries",
    "scaling_sweep",
    "domain_fill_counts",
    "node_counts",
    "ascii_table",
    "ascii_plot",
    "fmt_float",
    "spec_key",
    "load_checkpoint",
    "load_journal",
    "compact",
    "engine_run_count",
    "Executor",
    "ExecutorCapabilities",
    "SerialExecutor",
    "LocalPoolExecutor",
    "FabricExecutor",
    "worker_loop",
]
