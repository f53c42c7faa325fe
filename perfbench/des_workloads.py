"""The event-level workload ``corpus_des``.

It drives the harness at default flags and checks every result's
fingerprint against the golden corpus under ``tests/golden``.  The seed
fixes the order in which the cases run.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from tracing import Tracer


@dataclass
class Pass:
    """One timed pass over a workload's inputs."""

    wall: float
    latencies: list[float]
    ops: int
    failed: int = 0
    #: counts the program itself reports; they must repeat exactly
    counts: dict[str, float] = field(default_factory=dict)
    #: per-layer figures that may vary run to run (ratios, latencies)
    layer: dict[str, float] = field(default_factory=dict)
    #: per-pass set-up seconds (serve rounds), ``None`` for DES passes
    setup: Optional[float] = None
    #: seconds spent checking this pass's outputs, outside ``wall``
    check_s: float = 0.0
    failures: list = field(default_factory=list)
    tracer: Optional[Tracer] = None


def timed(body: Callable[[], None], tracer: Optional[Tracer]) -> float:
    """Seconds ``body()`` takes, traced when ``tracer`` is given and
    profiled when it asks to profile DES work."""
    t0 = time.perf_counter()
    if tracer is None:
        body()
    else:
        with tracer.installed():
            if tracer.profile_des:
                tracer.profile_call(body)
            else:
                body()
    return time.perf_counter() - t0


def run_counts(results: list[Any]) -> dict[str, float]:
    """Engine, matching and replay counts summed over ``results``
    (``RunResult.meta["metrics"]``; the heap high-water mark is a max)."""
    out = {
        "harness.run.calls": float(len(results)),
        "des.events": 0.0, "des.heap_pushes": 0.0, "des.runq_events": 0.0,
        "des.peak_heap_size": 0.0, "smpi.matching_ops": 0.0,
        "replay.engaged_runs": 0.0, "replay.declined.steps": 0.0,
        "replay.declined.other": 0.0, "replay.events_saved": 0.0,
        "replay.levels": 0.0,
    }
    for r in results:
        m = r.meta["metrics"]
        eng = m["engine"]
        out["des.events"] += eng["events"]
        out["des.heap_pushes"] += eng["heap_pushes"]
        out["des.runq_events"] += eng["runq_events"]
        out["des.peak_heap_size"] = max(out["des.peak_heap_size"],
                                        eng["peak_heap_size"])
        out["smpi.matching_ops"] += m["mailboxes"]["matching_ops"]
        tier = m.get("wavefront", {})
        if tier.get("eligible"):
            out["replay.engaged_runs"] += 1
            out["replay.events_saved"] += tier.get("events_saved", 0.0)
            out["replay.levels"] += tier.get("levels", 0.0)
        elif tier.get("declined.steps"):
            out["replay.declined.steps"] += 1
        else:
            out["replay.declined.other"] += 1
    return out


def fingerprint_failures(pairs: list[tuple[str, Any]],
                         expected: dict[str, str]) -> list[str]:
    """Slugs whose result does not match its reference digest.  A case
    with no reference is a failure, never a skip."""
    from repro.validate.golden import fingerprint

    return [slug for slug, result in pairs
            if fingerprint(result).digest != expected.get(slug)]


class CorpusDes:
    """The 36-case golden grid: 9 benchmarks x ClusterA/B x 1 and 4 full
    nodes, tiny suite, one ``scaling_sweep`` per (benchmark, cluster)
    with the serial executor and a fresh checkpoint file."""

    name = "corpus_des"

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        from repro.machine.registry import get_cluster
        from repro.spechpc.suite import get_benchmark
        from repro.validate import golden as G

        golden_dir = os.path.join(self.root, "tests", "golden")
        self.expected = {
            case.slug: G.load_fingerprint(golden_dir, case).digest
            for case in G.golden_cases()
        }
        groups: dict[tuple[str, str], list[Any]] = {}
        for case in G.golden_cases():
            groups.setdefault((case.benchmark, case.cluster), []).append(case)
        self.groups = [
            (get_benchmark(b), get_cluster(c), sorted(cases, key=lambda k: k.nprocs))
            for (b, c), cases in groups.items()
        ]
        random.Random(self.seed).shuffle(self.groups)

    def run_pass(self, tmpdir: str, tracer: Optional[Tracer] = None) -> Pass:
        import repro.harness as harness

        latencies: list[float] = []
        done: list[tuple[str, Any]] = []
        paths: list[str] = []

        def body() -> None:
            for i, (bench, cluster, cases) in enumerate(self.groups):
                path = os.path.join(tmpdir, f"checkpoint-{i}.jsonl")
                paths.append(path)
                # every sweep starts from a collected heap, so where a full
                # collection falls depends on the sweep, not on the order
                # the seed chose
                gc.collect()
                t = time.perf_counter()
                with (tracer.span("harness.scaling_sweep", "repro.harness")
                      if tracer is not None else contextlib.nullcontext()):
                    series = harness.scaling_sweep(
                        bench, cluster, [c.nprocs for c in cases],
                        executor="serial", checkpoint=path,
                    )
                latencies.append(time.perf_counter() - t)
                for case, point in zip(cases, series.points):
                    done.append((case.slug, point.runs[0]))

        wall = timed(body, tracer)
        out = Pass(wall=wall, latencies=latencies, ops=len(done))
        out.counts = run_counts([r for _, r in done])
        out.counts["harness.checkpoint.bytes"] = float(
            sum(os.path.getsize(p) for p in paths))
        t = time.perf_counter()
        bad = fingerprint_failures(done, self.expected)
        out.check_s = time.perf_counter() - t
        out.failures = bad
        out.failed = len(bad)
        return out
