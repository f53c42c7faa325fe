"""Spans and self-time roll-ups for ``--trace 1`` runs.

Everything here is applied from outside the program: :meth:`Tracer.installed`
swaps the public entry points of each layer for thin wrappers that record a
span (name, layer, start, end, parent, request id) in memory, and restores
the originals on exit.  Untraced runs never touch this module's patches.

Self time
    A span's self time is its duration minus the part of it covered by its
    child spans.  Where a region ran under ``cProfile`` (the whole pass of a
    DES workload, or each DES execution behind the server), the profiler's
    own self time per function, rolled up by top-level ``repro`` package,
    replaces the span accounting for that region.
"""

from __future__ import annotations

import contextlib
import cProfile
import itertools
import json
import os
import pstats
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator, Optional

#: The layers ``self_s.repro.<package>`` reports; other ``repro``
#: packages (machine, perfmon, obs, faults, analysis), the interpreter,
#: the standard library and numpy are folded into ``other``.
LAYERS = (
    "harness", "des", "smpi", "spechpc", "model",
    "predict", "serve", "scenarios", "validate",
)


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "request",
                 "profiled")

    def __init__(self, id: int, name: str, layer: str, parent: Optional[int],
                 request: Optional[int], profiled: bool) -> None:
        self.id = id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.request = request
        self.profiled = profiled
        self.start = time.perf_counter()
        self.end = self.start

    def to_dict(self) -> dict[str, Any]:
        return {s: getattr(self, s) for s in self.__slots__}


def _package_of(filename: str, root: str) -> str:
    """``repro.<package>`` for a file under the ``repro`` source tree,
    ``other`` for anything else."""
    if not filename.startswith(root):
        return "other"
    first = filename[len(root):].lstrip(os.sep).split(os.sep, 1)[0]
    layer = first[:-3] if first.endswith(".py") else first
    return f"repro.{layer}" if layer in LAYERS else "other"


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    The load comes from one closed-loop client, so at most one request is
    in flight: :attr:`request` names it, and spans opened on server
    threads with no open parent of their own attach to :attr:`root`.
    """

    def __init__(self, profile_des: bool = False) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_results: list[Any] = []
        self.request: Optional[int] = None
        self.root: Optional[int] = None
        #: profile DES work: whole DES passes, or each execution behind
        #: the server
        self.profile_des = profile_des
        self.profiling = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._profiler: Optional[cProfile.Profile] = None
        self._profile_lock = threading.Lock()

    # --- spans ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str, profiled: bool = False) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1].id if stack else self.root
        inside = profiled or self.profiling or any(s.profiled for s in stack)
        sp = Span(next(self._ids), name, layer, parent, self.request, inside)
        with self._lock:
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str,
             on_result: Optional[Callable[[Any], None]] = None,
             profile: bool = False) -> Callable:
        def wrapper(*args, **kwargs):
            if profile and self.profile_des and not self.profiling and \
                    self._profile_lock.acquire(False):
                try:
                    with self.span(name, layer, profiled=True):
                        out = self._profiler_for_call().runcall(fn, *args, **kwargs)
                finally:
                    self._profile_lock.release()
            else:
                with self.span(name, layer):
                    out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    # --- profiling --------------------------------------------------------

    def _profiler_for_call(self) -> cProfile.Profile:
        if self._profiler is None:
            self._profiler = cProfile.Profile()
        return self._profiler

    def profile_call(self, fn: Callable, *args, **kwargs) -> Any:
        """Run ``fn`` on this thread under ``cProfile``; its self time
        joins the roll-up."""
        self.profiling = True
        try:
            return self._profiler_for_call().runcall(fn, *args, **kwargs)
        finally:
            self.profiling = False

    def rollup(self) -> Counter:
        """Profiler self seconds by ``repro.<package>`` / ``other``."""
        import repro

        out: Counter = Counter()
        if self._profiler is not None:
            root = os.path.dirname(os.path.abspath(repro.__file__))
            stats = pstats.Stats(self._profiler).stats  # type: ignore[attr-defined]
            for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in stats.items():
                out[_package_of(os.path.abspath(filename), root)] += tt
        return out

    def self_times(self) -> Counter:
        """Self seconds per layer over every recorded span, with
        profiled regions taken from the profiler roll-up."""
        children: dict[int, list[Span]] = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                children[sp.parent].append(sp)
        out: Counter = Counter()
        for sp in self.spans:
            if sp.profiled:
                continue
            covered, cursor = 0.0, sp.start
            for lo, hi in sorted((c.start, c.end) for c in children[sp.id]):
                lo, hi = max(lo, cursor), min(hi, sp.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[sp.layer] += max(0.0, (sp.end - sp.start) - covered)
        out.update(self.rollup())
        return out

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, summed seconds) of the spans called ``name``."""
        durations = [sp.end - sp.start for sp in self.spans if sp.name == name]
        return len(durations), sum(durations)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([sp.to_dict() for sp in self.spans], fh)

    # --- patches ----------------------------------------------------------

    def _count_prediction(self, pred: Any) -> None:
        self.counts[f"predict.answered.{pred.tier}"] += 1

    def _keep_result(self, result: Any) -> None:
        self.run_results.append(result)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap each layer's public entry points for the duration."""
        import repro.harness
        import repro.harness.parallel as parallel
        import repro.harness.runner as runner
        import repro.predict.api as predict_api
        import repro.scenarios
        import repro.validate.golden as golden
        from repro.scenarios.spec import Scenario
        from repro.serve.spec import ServeSpec
        from repro.serve.store import ResultStore

        run = self.wrap(runner.run, "harness.run", "repro.harness",
                        on_result=self._keep_result)
        targets: list[tuple[Any, str, Any]] = [
            (runner, "run", run),
            (repro.harness, "run", run),
            (parallel, "execute", self.wrap(
                parallel.execute, "harness.execute", "repro.harness",
                profile=True)),
            (parallel, "append_checkpoint", self.wrap(
                parallel.append_checkpoint, "harness.checkpoint.append",
                "repro.harness")),
            (golden, "fingerprint", self.wrap(
                golden.fingerprint, "validate.fingerprint", "repro.validate")),
            (predict_api, "predict", self.wrap(
                predict_api.predict, "predict.predict", "repro.predict",
                on_result=self._count_prediction)),
            (repro.scenarios, "load_scenario", self.wrap(
                repro.scenarios.load_scenario, "scenarios.resolve",
                "repro.scenarios")),
            (Scenario, "effective_cluster", self.wrap(
                Scenario.effective_cluster, "scenarios.resolve",
                "repro.scenarios")),
            (ServeSpec, "key", property(self.wrap(
                ServeSpec.key.fget, "serve.spec.key", "repro.serve"))),
            (ResultStore, "get", self.wrap(
                ResultStore.get, "serve.store.get", "repro.serve")),
            (ResultStore, "put", self.wrap(
                ResultStore.put, "serve.store.put", "repro.serve")),
        ]
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, replacement in targets:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

