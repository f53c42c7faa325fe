"""The ``serve_mixed`` workload: a closed loop against a loopback server.

One client thread sends a seeded request stream to a ``ServeApp`` with
two worker threads and a fresh result store, waiting for each reply
before sending the next request.  Each round of the stream runs against a
new server whose store is first warmed with the round's repeat set, so
every round sees the same inputs and the same answers.

Mix of one round (1000 operations):

* 80 % ``/run`` repeats of the warm set (answered by the store);
* 10 % ``/run`` with ``max_band`` (answered by a prediction tier);
* 7.9 % ``/predict`` at the analytic tier, half through scenario refs;
* 1.6 % ``/run`` of specs no earlier request named (answered by the DES);
* 0.5 % small ``/sweep`` batches mixing store hits, a new spec and its
  duplicate (answered by the DES and coalesced).
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from typing import Any, Optional

from des_workloads import Pass, run_counts
from tracing import Tracer

#: Benchmarks whose small runs cost tens of milliseconds, used for the
#: stored and new specs; predictions cover the whole suite.
CHEAP = ("lbm", "soma", "tealeaf", "cloverleaf", "sph-exa", "weather", "pot3d")
MAX_BAND = 0.25
ROUND_OPS = 1000
#: (kind, operations per round)
MIX = (("warm", 800), ("band", 100), ("predict", 79), ("cold", 16),
       ("sweep", 5))
SOURCES_WITH_FINGERPRINT = ("store", "des", "coalesced")


def _key(spec: dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


def make_stream(seed: int) -> tuple[list[dict], list[tuple[str, Any]]]:
    """-> (warm set, one round of operations) for ``seed``.

    The spec pools are fixed; the seed draws the repeats from them, picks
    which new specs arrive alone or in a sweep, and orders the round.
    """
    from repro.spechpc.suite import SUITE_ORDER

    rng = random.Random(seed)
    warm = [{"benchmark": b, "cluster": c, "nnodes": 1}
            for b in CHEAP for c in ("A", "B")]
    new = [{"benchmark": b, "cluster": c, "nnodes": 2}
           for b in CHEAP for c in ("A", "B")]
    new += [{"benchmark": b, "scenario": "zoo/cascadelake", "nnodes": 1}
            for b in CHEAP]
    banded = [{"benchmark": b, "cluster": c, "nnodes": n}
              for b in SUITE_ORDER for c in ("A", "B") for n in (3, 6, 8)]
    predicted = [
        {"benchmark": b, **where, "nnodes": n}
        for b in SUITE_ORDER
        for where in ({"cluster": "A"}, {"cluster": "B"},
                      {"scenario": "zoo/icelake"},
                      {"scenario": "zoo/sapphirerapids"})
        for n in (1, 4, 16)
    ]
    rng.shuffle(new)
    counts = dict(MIX)
    if counts["cold"] + counts["sweep"] != len(new):
        raise RuntimeError("every new spec must arrive exactly once per round")
    ops: list[tuple[str, Any]] = []
    ops += [("warm", rng.choice(warm)) for _ in range(counts["warm"])]
    ops += [("band", rng.choice(banded)) for _ in range(counts["band"])]
    ops += [("predict", rng.choice(predicted)) for _ in range(counts["predict"])]
    ops += [("cold", new.pop()) for _ in range(counts["cold"])]
    for _ in range(counts["sweep"]):
        fresh = new.pop()
        ops.append(("sweep", rng.sample(warm, 2) + [fresh, fresh]))
    rng.shuffle(ops)
    if len(ops) != ROUND_OPS:
        raise RuntimeError(f"stream has {len(ops)} operations, not {ROUND_OPS}")
    return warm, ops


class ServeMixed:
    name = "serve_mixed"

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.golden_dir = os.path.join(root, "tests", "golden")
        #: spec key -> reference digest / analytic answer, filled by checks
        self._digests: dict[str, str] = {}
        self._analytic: dict[str, tuple[float, float]] = {}
        self._payloads_checked = False

    def setup(self) -> None:
        import repro.harness  # noqa: F401  (import cost belongs to set-up)
        import repro.predict  # noqa: F401
        import repro.serve  # noqa: F401
        import repro.validate.golden  # noqa: F401
        from repro.serve.client import ServeError

        #: a request that raises one of these counts as a failed operation
        self.errors = (ServeError, OSError, ValueError)
        self.warm, self.ops = make_stream(self.seed)

    # --- one round ----------------------------------------------------------

    def run_pass(self, tmpdir: str, tracer: Optional[Tracer] = None) -> Pass:
        from repro.harness import engine_run_count
        from repro.serve import ServeApp, ServeClient, loopback_server

        t_setup = time.perf_counter()
        app = ServeApp(store_path=os.path.join(tmpdir, "store.jsonl"),
                       golden_dir=self.golden_dir, workers=2,
                       sweep_executor="serial")
        records: list[Any] = []
        latencies: list[float] = []
        with loopback_server(app) as (host, port):
            client = ServeClient(host, port, timeout=120.0)
            for spec in self.warm:
                client.run(spec)
            setup = time.perf_counter() - t_setup
            before = client.metrics()
            engine0 = engine_run_count()
            gc.collect()  # every round starts from a collected heap
            t0 = time.perf_counter()
            if tracer is None:
                for op in self.ops:
                    t = time.perf_counter()
                    records.append(self._send(client, op))
                    latencies.append(time.perf_counter() - t)
            else:
                with tracer.installed():
                    for i, op in enumerate(self.ops):
                        tracer.request = i
                        t = time.perf_counter()
                        with tracer.span("serve.request", "repro.serve") as sp:
                            tracer.root = sp.id
                            records.append(self._send(client, op))
                        latencies.append(time.perf_counter() - t)
                        tracer.root = None
            wall = time.perf_counter() - t0
            des_runs = engine_run_count() - engine0
            after = client.metrics()
            t_check = time.perf_counter()
            failures = [] if self._payloads_checked else self._check_payloads(client)
            check_s = time.perf_counter() - t_check
        out = Pass(wall=wall, latencies=latencies, ops=len(self.ops), setup=setup)
        answers = {
            k: after["answers"].get(k, 0) - before["answers"].get(k, 0)
            for k in set(after["answers"]) | set(before["answers"])
        }
        answered = sum(answers.values())
        for source in ("store", "predict", "des", "coalesced"):
            out.counts[f"serve.answers.{source}"] = float(answers.get(source, 0))
        out.counts["serve.des_runs"] = float(des_runs)
        out.layer["serve.store_hit_ratio"] = (
            answers.get("store", 0) / answered if answered else 0.0)
        for source in ("store", "predict", "des"):
            lat = [dt for dt, rec in zip(latencies, records)
                   if rec[0] == "run" and rec[1] == source]
            out.layer[f"serve.rung.{source}.p50_ms"] = (
                1e3 * sorted(lat)[(len(lat) - 1) // 2] if lat else 0.0)
        t_check = time.perf_counter()
        failures += self._check(records)
        out.check_s = check_s + time.perf_counter() - t_check
        out.failures = failures
        # one failed operation per request, however many checks it broke
        out.failed = len({i for i, _ in failures if i is not None}) + sum(
            i is None for i, _ in failures)
        if tracer is not None:
            out.counts.update(run_counts(tracer.run_results))
        return out

    def _send(self, client: Any, op: tuple[str, Any]) -> tuple:
        """One operation -> a compact record for the checks (parsed
        result documents are dropped so a round stays small in memory)."""
        kind, spec = op
        try:
            if kind == "sweep":
                events = client.sweep(spec)
                return ("sweep", [(e.get("index"), e.get("source"),
                                   e.get("fingerprint"), e.get("band"))
                                  for e in events if e["event"] == "point"],
                        any(e["event"] == "done" for e in events))
            if kind == "predict":
                doc = client.predict(spec, tier="analytic").doc
                return ("predict", doc["tier"], doc["band"], doc["runtime_s"])
            ans = client.run(spec, max_band=MAX_BAND if kind == "band" else None)
            return ("run", ans.source, ans.fingerprint, ans.band)
        except self.errors as exc:
            return ("error", repr(exc))

    # --- correctness ---------------------------------------------------------

    def _reference_digest(self, spec: dict[str, Any]) -> str:
        """Fingerprint of a direct run of ``spec`` (no server)."""
        key = _key(spec)
        if key not in self._digests:
            from repro.harness.parallel import execute
            from repro.serve import ServeSpec
            from repro.validate.golden import fingerprint

            run_spec = ServeSpec.from_request(spec).run_spec()
            self._digests[key] = fingerprint(execute(run_spec)).digest
        return self._digests[key]

    def _reference_analytic(self, spec: dict[str, Any]) -> tuple[float, float]:
        key = _key(spec)
        if key not in self._analytic:
            from repro.predict.api import predict
            from repro.serve import ServeSpec

            pred = predict(ServeSpec.from_request(spec).prediction_spec(),
                           tier="analytic")
            self._analytic[key] = (pred.band, pred.runtime)
        return self._analytic[key]

    def _check(self, records: list[tuple]) -> list[tuple[Optional[int], str]]:
        """(op index, message) for every answer that is wrong."""
        bad: list[tuple[Optional[int], str]] = []
        for i, ((kind, spec), rec) in enumerate(zip(self.ops, records)):
            if rec[0] == "error":
                bad.append((i, f"{kind} failed: {rec[1]}"))
            elif rec[0] == "predict":
                _, tier, band, runtime = rec
                if tier != "analytic" or (band, runtime) != self._reference_analytic(spec):
                    bad.append((i, f"predict {spec}: {tier} {band} {runtime}"))
            elif rec[0] == "run":
                _, source, digest, band = rec
                if source == "predict" and kind == "band":
                    if not band <= MAX_BAND or digest is not None:
                        bad.append((i, f"band {spec}: band {band} > {MAX_BAND}"))
                elif source not in SOURCES_WITH_FINGERPRINT or \
                        digest != self._reference_digest(spec):
                    bad.append((i, f"run {spec}: {source} {digest}"))
            else:
                _, points, done = rec
                if not done or sorted(p[0] for p in points) != list(range(len(spec))):
                    bad.append((i, f"sweep {spec}: incomplete"))
                for index, source, digest, _band in points:
                    if source not in SOURCES_WITH_FINGERPRINT or \
                            digest != self._reference_digest(spec[index]):
                        bad.append((i, f"sweep point {spec[index]}: {source}"))
        return bad

    def _check_payloads(self, client: Any) -> list[tuple[Optional[int], str]]:
        """Once per run: each stored answer's result must hash to the
        fingerprint the answer carries."""
        from repro.validate.golden import fingerprint

        self._payloads_checked = True
        bad: list[tuple[Optional[int], str]] = []
        specs = {_key(s): s for s in self.warm}
        for kind, spec in self.ops:
            if kind == "cold":
                specs[_key(spec)] = spec
        for spec in specs.values():
            ans = client.run(spec)
            if fingerprint(ans.result()).digest != ans.fingerprint:
                bad.append((None, f"stored payload of {spec} does not match "
                                  "its fingerprint"))
        return bad
