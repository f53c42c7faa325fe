"""JSONL sweep checkpointing and the fabric lease journal.

A checkpoint is a :class:`~repro.store.JsonlLog` holding two record
kinds:

* ``result`` — a *successfully completed* sweep point, keyed by
  :func:`spec_key`, the content identity of the point's resolved
  parameters (benchmark, the cluster's parameter digest, ranks, suite,
  seed, noise, steps, threads, fault plan).  A killed sweep re-run with
  the same checkpoint path restores every recorded point without
  re-simulating it and continues from the first missing one; a point
  whose parameters changed — a different seed or fault plan, or the same
  cluster name at another clock — gets a fresh key and re-runs.
* ``event`` — a work-state transition journaled by the fabric manager
  (``lease`` / ``requeue`` / ``complete`` / ``failed`` / ``timeout`` /
  ``duplicate``).  Events are observability for crash forensics: after a
  manager crash the result records alone reconstruct the remaining work
  (everything without a result re-runs), and the trailing events say
  which specs were in flight and on which worker when the manager died.

Failed points are deliberately *not* recorded as results: on resume they
are retried — the common reason to resume is that whatever killed the
sweep (OOM, a node reboot, a buggy fault plan since fixed) has been
addressed.

Appends are last-record-wins, so a key written twice resolves to the
newest result; :func:`compact` atomically rewrites the file with one line
per completed key and no events, and returns the folded results —
:func:`~repro.harness.parallel.run_many` calls it on every resume, so the
file is read once and does not grow without bound.

Schema 3 keys results by resolved parameters.  Records of schemas 1 and
2 were keyed by cluster *name* (a re-clocked machine shared its nominal
twin's key), so they are ignored and their points recomputed.
"""

from __future__ import annotations

import os
from typing import Any

from repro.harness.results import RunResult
from repro.store import JsonlLog, content_key, fault_digest

__all__ = [
    "CHECKPOINT_SCHEMA",
    "SPEC_SCHEMA",
    "spec_record",
    "spec_key",
    "load_checkpoint",
    "load_journal",
    "append_checkpoint",
    "append_event",
    "compact",
]

#: Schema stamp written with every record (bump on incompatible change).
CHECKPOINT_SCHEMA = 3
#: Version of :func:`spec_record` (bump when its fields change: old keys
#: then miss and recompute).  3: the cluster enters by parameter digest.
SPEC_SCHEMA = 3


def spec_record(spec: Any) -> dict[str, Any]:
    """The resolved parameters a RunSpec's result depends on
    (duck-typed: any object with the spec's fields works).  Engine-mode
    flags are absent: every engine mode is bit-identical."""
    return {
        "schema": SPEC_SCHEMA,
        "benchmark": spec.benchmark.name,
        "cluster": spec.cluster.digest,
        "nprocs": spec.nprocs,
        "suite": spec.suite,
        "sim_steps": spec.sim_steps,
        "noise_sigma": float(spec.noise_sigma).hex(),
        "seed": spec.seed,
        "threads": spec.threads_per_rank,
        "faults": fault_digest(getattr(spec, "faults", None)),
    }


def spec_key(spec: Any) -> str:
    """Content identity of a RunSpec: :func:`~repro.store.content_key`
    of :func:`spec_record`."""
    return content_key(spec_record(spec))


def _result(key: str, result: RunResult) -> dict[str, Any]:
    return {"key": key, "result": result.to_checkpoint_dict()}


def _parse(doc: dict[str, Any]):
    """A record -> ``(kind, key, payload)``, or ``None`` if unknown."""
    if doc["kind"] == "result":
        return "result", doc["key"], RunResult.from_checkpoint_dict(doc["result"])
    if doc["kind"] == "event":
        return "event", doc["key"], {k: v for k, v in doc.items() if k != "schema"}
    return None


def _scan(path: str, kind: str) -> list:
    return [(key, payload) for k, key, payload
            in JsonlLog(path, CHECKPOINT_SCHEMA).scan(_parse) if k == kind]


def load_checkpoint(path: str) -> dict[str, RunResult]:
    """Every valid result (last record wins per key); a missing file is
    an empty checkpoint."""
    return dict(_scan(path, "result"))


def load_journal(path: str) -> list[dict[str, Any]]:
    """Every valid event record, in file (= chronological) order."""
    return [event for _, event in _scan(path, "event")]


def append_checkpoint(path: str, key: str, result: RunResult) -> None:
    """Durably append one completed point."""
    JsonlLog(path, CHECKPOINT_SCHEMA).append("result", _result(key, result))


def append_event(path: str, event: str, key: str, **fields: Any) -> None:
    """Append one work-state transition (lease/requeue/complete/...).

    Events are flushed but not fsynced: they are forensic breadcrumbs,
    not the source of truth for resume — losing the tail of the journal
    in a crash costs nothing but detail in the post-mortem.
    """
    JsonlLog(path, CHECKPOINT_SCHEMA).append(
        "event", {"event": event, "key": key, **fields}, fsync=False
    )


def compact(path: str) -> dict[str, RunResult]:
    """Atomically rewrite ``path`` with one result line per key and
    return those results.

    Keeps the *last* result per key (the newest re-run wins) in
    first-completion order, and drops events, corrupt lines and records
    of older schemas.  A missing file is a no-op.
    """
    records = load_checkpoint(path)
    if os.path.exists(path):
        JsonlLog(path, CHECKPOINT_SCHEMA).rewrite(
            ("result", _result(key, result)) for key, result in records.items()
        )
    return records
