"""Content identity and the one durable append-only log.

Every identity in the package — the checkpoint key of a
:class:`~repro.harness.parallel.RunSpec`, the serve cache key, the
prediction-corpus key, a :class:`~repro.machine.cluster.ClusterSpec`
digest, a :attr:`~repro.scenarios.Scenario.digest` — is
:func:`content_key` over a record of *resolved parameters*: numbers,
never labels.  Two things that would simulate differently therefore
never share a key, whatever they are called.

:class:`JsonlLog` is the storage primitive behind the harness checkpoint
(:mod:`repro.harness.checkpoint`), the prediction corpus
(:mod:`repro.predict.corpus`) and the serve result store
(:mod:`repro.serve.store`).  One JSON record per line, each stamped with
a schema and a kind:

* :meth:`JsonlLog.append` writes one record, fsynced by default, on a
  line of its own even after a torn tail; the append that creates the
  file also fsyncs its directory entry;
* :meth:`JsonlLog.scan` reads every record of the log's schema, in file
  order, and skips (counting them in :attr:`JsonlLog.rejected`) torn,
  corrupt, non-UTF-8 and stale-schema lines — a killed writer or a bad
  disk sector costs one record, never the file;
* :meth:`JsonlLog.rewrite` compacts atomically: fsynced temp file,
  ``os.replace``, directory fsync.  A crash leaves the old file or the
  new one, never a torn one.

Last record wins is the views' rule: they fold scanned records into a
dict by key, so a re-appended key resolves to its newest record.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Iterable, Optional, TypeVar

__all__ = ["JsonlLog", "content_key", "fault_digest", "fsync_dir"]

T = TypeVar("T")

_COMPACT = (",", ":")
#: one encoder for every key: ``json.dumps`` with options builds a new one
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=_COMPACT)


def content_key(record: Any) -> str:
    """SHA-256 (hex) of ``record`` as sorted-key compact JSON."""
    return hashlib.sha256(_CANONICAL.encode(record).encode()).hexdigest()


def fault_digest(plan: Any) -> Optional[str]:
    """Short digest of a :class:`~repro.faults.plan.FaultPlan`; ``None``
    for no plan or an empty one (both run fault-free).  The encoding is
    pinned by existing :attr:`~repro.scenarios.Scenario.digest` values."""
    if plan is None or plan.empty:
        return None
    return hashlib.sha256(plan.to_json().encode()).hexdigest()[:16]


def fsync_dir(path: str) -> None:
    """fsync the directory containing ``path``.

    ``os.replace`` makes the new name visible, but only a directory
    fsync makes the *rename itself* durable — without it a crash after
    an fsynced-temp-then-replace can resurrect the replaced file.  On
    platforms without ``os.O_DIRECTORY`` (Windows) this is a no-op.
    """
    flag = getattr(os, "O_DIRECTORY", None)
    if flag is None:  # pragma: no cover - POSIX-only guard
        return
    dirfd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY | flag)
    try:
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


class JsonlLog:
    """One append-only JSONL file of ``{"schema", "kind", ...}`` records."""

    def __init__(self, path: str, schema: int) -> None:
        self.path = path
        self.schema = schema
        #: non-blank lines the last :meth:`scan` skipped
        self.rejected = 0

    def _line(self, kind: str, body: dict[str, Any]) -> str:
        record = {"schema": self.schema, "kind": kind, **body}
        return json.dumps(record, separators=_COMPACT) + "\n"

    def append(self, kind: str, body: dict[str, Any], fsync: bool = True) -> None:
        """Append one record; ``fsync=False`` only flushes (for records
        that are breadcrumbs, not the source of truth)."""
        line = self._line(kind, body).encode()
        with open(self.path, "a+b") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    line = b"\n" + line  # never glue onto a torn tail
            fh.write(line)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        if fsync and not end:
            fsync_dir(self.path)

    def scan(self, parse: Callable[[dict[str, Any]], Optional[T]]) -> list[T]:
        """``parse(record)`` for every record of this schema, in file
        order.  A line that does not decode, parse, match the schema or
        survive ``parse`` (``None``, or an ``AttributeError`` /
        ``KeyError`` / ``TypeError`` / ``ValueError`` from a malformed
        record) is counted in :attr:`rejected` and skipped."""
        self.rejected = 0
        if not os.path.exists(self.path):
            return []
        out = []
        with open(self.path, "rb") as fh:
            for raw in fh:
                if not raw.strip():
                    continue
                try:
                    doc = json.loads(raw.decode("utf-8"))
                    item = parse(doc) if doc.get("schema") == self.schema else None
                except (AttributeError, KeyError, TypeError, ValueError):
                    item = None
                if item is None:
                    self.rejected += 1
                else:
                    out.append(item)
        return out

    def rewrite(self, records: Iterable[tuple[str, dict[str, Any]]]) -> None:
        """Atomically replace the file with ``(kind, body)`` records."""
        tmp = self.path + ".compact.tmp"
        with open(tmp, "w") as fh:
            for kind, body in records:
                fh.write(self._line(kind, body))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        fsync_dir(self.path)
