"""The content-addressed result store behind ``repro serve``.

A :class:`~repro.store.JsonlLog` of ``entry`` records, one per completed
DES answer, keyed by the run identity
(:attr:`~repro.serve.spec.ServeSpec.key`).  The log supplies schema stamps, torn-line tolerance, fsynced
appends and atomic compaction; the store adds last-record-wins, a lock,
and one property checkpoints do not need: **integrity verification**.
Every record carries the result's golden fingerprint digest, and a
record whose stored result no longer reproduces that digest (bit rot, a
torn concurrent write, a tampered file) is discarded on load.
Corruption of any kind therefore degrades to a cache *miss* — recompute
and rewrite — never to a wrong cached answer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.harness.results import RunResult
from repro.store import JsonlLog

#: Schema stamp for store records; records from other schemas are
#: ignored on load (a stale-schema store degrades to recompute).
STORE_SCHEMA = 1


@dataclass(frozen=True)
class StoreEntry:
    """One cached answer: the spec it answers, the result, provenance."""

    key: str
    spec: dict[str, Any]        # canonical spec record (serve.spec)
    result: RunResult
    fingerprint: str            # golden fingerprint digest of ``result``
    source: str = "des"         # provenance of the cached answer

    def to_record(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "spec": self.spec,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "result": self.result.to_checkpoint_dict(),
        }


def _parse(doc: dict[str, Any]) -> Optional[StoreEntry]:
    """An ``entry`` record whose result still reproduces its recorded
    fingerprint, else None."""
    from repro.validate.golden import fingerprint

    if doc["kind"] != "entry":
        return None
    entry = StoreEntry(
        key=doc["key"],
        spec=doc["spec"],
        result=RunResult.from_checkpoint_dict(doc["result"]),
        fingerprint=doc["fingerprint"],
        source=doc.get("source", "des"),
    )
    return entry if fingerprint(entry.result).digest == entry.fingerprint else None


class ResultStore:
    """Fingerprint-keyed result cache with JSONL persistence.

    ``path=None`` keeps the store in memory (tests, ephemeral servers).
    Construction loads every valid record (last record wins per key);
    :meth:`put` durably appends; :meth:`compact` atomically folds the
    file to one line per key.  All methods are thread-safe — the server
    touches the store from its event loop and its worker threads.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._log = None if path is None else JsonlLog(path, STORE_SCHEMA)
        entries = [] if self._log is None else self._log.scan(_parse)
        self._entries = {e.key: e for e in entries}
        self._lock = threading.Lock()
        #: lines present in the file but rejected on load (corrupt,
        #: stale schema, integrity failure) — observability for /metrics
        self.rejected_lines = 0 if self._log is None else self._log.rejected

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def get(self, key: str) -> Optional[StoreEntry]:
        with self._lock:
            return self._entries.get(key)

    def put(self, entry: StoreEntry) -> None:
        """Insert (or replace) one answer; durably appended when backed
        by a file."""
        with self._lock:
            self._entries[entry.key] = entry
            if self._log is not None:
                self._log.append("entry", entry.to_record())

    def compact(self) -> int:
        """Atomically rewrite the file with one verified line per key.
        Returns the number of entries kept; memory-only stores no-op."""
        with self._lock:
            if self._log is not None:
                self._log.rewrite(
                    ("entry", e.to_record()) for e in self._entries.values()
                )
            return len(self._entries)
