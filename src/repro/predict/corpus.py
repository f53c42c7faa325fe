"""The prediction corpus: completed DES runs the surrogate learns from.

One :class:`CorpusSample` per simulated point — the DES runtime and
energy for a ``(benchmark, cluster, suite, nnodes)`` query.  A backed
corpus is a :class:`~repro.store.JsonlLog` of ``sample`` records: fsynced
appends, torn or corrupt lines skipped (and counted in
:attr:`PredictionCorpus.rejected_lines`), last record wins per key, and
an atomic :meth:`PredictionCorpus.compact`.

A sample's key (:func:`sample_key`) hashes the *parameter digest* of its
registry cluster, not the cluster's name.  Each record stores the key it
was written under; on load a sample whose stored key differs from its
recomputed one — the registry machine's parameters changed since, or the
line was edited — is dropped rather than trusted.

Two feeders fill it:

* :func:`corpus_from_golden` seeds a corpus from the golden fingerprint
  files under ``tests/golden`` (36 DES ground-truth points, hex-float
  encoded);
* Tier C (:func:`repro.predict.api.predict` escalating to the DES)
  appends every fresh simulation, so repeated queries get cheaper.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Any, Optional

from repro.store import JsonlLog, content_key

#: Schema stamp written with every record (bump on incompatible change).
#: 2: keys hash the registry cluster's parameter digest.
CORPUS_SCHEMA = 2


@dataclass(frozen=True)
class CorpusSample:
    """One completed DES run, reduced to what the surrogate needs."""

    benchmark: str
    cluster: str           # registry name ("ClusterA" / "ClusterB")
    suite: str
    nnodes: int
    nprocs: int
    threads: int
    elapsed: float         # DES full-run runtime [s]
    total_energy: float    # DES chip + DRAM energy [J]

    @cached_property
    def key(self) -> str:
        return sample_key(
            self.benchmark, self.cluster, self.suite,
            self.nnodes, self.nprocs, self.threads,
        )

    @property
    def group(self) -> tuple[str, str, str, int]:
        """Interpolation group: one scaling curve."""
        return (self.benchmark, self.cluster, self.suite, self.threads)


def sample_key(
    benchmark: str, cluster: str, suite: str,
    nnodes: int, nprocs: int, threads: int,
) -> str:
    """Identity of one corpus point; ``cluster`` is a registry name and
    enters by its machine's parameter digest."""
    from repro.machine.registry import get_cluster

    return content_key({
        "schema": CORPUS_SCHEMA, "benchmark": benchmark,
        "cluster": get_cluster(cluster).digest, "suite": suite,
        "nnodes": nnodes, "nprocs": nprocs, "threads": threads,
    })


def registry_name(cluster: Any) -> Optional[str]:
    """``cluster.name`` when the registry machine of that name has the
    same parameters (capacity aside), else ``None``: only runs on a
    calibrated registry machine may train the corpus."""
    from repro.machine.registry import CLUSTERS

    reg = CLUSTERS.get(cluster.name)
    if reg is None:
        return None
    if cluster.max_nodes != reg.max_nodes:
        cluster = replace(cluster, max_nodes=reg.max_nodes)
    return reg.name if cluster.digest == reg.digest else None


def _record(sample: CorpusSample) -> tuple[str, dict[str, Any]]:
    return "sample", {"key": sample.key, "sample": asdict(sample)}


def _parse(doc: dict[str, Any]) -> Optional[CorpusSample]:
    """A ``sample`` record whose stored key still matches, else None."""
    if doc["kind"] != "sample":
        return None
    sample = CorpusSample(**doc["sample"])
    return sample if sample.key == doc["key"] else None


class PredictionCorpus:
    """In-memory sample set with optional JSONL persistence.

    ``path=None`` keeps the corpus ephemeral (one sweep's accumulation);
    with a path, construction loads every valid record and :meth:`add`
    durably appends.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._log = None if path is None else JsonlLog(path, CORPUS_SCHEMA)
        samples = [] if self._log is None else self._log.scan(_parse)
        #: lines present in the file but skipped on load
        self.rejected_lines = 0 if self._log is None else self._log.rejected
        self._samples = {s.key: s for s in samples}   # last record wins

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples.values())

    def get(self, key: str) -> CorpusSample | None:
        return self._samples.get(key)

    def add(self, sample: CorpusSample) -> None:
        """Insert (or replace) one sample; durably appended when backed
        by a file."""
        self._samples[sample.key] = sample
        if self._log is not None:
            self._log.append(*_record(sample))

    def group(self, group: tuple) -> list[CorpusSample]:
        """Samples of one scaling curve, sorted by node count."""
        return sorted(
            (s for s in self._samples.values() if s.group == group),
            key=lambda s: s.nnodes,
        )

    def groups(self) -> list[tuple]:
        return sorted({s.group for s in self._samples.values()})

    def compact(self) -> int:
        """Atomically rewrite the backing file with one line per key.
        Returns the number of samples kept; memory-only corpora no-op."""
        if self._log is not None and os.path.exists(self.path):
            self._log.rewrite(map(_record, self._samples.values()))
        return len(self._samples)


def corpus_from_golden(
    golden_dir: str, scales: tuple[int, ...] = (1, 4), path: str | None = None
) -> PredictionCorpus:
    """Seed a corpus from the golden DES fingerprints.

    Missing files are skipped (a partially regenerated golden tree still
    seeds what it has).
    """
    from repro.validate.golden import golden_cases, load_fingerprint

    corpus = PredictionCorpus(path)
    for case in golden_cases(scales=scales):
        try:
            fp = load_fingerprint(golden_dir, case)
        except FileNotFoundError:
            continue
        rec = fp.record
        energy = rec["energy"]
        corpus.add(CorpusSample(
            benchmark=rec["benchmark"],
            cluster=rec["cluster"],
            suite=case.suite,
            nnodes=int(rec["nnodes"]),
            nprocs=int(rec["nprocs"]),
            threads=1,
            elapsed=float.fromhex(rec["elapsed"]),
            total_energy=(
                float.fromhex(energy["chip_energy"])
                + float.fromhex(energy["dram_energy"])
            ),
        ))
    return corpus
