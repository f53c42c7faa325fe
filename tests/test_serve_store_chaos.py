"""Chaos battery for the content-addressed result store.

The store's one invariant: **corruption degrades to a cache miss,
never to a wrong answer**.  Whatever happens to the backing file — a
torn tail from a crash mid-append, a truncated or interrupted
compaction, concurrent writers, a stale schema stamp, or a tampered
result — every entry the store *does* return must still reproduce its
recorded golden fingerprint, and everything else must simply miss (the
server then recomputes and rewrites).

The durability properties the store shares with the checkpoint and the
corpus (torn tails, compaction, directory fsyncs) are tested on all
three views in ``tests/test_log_chaos.py``.
"""

import json
import os
import threading

import pytest

from repro.harness.results import RunResult
from repro.perfmon.rapl import EnergyReading
from repro.serve.store import STORE_SCHEMA, ResultStore, StoreEntry

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # optional test dependency
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)


# ----------------------------------------------------------------------
# synthetic results
# ----------------------------------------------------------------------


def synth_result(tag: int, elapsed: float = 1.0) -> RunResult:
    """A small, fully synthetic RunResult that fingerprints cleanly."""
    return RunResult(
        benchmark=f"synthetic-{tag}",
        cluster="A",
        suite="tiny",
        nprocs=2,
        nnodes=1,
        elapsed=elapsed,
        sim_elapsed=elapsed / 2.0,
        step_scale=4.0,
        counters={"flops": 1e9 + tag, "simd_flops": 5e8,
                  "mem_bytes": 1e8, "l2_bytes": 2e8, "l3_bytes": 1.5e8},
        time_by_kind={"compute": 0.8 * elapsed, "MPI_Allreduce": 0.2 * elapsed},
        energy=EnergyReading(elapsed=elapsed, chip_energy=100.0 + tag,
                             dram_energy=10.0, nnodes=1),
        rank_times=({"compute": 0.8 * elapsed, "MPI_Allreduce": 0.2 * elapsed},
                    {"compute": 0.7 * elapsed, "MPI_Allreduce": 0.3 * elapsed}),
    )


def synth_entry(tag: int, elapsed: float = 1.0) -> StoreEntry:
    from repro.validate.golden import fingerprint

    result = synth_result(tag, elapsed)
    return StoreEntry(
        key=f"{tag:064d}",
        spec={"benchmark": result.benchmark, "cluster": "A"},
        result=result,
        fingerprint=fingerprint(result).digest,
    )


def assert_never_wrong(store: ResultStore) -> None:
    """The invariant: every returned entry reproduces its fingerprint."""
    from repro.validate.golden import fingerprint

    for key in store.keys():
        entry = store.get(key)
        assert fingerprint(entry.result).digest == entry.fingerprint


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------


def test_persistence_round_trip(tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = ResultStore(path)
    entries = [synth_entry(i) for i in range(5)]
    for e in entries:
        store.put(e)
    reloaded = ResultStore(path)
    assert len(reloaded) == 5
    assert reloaded.rejected_lines == 0
    for e in entries:
        got = reloaded.get(e.key)
        assert got is not None
        assert got.fingerprint == e.fingerprint
        assert got.result == e.result
    assert_never_wrong(reloaded)


def test_last_record_wins(tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = ResultStore(path)
    first = synth_entry(1, elapsed=1.0)
    second = synth_entry(1, elapsed=2.0)  # same key, newer answer
    store.put(first)
    store.put(second)
    reloaded = ResultStore(path)
    assert reloaded.get(first.key).result.elapsed == 2.0
    assert reloaded.compact() == 1
    assert len(ResultStore(path)) == 1


def test_memory_only_store_compact_noops():
    store = ResultStore(None)
    store.put(synth_entry(1))
    assert store.compact() == 1
    assert store.get(synth_entry(1).key) is not None


# ----------------------------------------------------------------------
# corruption
# ----------------------------------------------------------------------


def test_torn_tail_loses_only_the_last_append(tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = ResultStore(path)
    kept, torn = synth_entry(1), synth_entry(2)
    store.put(kept)
    store.put(torn)
    # crash mid-append: cut the file inside the last record
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.write(lines[0])
        fh.write(lines[1][: len(lines[1]) // 2])
    reloaded = ResultStore(path)
    assert reloaded.get(kept.key) is not None
    assert reloaded.get(torn.key) is None  # a miss, not garbage
    assert reloaded.rejected_lines == 1
    assert_never_wrong(reloaded)
    # the server's recovery: recompute, rewrite, compact to clean
    reloaded.put(torn)
    reloaded.compact()
    final = ResultStore(path)
    assert final.rejected_lines == 0
    assert len(final) == 2


def test_tampered_result_is_discarded_not_served(tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = ResultStore(path)
    honest, tampered = synth_entry(1), synth_entry(2)
    store.put(honest)
    store.put(tampered)
    # bit rot / malice: valid JSON, wrong physics — elapsed edited
    # without updating the fingerprint
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    lines[1]["result"]["elapsed"] = 123.456
    with open(path, "w") as fh:
        for doc in lines:
            fh.write(json.dumps(doc) + "\n")
    reloaded = ResultStore(path)
    assert reloaded.get(honest.key) is not None
    assert reloaded.get(tampered.key) is None
    assert reloaded.rejected_lines == 1
    assert_never_wrong(reloaded)


def test_stale_schema_degrades_to_recompute(tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = ResultStore(path)
    entry = synth_entry(1)
    store.put(entry)
    with open(path) as fh:
        docs = [json.loads(line) for line in fh]
    for doc in docs:
        doc["schema"] = STORE_SCHEMA + 98
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
    reloaded = ResultStore(path)
    assert len(reloaded) == 0  # all records ignored: recompute
    assert reloaded.rejected_lines == 1
    reloaded.put(entry)  # the rewrite wins on the next load
    assert ResultStore(path).get(entry.key) is not None


def test_leftover_compact_tmp_is_harmless(tmp_path):
    path = str(tmp_path / "store.jsonl")
    store = ResultStore(path)
    store.put(synth_entry(1))
    # a crash between writing the temp file and os.replace leaves this
    with open(path + ".compact.tmp", "w") as fh:
        fh.write('{"half a rec')
    reloaded = ResultStore(path)
    assert len(reloaded) == 1
    assert reloaded.compact() == 1
    assert len(ResultStore(path)) == 1


def test_failed_compact_keeps_the_original_file(tmp_path, monkeypatch):
    path = str(tmp_path / "store.jsonl")
    store = ResultStore(path)
    for i in range(3):
        store.put(synth_entry(i))

    def exploding_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        store.compact()
    monkeypatch.undo()
    reloaded = ResultStore(path)
    assert len(reloaded) == 3
    assert reloaded.rejected_lines == 0


def test_concurrent_writers_interleave_safely(tmp_path):
    path = str(tmp_path / "store.jsonl")
    writers = [ResultStore(path) for _ in range(2)]
    per_writer = 8

    def write(widx: int) -> None:
        for i in range(per_writer):
            writers[widx].put(synth_entry(widx * 1000 + i))

    threads = [threading.Thread(target=write, args=(w,)) for w in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    reloaded = ResultStore(path)
    assert len(reloaded) == 2 * per_writer
    assert reloaded.rejected_lines == 0
    assert_never_wrong(reloaded)


@needs_hypothesis
@settings(max_examples=25, deadline=None)
@given(
    tags=st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True),
    garbage=st.binary(min_size=1, max_size=200),
    cut=st.floats(0.0, 1.0),
)
def test_any_tail_garbage_never_yields_a_wrong_answer(
    tmp_path_factory, tags, garbage, cut
):
    """Property: valid appends + arbitrary trailing bytes + an arbitrary
    truncation point -> every surviving entry is verified, every lost
    entry is a miss."""
    tmp = tmp_path_factory.mktemp("chaos")
    path = str(tmp / "store.jsonl")
    store = ResultStore(path)
    entries = [synth_entry(t) for t in tags]
    for e in entries:
        store.put(e)
    with open(path, "ab") as fh:
        fh.write(garbage)
    size = os.path.getsize(path)
    keep = max(0, round(size * cut))
    with open(path, "rb+") as fh:
        fh.truncate(keep)
    reloaded = ResultStore(path)
    assert_never_wrong(reloaded)
    for e in entries:
        got = reloaded.get(e.key)
        if got is not None:  # survived -> must be the exact answer
            assert got.fingerprint == e.fingerprint
            assert got.result == e.result


def test_fsync_dir_handles_relative_paths(tmp_path, monkeypatch):
    from repro.store import fsync_dir

    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.jsonl").write_text("{}\n")
    fsync_dir("file.jsonl")  # must not raise on a bare filename
