"""Chaos battery for the one durable log, run on every view of it.

The harness checkpoint, the prediction corpus and the serve result store
are thin typed views over :class:`repro.store.JsonlLog`.  Each test here
runs against all three: a torn tail costs only the last append, the last
record per key wins, a leftover ``.compact.tmp`` is harmless, a failed
compaction keeps the original file, compaction and first creation fsync
the directory entry, and a non-UTF-8 byte costs one line, never the file.
"""

import os
import stat

import pytest

from repro.harness import checkpoint
from repro.predict.corpus import CorpusSample, PredictionCorpus
from repro.serve.store import ResultStore
from repro.store import JsonlLog

from tests.test_serve_store_chaos import synth_entry, synth_result


class CheckpointView:
    name = "checkpoint"

    def put(self, path, tag, elapsed):
        checkpoint.append_checkpoint(path, f"k{tag}", synth_result(tag, elapsed))

    def load(self, path):
        return {k: r.elapsed for k, r in checkpoint.load_checkpoint(path).items()}

    def rejected(self, path):
        log = JsonlLog(path, checkpoint.CHECKPOINT_SCHEMA)
        log.scan(lambda doc: doc)
        return log.rejected

    def compact(self, path):
        checkpoint.compact(path)


class CorpusView:
    name = "corpus"

    def put(self, path, tag, elapsed):
        PredictionCorpus(path).add(CorpusSample(
            benchmark="lbm", cluster="ClusterA", suite="tiny", nnodes=tag,
            nprocs=72 * tag, threads=1, elapsed=elapsed, total_energy=1e3,
        ))

    def load(self, path):
        return {s.key: s.elapsed for s in PredictionCorpus(path)}

    def rejected(self, path):
        return PredictionCorpus(path).rejected_lines

    def compact(self, path):
        PredictionCorpus(path).compact()


class StoreView:
    name = "store"

    def put(self, path, tag, elapsed):
        ResultStore(path).put(synth_entry(tag, elapsed))

    def load(self, path):
        store = ResultStore(path)
        return {k: store.get(k).result.elapsed for k in store.keys()}

    def rejected(self, path):
        return ResultStore(path).rejected_lines

    def compact(self, path):
        ResultStore(path).compact()


VIEWS = [CheckpointView(), CorpusView(), StoreView()]


@pytest.fixture(params=VIEWS, ids=lambda v: v.name)
def view(request):
    return request.param


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "log.jsonl")


def lines(path):
    with open(path, "rb") as fh:
        return fh.readlines()


def test_torn_tail_loses_only_the_last_append(view, path):
    view.put(path, 1, 1.0)
    view.put(path, 2, 2.0)
    kept = lines(path)
    with open(path, "wb") as fh:
        fh.write(kept[0] + kept[1][: len(kept[1]) // 2])
    assert sorted(view.load(path).values()) == [1.0]
    assert view.rejected(path) == 1
    # recovery: rewrite the lost record, compact to a clean file
    view.put(path, 2, 2.0)
    view.compact(path)
    assert sorted(view.load(path).values()) == [1.0, 2.0]
    assert view.rejected(path) == 0


def test_last_record_wins(view, path):
    view.put(path, 1, 1.0)
    view.put(path, 1, 2.0)
    assert list(view.load(path).values()) == [2.0]
    view.compact(path)
    assert len(lines(path)) == 1
    assert list(view.load(path).values()) == [2.0]


def test_leftover_compact_tmp_is_harmless(view, path):
    view.put(path, 1, 1.0)
    # a crash between writing the temp file and os.replace leaves this
    with open(path + ".compact.tmp", "w") as fh:
        fh.write('{"half a rec')
    assert list(view.load(path).values()) == [1.0]
    view.compact(path)
    assert not os.path.exists(path + ".compact.tmp")
    assert list(view.load(path).values()) == [1.0]


def test_failed_compact_keeps_the_original_file(view, path, monkeypatch):
    for tag in (1, 2, 3):
        view.put(path, tag, float(tag))
    before = lines(path)

    def exploding_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        view.compact(path)
    monkeypatch.undo()
    assert lines(path) == before
    assert sorted(view.load(path).values()) == [1.0, 2.0, 3.0]


def test_non_utf8_byte_costs_one_line(view, path):
    view.put(path, 1, 1.0)
    with open(path, "ab") as fh:
        fh.write(b'{"schema": \xff\xfe}\n')
    view.put(path, 2, 2.0)
    assert sorted(view.load(path).values()) == [1.0, 2.0]
    assert view.rejected(path) == 1
    view.compact(path)
    assert view.rejected(path) == 0
    assert len(lines(path)) == 2


def test_resume_survives_a_non_utf8_byte(path):
    from repro.harness import run_many
    from repro.validate.golden import fingerprint

    from tests.test_executors import _specs

    specs = _specs(2)
    first = run_many(specs, checkpoint=path)
    with open(path, "ab") as fh:
        fh.write(b"\x80\n")
    again = run_many(specs, checkpoint=path)
    assert [fingerprint(r) for r in again] == [fingerprint(r) for r in first]


# ----------------------------------------------------------------------
# directory fsync: after compaction's rename, and on first creation
# ----------------------------------------------------------------------


class FsyncSpy:
    """Records fsync/replace ordering; tells directory fds from files."""

    def __init__(self, monkeypatch):
        self.events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            self.events.append(("fsync", kind))
            return real_fsync(fd)

        def spy_replace(src, dst):
            self.events.append(("replace", None))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)

    def dir_fsync_after_replace(self) -> bool:
        try:
            idx = self.events.index(("replace", None))
        except ValueError:
            return False
        return ("fsync", "dir") in self.events[idx + 1:]


posix_only = pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"),
                                reason="directory fsync is POSIX-only")


@posix_only
def test_compact_fsyncs_directory_after_replace(view, path, monkeypatch):
    view.put(path, 1, 1.0)
    view.put(path, 1, 2.0)
    spy = FsyncSpy(monkeypatch)
    view.compact(path)
    assert spy.dir_fsync_after_replace(), spy.events


@posix_only
def test_first_append_fsyncs_the_directory(view, path, monkeypatch):
    spy = FsyncSpy(monkeypatch)
    view.put(path, 1, 1.0)
    assert spy.events[-2:] == [("fsync", "file"), ("fsync", "dir")]
    spy.events.clear()
    view.put(path, 2, 2.0)
    assert spy.events == [("fsync", "file")]
