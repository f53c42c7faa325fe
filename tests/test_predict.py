"""Tiered prediction: dry-run profiler, analytic tier, corpus,
surrogate, escalation policy, and the harness/CLI integration."""

import os

import pytest

from repro.harness import run, scaling_sweep
from repro.machine import get_cluster
from repro.predict import (
    ANALYTIC_BAND,
    CorpusSample,
    PredictionCorpus,
    PredictionSpec,
    ProfileUnsupported,
    SurrogatePredictionTier,
    corpus_from_golden,
    predict,
    prediction_to_result,
    strong_scaling_eligible,
)
from repro.predict.profile import RecordingComm, sampled_ranks
from repro.spechpc import SUITE_ORDER, get_benchmark

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# --------------------------------------------------------------------------
# profiler
# --------------------------------------------------------------------------

@pytest.mark.parametrize("nprocs", [1, 2, 7, 16, 17, 72, 104, 4608])
def test_sampled_ranks_cover_and_weight(nprocs):
    pairs = sampled_ranks(nprocs)
    ranks = [r for r, _ in pairs]
    assert ranks == sorted(set(ranks))
    assert ranks[0] == 0 and ranks[-1] == nprocs - 1
    assert len(pairs) <= 16
    assert sum(w for _, w in pairs) == nprocs
    assert all(w >= 1 for _, w in pairs)


def test_recording_comm_rejects_unsupported_ops():
    comm = RecordingComm(rank=0, size=4)
    with pytest.raises(ProfileUnsupported):
        comm.irecv(source=-1)
    with pytest.raises(ProfileUnsupported):
        comm.recv(source=-1)
    with pytest.raises(ProfileUnsupported):
        comm.isend(1, 64, payload={"steers": "control flow"})
    with pytest.raises(ProfileUnsupported):
        comm.allreduce_data(1.0)


# --------------------------------------------------------------------------
# analytic tier
# --------------------------------------------------------------------------

def test_analytic_within_stated_band_of_every_golden_case():
    """Tier A's core contract: the calibrated band holds corpus-wide."""
    corpus = corpus_from_golden(GOLDEN_DIR)
    assert len(corpus) == 36
    for s in corpus:
        spec = PredictionSpec(
            benchmark=s.benchmark, cluster=s.cluster, nnodes=s.nnodes,
            suite=s.suite, nprocs=s.nprocs,
        )
        pred = predict(spec, tier="analytic")
        assert pred.band == ANALYTIC_BAND[s.benchmark]
        assert abs(pred.runtime / s.elapsed - 1.0) <= pred.band
        assert abs(pred.energy.total_energy / s.total_energy - 1.0) <= pred.band
        lo, hi = pred.runtime_interval
        assert lo <= s.elapsed <= hi


def test_analytic_phase_split_and_counters():
    pred = predict(PredictionSpec("tealeaf", "A", 1), tier="analytic")
    assert pred.tier == "analytic"
    assert pred.time_by_kind["compute"] > 0
    assert any(k.startswith("MPI_") for k in pred.time_by_kind)
    assert pred.counters["flops"] > 0
    assert pred.counters["messages"] > 0
    assert pred.details["sampled_ranks"] >= 1


def test_analytic_capacity_raised_beyond_cluster_max():
    # the paper grid reaches 64 nodes; ClusterA seeds at 24
    pred = predict(PredictionSpec("lbm", "A", 64), tier="analytic")
    assert pred.energy.nnodes == 64
    one = predict(PredictionSpec("lbm", "A", 1), tier="analytic")
    assert pred.runtime < one.runtime


def test_spec_validation():
    with pytest.raises(ValueError):
        PredictionSpec("lbm", "A", 0)
    with pytest.raises(ValueError):
        predict(PredictionSpec("lbm", "A", 1), tier="psychic")


def test_strong_scaling_eligibility():
    assert strong_scaling_eligible("tealeaf")
    assert not strong_scaling_eligible("soma")       # replicated update
    assert not strong_scaling_eligible("minisweep")  # sweep-chain ripple


# --------------------------------------------------------------------------
# corpus
# --------------------------------------------------------------------------

def _sample(nnodes=1, elapsed=10.0, benchmark="tealeaf"):
    return CorpusSample(
        benchmark=benchmark, cluster="ClusterA", suite="tiny",
        nnodes=nnodes, nprocs=72 * nnodes, threads=1,
        elapsed=elapsed, total_energy=1000.0 * elapsed,
    )


def test_corpus_roundtrip_last_wins_and_corrupt_tail(tmp_path):
    path = str(tmp_path / "corpus.jsonl")
    c = PredictionCorpus(path)
    c.add(_sample(1, 10.0))
    c.add(_sample(4, 3.0))
    c.add(_sample(1, 11.0))          # same key: replaces
    with open(path, "a") as fh:
        fh.write('{"schema": 1, "kind": "sample", "tr')  # killed writer

    reloaded = PredictionCorpus(path)
    assert len(reloaded) == 2
    assert reloaded.get(_sample(1).key).elapsed == 11.0
    assert [s.nnodes for s in reloaded.group(_sample(1).group)] == [1, 4]

    # compact rewrites one line per key, dropping the torn tail
    assert reloaded.compact() == 2
    assert len(open(path).readlines()) == 2
    assert len(PredictionCorpus(path)) == 2


def test_corpus_drops_samples_whose_key_no_longer_matches(tmp_path, monkeypatch):
    import json
    from dataclasses import replace

    from repro.machine import registry

    path = str(tmp_path / "corpus.jsonl")
    c = PredictionCorpus(path)
    c.add(_sample(1))
    c.add(_sample(4))
    # an edited line: the stored key no longer describes the sample
    docs = [json.loads(line) for line in open(path)]
    docs[0]["sample"]["nnodes"] = 2
    with open(path, "w") as fh:
        fh.writelines(json.dumps(d) + "\n" for d in docs)
    reloaded = PredictionCorpus(path)
    assert [s.nnodes for s in reloaded] == [4]
    assert reloaded.rejected_lines == 1
    # the registry machine changed since the samples were simulated
    a = registry.CLUSTER_A
    moved = replace(a, network=replace(a.network, latency=2 * a.network.latency))
    monkeypatch.setitem(registry.CLUSTERS, "ClusterA", moved)
    assert len(PredictionCorpus(path)) == 0


def test_des_tier_trains_only_registry_machines(tmp_path):
    from repro.model.dvfs import apply_frequency
    from repro.machine.registry import CLUSTER_A, get_cluster

    corpus = PredictionCorpus()
    clocked = apply_frequency(CLUSTER_A, 1.6e9)
    zoo = get_cluster("zoo/cascadelake")
    for cluster in (clocked, zoo):
        spec = PredictionSpec("lbm", cluster.name, 1, nprocs=2,
                              cluster_obj=cluster)
        predict(spec, tier="des", corpus=corpus, sim_steps=1)
    assert len(corpus) == 0
    predict(PredictionSpec("lbm", "A", 1, nprocs=2), tier="des",
            corpus=corpus, sim_steps=1)
    assert [s.cluster for s in corpus] == ["ClusterA"]


def test_corpus_from_golden_covers_the_grid():
    corpus = corpus_from_golden(GOLDEN_DIR)
    assert len(corpus) == 36                      # 9 benchmarks x 2 x (1, 4)
    assert len(corpus.groups()) == 18
    names = {s.benchmark for s in corpus}
    assert names == set(SUITE_ORDER)
    for s in corpus:
        assert s.elapsed > 0 and s.total_energy > 0
        assert s.nprocs == s.nnodes * get_cluster(s.cluster).cores_per_node


# --------------------------------------------------------------------------
# surrogate tier
# --------------------------------------------------------------------------

def test_surrogate_exact_at_trained_points():
    corpus = corpus_from_golden(GOLDEN_DIR)
    tier = SurrogatePredictionTier(corpus)
    for s in list(corpus)[:6]:
        pred = tier.predict(PredictionSpec(
            benchmark=s.benchmark, cluster=s.cluster, nnodes=s.nnodes,
            suite=s.suite, nprocs=s.nprocs,
        ))
        assert pred.tier == "surrogate"
        assert pred.details["in_hull"]
        assert pred.runtime == pytest.approx(s.elapsed, rel=1e-9)
        assert pred.energy.total_energy == pytest.approx(
            s.total_energy, rel=1e-9
        )


def test_surrogate_interpolates_between_corpus_points():
    corpus = corpus_from_golden(GOLDEN_DIR)
    tier = SurrogatePredictionTier(corpus)
    pred = tier.predict(PredictionSpec("tealeaf", "A", 2))
    assert pred.details["in_hull"]
    one = next(s for s in corpus
               if s.benchmark == "tealeaf" and s.cluster == "ClusterA"
               and s.nnodes == 1)
    four = next(s for s in corpus
                if s.benchmark == "tealeaf" and s.cluster == "ClusterA"
                and s.nnodes == 4)
    assert four.elapsed < pred.runtime < one.elapsed


def test_surrogate_without_corpus_coverage_degrades_to_analytic():
    pred = predict(
        PredictionSpec("tealeaf", "A", 2), tier="surrogate",
        corpus=PredictionCorpus(),
    )
    assert pred.tier == "analytic"
    assert pred.details["fallback"] == "analytic"


# --------------------------------------------------------------------------
# escalation policy
# --------------------------------------------------------------------------

def test_auto_takes_surrogate_in_hull():
    corpus = corpus_from_golden(GOLDEN_DIR)
    pred = predict(PredictionSpec("tealeaf", "A", 2), tier="auto",
                   corpus=corpus, allow_des=False)
    assert pred.tier == "surrogate"


def test_auto_out_of_hull_falls_back_without_des():
    corpus = corpus_from_golden(GOLDEN_DIR)
    pred = predict(PredictionSpec("tealeaf", "A", 16), tier="auto",
                   corpus=corpus, allow_des=False)
    assert pred.tier == "analytic"
    assert pred.details["fallback"] == "analytic"


def test_auto_escalates_to_des_and_feeds_corpus():
    corpus = PredictionCorpus()
    spec = PredictionSpec("tealeaf", "A", 1)
    first = predict(spec, tier="auto", corpus=corpus, sim_steps=2)
    assert first.tier == "des" and first.band == 0.0
    assert len(corpus) == 1
    predict(PredictionSpec("tealeaf", "A", 2), tier="auto", corpus=corpus,
            sim_steps=2)
    assert len(corpus) == 2
    # the fed corpus now answers the original query by interpolation
    again = predict(spec, tier="auto", corpus=corpus, allow_des=False)
    assert again.tier == "surrogate"
    assert again.runtime == pytest.approx(first.runtime, rel=1e-9)


def test_des_tier_matches_the_runner():
    bench = get_benchmark("lbm")
    cluster = get_cluster("A")
    reference = run(bench, cluster, cluster.cores_per_node, sim_steps=2)
    pred = predict(PredictionSpec("lbm", "A", 1), tier="des", sim_steps=2)
    assert pred.runtime == reference.elapsed
    assert pred.energy.total_energy == reference.energy.total_energy


def test_prediction_to_result_roundtrip():
    pred = predict(PredictionSpec("tealeaf", "B", 2), tier="analytic")
    result = prediction_to_result(pred)
    cluster = get_cluster("B")
    assert result.nprocs == 2 * cluster.cores_per_node
    assert result.elapsed == pred.runtime
    assert result.energy.total_energy == pred.energy.total_energy
    assert result.meta["tier"] == "analytic"
    assert result.meta["band"] == pred.band
    assert result.step_scale > 1.0


# --------------------------------------------------------------------------
# harness integration
# --------------------------------------------------------------------------

def test_scaling_sweep_analytic_tier():
    cluster = get_cluster("A")
    series = scaling_sweep(
        get_benchmark("tealeaf"), cluster,
        [4, cluster.cores_per_node], tier="analytic", repeats=2,
    )
    assert [p.nprocs for p in series.points] == [4, cluster.cores_per_node]
    for p in series.points:
        assert len(p.runs) == 2
        assert all(r.meta["tier"] == "analytic" for r in p.runs)
        assert p.runs[0].elapsed == p.runs[1].elapsed
    assert series.points[0].runs[1].meta["seed"] == 4001


def test_scaling_sweep_auto_feeds_shared_corpus():
    cluster = get_cluster("A")
    corpus = PredictionCorpus()
    first = scaling_sweep(
        get_benchmark("tealeaf"), cluster, [4, 8],
        tier="auto", corpus=corpus, sim_steps=2,
    )
    assert all(p.runs[0].meta["tier"] == "des" for p in first.points)
    assert len(corpus) == 2
    rerun = scaling_sweep(
        get_benchmark("tealeaf"), cluster, [4, 8],
        tier="auto", corpus=corpus, sim_steps=2,
    )
    assert all(p.runs[0].meta["tier"] == "surrogate" for p in rerun.points)
    assert rerun.points[0].runs[0].elapsed == pytest.approx(
        first.points[0].runs[0].elapsed, rel=1e-9
    )


def test_scaling_sweep_des_tier_is_the_default_engine_path():
    cluster = get_cluster("A")
    bench = get_benchmark("lbm")
    tiered = scaling_sweep(bench, cluster, [4], tier="des", sim_steps=2)
    legacy = scaling_sweep(bench, cluster, [4], sim_steps=2)
    assert tiered.points[0].runs[0].elapsed == legacy.points[0].runs[0].elapsed
    assert "tier" not in legacy.points[0].runs[0].meta


# --------------------------------------------------------------------------
# the differential (simulation-free subset; CI runs the full one)
# --------------------------------------------------------------------------

def test_prediction_differential_cheap_subset():
    from repro.validate import prediction_differential

    failures = prediction_differential(
        GOLDEN_DIR, benchmarks=("tealeaf", "lbm"), holdout_scales=(),
    )
    assert failures == []
