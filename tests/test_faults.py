"""Fault-injection subsystem: plans, the injector, and end-to-end runs.

Covers the acceptance bar of the robustness work: an empty plan is
bit-identical to no plan at all, a slow rank skews its peers' collective
wait (the paper's lbm barrier phenomenon), link and noise faults slow
communication/compute monotonically, and planned crashes surface as
structured errors — never silent hangs.
"""

import pytest

from repro.des import DeadlockError
from repro.faults import (
    DegradedLink,
    FaultInjector,
    FaultPlan,
    OsNoise,
    RankCrash,
    SlowRank,
)
from repro.harness import run
from repro.machine import CLUSTER_A
from repro.model.execution import ExecutionModel
from repro.smpi import MpiRuntime
from repro.smpi.diagnostics import RankCrashedError
from repro.spechpc import all_benchmarks, get_benchmark
from repro.spechpc.base import RunContext

ALL_NAMES = [b.name for b in all_benchmarks()]


# --- plan validation and (de)serialization ----------------------------------


def test_plan_json_round_trip():
    plan = FaultPlan(
        slow_ranks=(SlowRank(rank=2, factor=3.0, t_start=1.0, t_end=9.0),),
        os_noise=(OsNoise(period=0.01, duration=0.001, factor=50.0, rank=1),),
        links=(DegradedLink(src_node=0, dst_node=1, bandwidth_factor=0.25,
                            latency_factor=4.0, extra_latency=1e-6),),
        crashes=(RankCrash(rank=3, time=5.0),),
    )
    clone = FaultPlan.from_json(plan.to_json())
    assert clone == plan
    assert not clone.empty
    assert FaultPlan().empty
    assert FaultPlan.from_dict({}).empty


def test_plan_rejects_bad_values():
    with pytest.raises(ValueError):
        SlowRank(rank=0, factor=0.5)  # speedups are not faults
    with pytest.raises(ValueError):
        OsNoise(period=1.0, duration=2.0, factor=10.0)  # duration > period
    with pytest.raises(ValueError):
        DegradedLink(bandwidth_factor=0.0)
    with pytest.raises(ValueError):
        FaultPlan(crashes=(RankCrash(0, 1.0), RankCrash(0, 2.0)))
    with pytest.raises(ValueError):
        FaultPlan.from_dict({"tyops": []})
    with pytest.raises(ValueError):
        FaultPlan.from_dict({"slow_ranks": [{"rnk": 1, "factor": 2.0}]})


def test_plan_validates_rank_bounds():
    plan = FaultPlan(slow_ranks=(SlowRank(rank=7, factor=2.0),))
    plan.validate_for(8)
    with pytest.raises(ValueError, match="rank 7"):
        plan.validate_for(4)
    with pytest.raises(ValueError, match="rank 7"):
        run(get_benchmark("lbm"), CLUSTER_A, 4, sim_steps=1, faults=plan)


# --- injector math ----------------------------------------------------------


def test_compute_seconds_piecewise_integration():
    plan = FaultPlan(slow_ranks=(SlowRank(rank=0, factor=4.0, t_start=2.0,
                                          t_end=6.0),))
    inj = FaultInjector(plan)
    # entirely before the window: untouched
    assert inj.compute_seconds(0, 0.0, 1.0) == 1.0
    # entirely inside: stretched by the factor
    assert inj.compute_seconds(0, 3.0, 0.5) == pytest.approx(2.0)
    # straddling the start: 2s clean + remaining 1s at 4x
    assert inj.compute_seconds(0, 0.0, 3.0) == pytest.approx(2.0 + 4.0)
    # other ranks: untouched
    assert inj.compute_seconds(1, 3.0, 1.0) == 1.0


def test_os_noise_bursts_are_periodic():
    plan = FaultPlan(os_noise=(OsNoise(period=1.0, duration=0.25, factor=3.0),))
    inj = FaultInjector(plan)
    # from t=0: burst [0,0.25) at 3x progresses 1/12 of the work, the gap
    # [0.25,1.0) progresses 3/4, burst [1.0,1.25) another 1/12, and the
    # remaining 1/12 finishes clean -> 4/3 s wall in total
    assert inj.compute_seconds(0, 0.0, 1.0) == pytest.approx(4.0 / 3.0)
    # starting mid-gap, a short phase finishes before the next burst
    assert inj.compute_seconds(0, 0.5, 0.25) == pytest.approx(0.25)


def test_degraded_link_prices_worse_than_clean():
    net = CLUSTER_A.network
    plan = FaultPlan(links=(DegradedLink(src_node=0, dst_node=1,
                                         bandwidth_factor=0.5,
                                         latency_factor=2.0),))
    inj = FaultInjector(plan)
    clean = net.transfer_time(1 << 20, intra_node=False)
    faulty = inj.transfer_time(net, 0, 1, 1 << 20, intra=False, now=0.0)
    assert faulty > clean
    # symmetric by default; unrelated paths stay clean
    assert inj.transfer_time(net, 1, 0, 1 << 20, intra=False, now=0.0) == faulty
    assert inj.transfer_time(net, 2, 3, 1 << 20, intra=False, now=0.0) == (
        pytest.approx(clean)
    )


# --- bit-identity of the empty plan ----------------------------------------


@pytest.mark.parametrize("bench", ALL_NAMES)
def test_empty_plan_is_bit_identical(bench):
    b = get_benchmark(bench)
    clean = run(b, CLUSTER_A, 4, sim_steps=2)
    empty = run(b, CLUSTER_A, 4, sim_steps=2, faults=FaultPlan())
    assert empty.elapsed == clean.elapsed
    assert empty.counters == clean.counters
    assert empty.time_by_kind == clean.time_by_kind
    assert empty.energy == clean.energy


# --- the paper's slow-rank phenomenon on lbm --------------------------------


def _launch_lbm(nprocs, faults=None, sim_steps=2):
    bench = get_benchmark("lbm")
    ctx = RunContext(
        cluster=CLUSTER_A,
        nprocs=nprocs,
        workload=bench.workload("tiny"),
        exec_model=ExecutionModel(CLUSTER_A.node.cpu),
        sim_steps=sim_steps,
    )
    injector = None if faults is None else FaultInjector(faults, nprocs)
    rt = MpiRuntime(CLUSTER_A, nprocs, faults=injector)
    ctx.runtime = rt
    return rt.launch(bench.make_body(ctx))


def test_slow_rank_inflates_peer_barrier_wait_on_lbm():
    """One throttled rank makes every *other* rank wait at the barrier —
    the skew mechanism behind the paper's lbm MPI_Barrier share."""
    nprocs = 8
    plan = FaultPlan(slow_ranks=(SlowRank(rank=0, factor=4.0),))
    clean = _launch_lbm(nprocs)
    faulty = _launch_lbm(nprocs, faults=plan)
    assert faulty.elapsed > clean.elapsed
    for rank in range(1, nprocs):
        clean_wait = clean.stats[rank].time_by_kind.get("MPI_Barrier", 0.0)
        faulty_wait = faulty.stats[rank].time_by_kind.get("MPI_Barrier", 0.0)
        assert faulty_wait > clean_wait, f"rank {rank} barrier wait not inflated"


def test_slow_rank_inflates_job_elapsed_via_run():
    plan = FaultPlan(slow_ranks=(SlowRank(rank=0, factor=3.0),))
    clean = run(get_benchmark("lbm"), CLUSTER_A, 4, sim_steps=2)
    faulty = run(get_benchmark("lbm"), CLUSTER_A, 4, sim_steps=2, faults=plan)
    assert faulty.elapsed > 1.5 * clean.elapsed
    assert faulty.mpi_fraction > clean.mpi_fraction
    # counters stay nominal: the work done is the same, only slower
    assert faulty.counters["flops"] == clean.counters["flops"]


# --- chaos: every benchmark survives a seeded multi-fault plan --------------


CHAOS_PLAN = FaultPlan(
    slow_ranks=(SlowRank(rank=1, factor=2.5, t_start=0.0),),
    os_noise=(OsNoise(period=0.5, duration=0.05, factor=8.0),),
    links=(DegradedLink(bandwidth_factor=0.5, latency_factor=3.0,
                        extra_latency=2e-6),),
)


@pytest.mark.parametrize("bench", ALL_NAMES)
def test_chaos_plan_slows_every_benchmark_without_hanging(bench):
    """Slow rank + OS noise + degraded links: each benchmark still runs
    to completion (under a generous event budget, so a regression hangs
    the test instead of the suite) and only ever gets slower."""
    b = get_benchmark(bench)
    clean = run(b, CLUSTER_A, 4, sim_steps=2)
    chaotic = run(b, CLUSTER_A, 4, sim_steps=2, faults=CHAOS_PLAN,
                  max_events=5_000_000)
    assert chaotic.elapsed >= clean.elapsed
    assert chaotic.counters["flops"] == clean.counters["flops"]


# --- crashes ----------------------------------------------------------------


def test_rank_crash_deadlocks_peers_with_diagnosis():
    plan = FaultPlan(crashes=(RankCrash(rank=1, time=0.0),))
    with pytest.raises((DeadlockError, RankCrashedError)) as excinfo:
        run(get_benchmark("lbm"), CLUSTER_A, 4, sim_steps=2, faults=plan)
    msg = str(excinfo.value)
    assert "CRASHED" in msg or "crashed" in msg


def test_crash_after_completion_still_fails_the_job():
    # crash far in the future: the job's survivors finish first, but MPI
    # semantics say a lost rank fails the job
    plan = FaultPlan(crashes=(RankCrash(rank=0, time=1e-9),))

    def body(comm):
        yield comm.compute(1.0)

    rt = MpiRuntime(CLUSTER_A, 2, faults=FaultInjector(plan, 2))
    with pytest.raises(RankCrashedError, match="rank 0"):
        rt.launch(body)


# --- fingerprint-level fault regression (validation subsystem) --------------


def test_degraded_link_moves_only_wait_components():
    """A communication fault must show up *only* where communication is
    accounted: per-rank compute (and all counters) are bit-identical to
    the clean run, MPI wait components grow, the makespan grows, and the
    replay declines (faults force full fidelity)."""
    from repro.validate.golden import canonical_record

    plan = FaultPlan(
        links=(DegradedLink(bandwidth_factor=0.25, extra_latency=5e-6),)
    )
    bench = get_benchmark("minisweep")
    clean = run(bench, CLUSTER_A, 4, sim_steps=4)
    faulty = run(bench, CLUSTER_A, 4, sim_steps=4, faults=plan)

    rec_clean = canonical_record(clean)
    rec_faulty = canonical_record(faulty)

    assert rec_faulty["rank_compute"] == rec_clean["rank_compute"]
    assert rec_faulty["counters"] == rec_clean["counters"]
    assert rec_faulty["rank_wait"] != rec_clean["rank_wait"]
    assert faulty.elapsed > clean.elapsed
    assert faulty.mpi_time > clean.mpi_time
    assert faulty.meta["wavefront"] is False

    # every per-rank difference is confined to MPI_* kinds
    for per_clean, per_faulty in zip(clean.rank_times, faulty.rank_times):
        for kind in set(per_clean) | set(per_faulty):
            if not kind.startswith("MPI_"):
                assert per_faulty.get(kind, 0.0) == per_clean.get(kind, 0.0)


def test_empty_fault_plan_is_fingerprint_identical():
    """FaultPlan() must be indistinguishable from no plan at the
    fingerprint level — the strongest equality the repo can express."""
    from repro.validate.golden import fingerprint

    bench = get_benchmark("tealeaf")
    no_plan = run(bench, CLUSTER_A, 4, sim_steps=4)
    empty_plan = run(bench, CLUSTER_A, 4, sim_steps=4, faults=FaultPlan())
    assert fingerprint(no_plan) == fingerprint(empty_plan)
