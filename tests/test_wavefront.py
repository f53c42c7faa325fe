"""Tests for replay by level-set DAG (precomputed dependency DAG
with vectorized level-set replay, :mod:`repro.spechpc.wavefront`).

Four layers of evidence:

* a hand-computed 3-rank DAG whose level-set clocks are derived inline
  with the engine's documented arithmetic and compared to the bit;
* property-based minisweep configurations (rank count => chain length,
  block count, send/recv ordering) that must be fingerprint-identical
  with the tier on and off;
* eligibility: anything that perturbs or observes individual steps
  declines the tier, with the decline reason surfaced as a metric;
* the golden-corpus grid replayed on the default path against the
  full-fidelity reference.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, SlowRank
from repro.harness import run
from repro.machine import CLUSTER_A
from repro.machine.registry import get_cluster
from repro.spechpc import get_benchmark
from repro.spechpc.fastforward import Replayer, ReplayUnsupported
from repro.spechpc.minisweep import Minisweep
from repro.spechpc.wavefront import WavefrontProgram
from repro.validate.golden import fingerprint, golden_cases


# --------------------------------------------------------------------------
# hand-computed level-set replay
# --------------------------------------------------------------------------

# a 3-rank pipeline exercising every wait shape: an eager send 0 -> 1, a
# rendezvous send 1 -> 2, and a closing full-communicator collective
E_XF, E_OV = 0.5, 0.125                              # eager: transfer, overhead
R_RTS, R_HS, R_LAT, R_XF, R_OV = 0.03125, 0.0625, 0.03125, 2.0, 0.125
C0, C1, C2 = 1.0, 2.0, 0.5                           # compute seconds
COLL_COST = 0.25

_JOURNALS = [
    [  # rank 0: compute, eager send to 1, wait, collective
        ("compute", C0, 10.0, 5.0, 100.0, 50.0, 25.0, 0.9, 0.8, 0.7),
        ("isend", 11, 1, 0, 4096, ("e", E_XF, E_OV)),
        ("wait", 11, "MPI_Wait"),
        ("coll", "MPI_Allreduce", 0, COLL_COST, 8.0),
    ],
    [  # rank 1: recv from 0, compute, rendezvous send to 2, collective
        ("irecv", 21, 0, 0),
        ("compute", C1, 20.0, 9.0, 200.0, 80.0, 40.0, 1.8, 1.7, 1.6),
        ("wait", 21, "MPI_Recv"),
        ("isend", 22, 2, 0, 65536, ("r", R_RTS, R_HS, R_LAT, R_XF, R_OV)),
        ("wait", 22, "MPI_Wait"),
        ("coll", "MPI_Allreduce", 0, COLL_COST, 8.0),
    ],
    [  # rank 2: recv from 1, compute, collective
        ("irecv", 31, 1, 0),
        ("compute", C2, 5.0, 2.0, 50.0, 20.0, 10.0, 0.45, 0.4, 0.35),
        ("wait", 31, "MPI_Recv"),
        ("coll", "MPI_Allreduce", 0, COLL_COST, 8.0),
    ],
]


def _ws(t: float, fire: float, fin: float) -> float:
    """The engine's ``_wait_step``: resume at the fire time, then pay
    the remaining completion delta — written out so the expected values
    below share no code with the module under test."""
    resume = fire if fire > t else t
    return resume + (fin - resume) if fin > resume else resume


def _hand_step(t0: float, t1: float, t2: float) -> list[float]:
    """One step of the pipeline above, computed scalar-by-scalar with
    the engine's exact expressions (left-associated sums, max-then-add
    — never precomputed path weights)."""
    # rank 0: compute, post the eager send (arrival = post + transfer),
    # wait completes locally at post + overhead
    a = t0 + C0
    arr0 = a + E_XF
    t0 = _ws(a, a, a + E_OV)

    # rank 1: the receive posts at its own clock *before* computing;
    # the wait starts at max(post, arrival) and costs the sender overhead
    post1 = t1
    b = t1 + C1
    start = post1 if post1 > arr0 else arr0
    t1 = _ws(b, start, start + E_OV)
    # rendezvous send to rank 2: posts now, RTS arrives after the wire
    # latency; completion needs rank 2's receive post
    arr1 = t1 + R_RTS

    # rank 2 posts its receive at its own clock, then computes
    post2 = t2
    d = t2 + C2

    # both rendezvous halves complete at the same left-associated sum
    start_r = post2 if post2 > arr1 else arr1
    fin_r = start_r + R_HS + R_LAT + R_XF + R_OV
    t1 = _ws(t1, start_r, fin_r)
    t2 = _ws(d, start_r, fin_r)

    # the collective gate fires at the last arrival, costs the max cost
    t_fire = max(t0, t1, t2)
    finish = t_fire + COLL_COST
    return [_ws(t0, t_fire, finish), _ws(t1, t_fire, finish),
            _ws(t2, t_fire, finish)]


def test_hand_computed_dag_bitwise():
    """Four steps from skewed start clocks: the vectorized level-set
    program must land on the hand-derived clocks to the bit, and the
    scalar replayer must agree."""
    prog = WavefrontProgram.compile(_JOURNALS, 3)
    t_start = [0.0, 0.375, 0.8125]

    expected = list(t_start)
    for _ in range(4):
        expected = _hand_step(*expected)

    assert prog.run(t_start, 4) == expected
    assert Replayer(_JOURNALS, 3).run(t_start, 4) == expected


def test_hand_computed_dag_levels():
    """The leveling is the hand-derived antidiagonal schedule: rank 1's
    rendezvous wait levels after rank 2's receive post, the gate one
    past the deepest arrival."""
    prog = WavefrontProgram.compile(_JOURNALS, 3)
    assert prog.nlevels == 6
    assert prog.total_ops == sum(len(ops) for ops in _JOURNALS)


def test_compile_rejects_unbalanced_channels():
    """A send whose matching receive is missing within the step means
    the FIFO pairing would cross the step boundary — the tier declines
    at compile time rather than replaying a lie."""
    journals = [
        [("isend", 1, 1, 0, 64, ("e", 0.1, 0.01)), ("wait", 1, "MPI_Wait")],
        [("compute", 1.0, 0, 0, 0, 0, 0, 0, 0, 0)],
    ]
    with pytest.raises(ReplayUnsupported, match="cross"):
        WavefrontProgram.compile(journals, 2)


def test_compile_rejects_cyclic_structure():
    """Two ranks each waiting on the other's un-postable receive stall
    the work list: compile must raise, not loop."""
    journals = [
        [
            ("irecv", 1, 1, 0),
            ("wait", 1, "MPI_Recv"),
            ("isend", 2, 1, 0, 64, ("e", 0.1, 0.01)),
            ("wait", 2, "MPI_Wait"),
        ],
        [
            ("irecv", 1, 0, 0),
            ("wait", 1, "MPI_Recv"),
            ("isend", 2, 0, 0, 64, ("e", 0.1, 0.01)),
            ("wait", 2, "MPI_Wait"),
        ],
    ]
    with pytest.raises(ReplayUnsupported, match="cyclic|stall"):
        WavefrontProgram.compile(journals, 2)


# --------------------------------------------------------------------------
# property-based: minisweep configurations, tier on vs. off
# --------------------------------------------------------------------------


def _minisweep(blocks: int, recv_first: bool) -> Minisweep:
    bench = Minisweep(recv_first=recv_first)
    tiny = Minisweep.workloads["tiny"]
    bench.workloads = {
        "tiny": replace(tiny, params={**tiny.params, "blocks": blocks})
    }
    return bench


@settings(max_examples=10, deadline=None)
@given(
    nprocs=st.integers(min_value=2, max_value=10),
    blocks=st.sampled_from([1, 2, 4]),
    recv_first=st.booleans(),
)
def test_minisweep_configs_fingerprint_identical(nprocs, blocks, recv_first):
    """Random rank counts (=> chain lengths via the decomposition),
    block counts, and send/recv orderings: the wavefront tier engages
    and reproduces the full-fidelity reference fingerprint exactly."""
    on = run(_minisweep(blocks, recv_first), CLUSTER_A, nprocs, sim_steps=6)
    off = run(
        _minisweep(blocks, recv_first), CLUSTER_A, nprocs, sim_steps=6,
        wavefront=False, matcher="linear", memoize=False,
    )
    assert on.meta["wavefront"] is True
    assert off.meta["wavefront"] is False
    assert fingerprint(on) == fingerprint(off)


# --------------------------------------------------------------------------
# eligibility
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("kwargs", "code"),
    [
        (dict(noise_sigma=0.02), "noise"),
        (dict(faults=FaultPlan(slow_ranks=(SlowRank(rank=1, factor=2.0),))),
         "faults"),
        (dict(trace=True), "tracing"),
        (dict(memoize=False), "nomemo"),
        (dict(sim_steps=4), "steps"),
        (dict(wavefront=False), "disabled"),
    ],
    ids=["noise", "faults", "tracing", "no-memoize", "short", "disabled"],
)
def test_wavefront_declines(kwargs, code):
    """Perturbing or observing individual steps forces full fidelity;
    the decline reason is surfaced as a ``wavefront.declined.<code>``
    metric for ``repro sweep --metrics``."""
    kwargs.setdefault("sim_steps", 6)
    r = run(get_benchmark("minisweep"), CLUSTER_A, 8, **kwargs)
    assert r.meta["wavefront"] is False
    assert r.meta["metrics"]["wavefront"] == {f"declined.{code}": 1.0}


def test_rank_past_park_before_decision_declines():
    """Weather's open halo chain on ClusterB at 16 ranks lets the edge
    rank finish the DECIDE -> PARK step before the slowest rank reaches
    DECIDE.  Parking the others would strand that rank in a deadlock;
    replay declines instead and the run lands on the full-stepping
    result."""
    bench, cluster = get_benchmark("weather"), get_cluster("B")
    r = run(bench, cluster, 16, sim_steps=8)
    ref = run(bench, cluster, 16, sim_steps=8, wavefront=False)
    assert r.meta["metrics"]["wavefront"] == {"declined.skew": 1.0}
    assert fingerprint(r) == fingerprint(ref)


def test_wavefront_engaged_metrics():
    """An engaged run reports eligibility, the DAG depth, and the event
    count the level-set replay avoided."""
    r = run(get_benchmark("minisweep"), CLUSTER_A, 8, sim_steps=8)
    assert r.meta["wavefront"] is True
    wf = r.meta["metrics"]["wavefront"]
    assert wf["eligible"] == 1.0
    assert wf["levels"] > 0
    assert wf["events_saved"] > 0


# --------------------------------------------------------------------------
# golden corpus on the default path
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case", list(golden_cases(scales=(1,))), ids=lambda c: c.slug
)
def test_golden_corpus_tier_forced_on(case):
    """Every corpus benchmark on both clusters: the level-set DAG alone
    carries the run — collective-closed or not — and lands bit-identical
    to the full-fidelity reference."""
    bench = get_benchmark(case.benchmark)
    cluster = get_cluster(case.cluster)
    ref = run(bench, cluster, case.nprocs, sim_steps=8, wavefront=False)
    forced = run(bench, cluster, case.nprocs, sim_steps=8)
    assert forced.meta["wavefront"] is True
    assert ref.meta["wavefront"] is False
    assert fingerprint(forced) == fingerprint(ref)
