"""Differential tests for the paper-scale engine optimizations.

Every fast path added for paper-scale runs (indexed message matching,
virtual-clock bandwidth sharing, steady-state fast-forward, streaming
trace aggregation) ships with a reference mode; these tests drive both
implementations through the same randomized or benchmark workloads and
demand equivalent behavior — bitwise-equal where the contract is
bitwise (matching order, fast-forward statistics), order/value-equal
where the schedulers use different but equivalent arithmetic.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Simulator
from repro.des.resources import BandwidthResource
from repro.faults.plan import FaultPlan, SlowRank
from repro.harness import run
from repro.machine import CLUSTER_A
from repro.perfmon.trace import TraceCollector
from repro.smpi.mailbox import ANY_SOURCE, ANY_TAG, Mailbox, SendArrival
from repro.spechpc import get_benchmark


# --------------------------------------------------------------------------
# indexed vs. linear message matching
# --------------------------------------------------------------------------

# op: (is_post, src, tag) — src/tag -1 on a post means wildcard
_ops = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=-1, max_value=3),
        st.integers(min_value=-1, max_value=2),
    ),
    min_size=1,
    max_size=60,
)


def _drive(indexed: bool, ops) -> list:
    """Run one op sequence through a mailbox; return the match trace."""
    box = Mailbox(rank=0, indexed=indexed)
    trace = []
    for i, (is_post, src, tag) in enumerate(ops):
        if is_post:
            arr, _post = box.post_recv(src, tag, now=float(i))
            trace.append(("post", i, None if arr is None else arr.nbytes))
        else:
            # arrivals always carry a concrete source and tag
            arrival = SendArrival(
                src=max(src, 0), tag=max(tag, 0), nbytes=i,
                arrival_time=float(i), rendezvous=False, intra_node=True,
            )
            post = box.deliver(arrival)
            trace.append(
                ("deliver", i, None if post is None else post.posted_time)
            )
    trace.append(("left-arr", [a.nbytes for a in box.iter_arrivals()]))
    trace.append(("left-post", [p.posted_time for p in box.iter_posts()]))
    trace.append(("pending", box.pending_arrivals, box.pending_posts))
    return trace


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_indexed_matcher_equals_linear_scan(ops):
    """Identical match pairs, in identical order, for any interleaving of
    posts (incl. ANY_SOURCE/ANY_TAG) and arrivals."""
    assert _drive(True, ops) == _drive(False, ops)


def test_wildcard_picks_earliest_arrival_across_keys():
    """A wildcard receive must take the earliest-stamped arrival even when
    several per-key queues are non-empty (the indexed matcher's scan)."""
    ops = [
        (False, 2, 1),           # arrival #0
        (False, 0, 0),           # arrival #1
        (False, 2, 1),           # arrival #2
        (True, ANY_SOURCE, ANY_TAG),   # must match arrival #0
        (True, ANY_SOURCE, 0),         # must match arrival #1
        (True, 2, ANY_TAG),            # must match arrival #2
    ]
    trace = _drive(True, ops)
    assert trace[3] == ("post", 3, 0)
    assert trace[4] == ("post", 4, 1)
    assert trace[5] == ("post", 5, 2)
    assert trace == _drive(False, ops)


def test_wildcard_posts_compete_by_stamp_order():
    """An arrival matching both a wildcard and an exact post must take the
    earlier-posted one, whichever shape it is."""
    ops = [
        (True, ANY_SOURCE, ANY_TAG),   # post @ t=0
        (True, 1, 0),                  # post @ t=1
        (False, 1, 0),                 # matches the wildcard (older stamp)
        (False, 1, 0),                 # then the exact post
    ]
    trace = _drive(True, ops)
    assert trace[2] == ("deliver", 2, 0.0)
    assert trace[3] == ("deliver", 3, 1.0)
    assert trace == _drive(False, ops)


# --------------------------------------------------------------------------
# virtual-clock vs. reference bandwidth sharing
# --------------------------------------------------------------------------

_flows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),    # start delay
        st.floats(min_value=0.1, max_value=100.0),  # amount
    ),
    min_size=1,
    max_size=12,
)


def _share(scheduler: str, flows) -> list[tuple[int, float]]:
    """Finish (flow_index, time) pairs in completion order."""
    sim = Simulator()
    res = BandwidthResource(sim, capacity=10.0, scheduler=scheduler)
    finished: list[tuple[int, float]] = []

    def user(i, start, amount):
        from repro.des import Delay

        if start > 0:
            yield Delay(start)
        yield res.transfer(amount)
        finished.append((i, sim.now))

    for i, (start, amount) in enumerate(flows):
        sim.spawn(f"flow{i}", user(i, start, amount))
    sim.run()
    return finished


@settings(max_examples=150, deadline=None)
@given(_flows)
def test_virtual_clock_matches_reference_sharing(flows):
    """Same completion order and (to float noise) same completion times
    for arbitrary overlapping flow sets."""
    vc = _share("virtual-clock", flows)
    ref = _share("reference", flows)
    assert [i for i, _ in vc] == [i for i, _ in ref]
    for (_, t_vc), (_, t_ref) in zip(vc, ref):
        assert math.isclose(t_vc, t_ref, rel_tol=1e-9, abs_tol=1e-9)


def test_bandwidth_epoch_guard_ignores_stale_callbacks():
    """A rebalance between scheduling and firing a completion must void
    the stale callback (epoch token, not float time comparison)."""
    sim = Simulator()
    res = BandwidthResource(sim, capacity=1.0)
    done = []

    def first():
        yield res.transfer(1.0)
        done.append(("first", sim.now))

    def second():
        from repro.des import Delay

        yield Delay(0.5)           # rebalances mid-flight of ``first``
        yield res.transfer(1.0)
        done.append(("second", sim.now))

    sim.spawn("a", first())
    sim.spawn("b", second())
    sim.run()
    # fair sharing: first gets 0.5 exclusive + shares until 1.5, second
    # finishes its remaining 0.5 exclusively at 2.0
    assert done[0][0] == "first" and math.isclose(done[0][1], 1.5)
    assert done[1][0] == "second" and math.isclose(done[1][1], 2.0)


# --------------------------------------------------------------------------
# steady-state fast-forward
# --------------------------------------------------------------------------

_REF = dict(wavefront=False, matcher="linear", fast_path=False, memoize=False)


def _fields(r):
    return (r.elapsed, r.sim_elapsed, r.counters, r.time_by_kind, r.energy)


@pytest.mark.parametrize("name", ["lbm", "tealeaf", "cloverleaf"])
def test_fast_forward_engages_bit_identical(name):
    bench = get_benchmark(name)
    fast = run(bench, CLUSTER_A, 24, sim_steps=10)
    ref = run(bench, CLUSTER_A, 24, sim_steps=10, **_REF)
    assert fast.meta["wavefront"] is True
    assert ref.meta["wavefront"] is False
    assert _fields(fast) == _fields(ref)


def test_fast_forward_ineligible_structure_falls_back():
    """minisweep has no collective, so step boundaries never synchronize:
    the level-set replay still engages on that structure and lands
    bit-identical to full stepping."""
    bench = get_benchmark("minisweep")
    ref = run(bench, CLUSTER_A, 12, sim_steps=6, **_REF)
    wf = run(bench, CLUSTER_A, 12, sim_steps=6)
    assert wf.meta["wavefront"] is True
    assert _fields(wf) == _fields(ref)


@pytest.mark.parametrize(
    "flags",
    [
        dict(wavefront=False),
        dict(matcher="linear"),
        dict(fast_path=False),
        dict(memoize=False),
    ],
    ids=lambda f: next(iter(f)),
)
def test_reference_flags_independently_bit_identical(flags):
    """Each reference flag alone restores the old code path and must not
    change a single bit of the result."""
    bench = get_benchmark("lbm")
    fast = run(bench, CLUSTER_A, 24, sim_steps=10)
    ref = run(bench, CLUSTER_A, 24, sim_steps=10, **flags)
    assert fast.meta["wavefront"] is True
    if "wavefront" in flags:
        assert ref.meta["wavefront"] is False  # full stepping, no replay
    assert _fields(fast) == _fields(ref)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(noise_sigma=0.02),
        dict(trace=True),
        dict(trace="streaming"),
        dict(memoize=False),
        dict(sim_steps=4),
        dict(faults=FaultPlan(slow_ranks=(SlowRank(rank=1, factor=2.0),))),
    ],
    ids=["noise", "trace", "streaming-trace", "no-memoize", "short", "faults"],
)
def test_fast_forward_forced_off(kwargs):
    """Anything that perturbs or observes individual steps forces full
    event-level fidelity."""
    kwargs.setdefault("sim_steps", 8)
    r = run(get_benchmark("lbm"), CLUSTER_A, 12, **kwargs)
    assert r.meta["wavefront"] is False


def test_fast_forward_noisy_run_unchanged_by_flag():
    """With noise the flag is inert: identical results either way."""
    bench = get_benchmark("lbm")
    a = run(bench, CLUSTER_A, 12, sim_steps=8, noise_sigma=0.02, seed=7)
    b = run(bench, CLUSTER_A, 12, sim_steps=8, noise_sigma=0.02, seed=7,
            wavefront=False)
    assert _fields(a) == _fields(b)


# --------------------------------------------------------------------------
# streaming trace collection
# --------------------------------------------------------------------------

def test_streaming_trace_aggregates_exactly():
    bench = get_benchmark("lbm")
    full = run(bench, CLUSTER_A, 12, sim_steps=4, trace=True)
    stream = run(bench, CLUSTER_A, 12, sim_steps=4, trace="streaming")
    tf, ts = full.trace, stream.trace
    assert ts.streaming and not tf.streaming
    assert len(ts) == len(tf)                      # every interval counted
    assert ts.intervals == ()                      # but none retained
    assert ts.span() == tf.span()
    assert ts.time_by_kind() == tf.time_by_kind()
    for rank in range(12):
        assert ts.time_by_kind(rank) == tf.time_by_kind(rank)
    assert ts.fractions() == tf.fractions()
    assert ts.dominant_mpi_kind() == tf.dominant_mpi_kind()
    # simulation outcome is unaffected by the collection mode
    assert _fields(full) == _fields(stream)


def test_streaming_ascii_timeline_degrades_gracefully():
    stream = run(get_benchmark("lbm"), CLUSTER_A, 8, sim_steps=3,
                 trace="streaming").trace
    art = stream.ascii_timeline()
    assert "aggregated" in art and "%" in art      # summary, not a crash


def test_streaming_ring_keeps_tail():
    tc = TraceCollector(streaming=True, ring=3)
    for i in range(7):
        tc.record(rank=i % 2, t0=float(i), t1=float(i + 1), kind="compute")
    assert len(tc) == 7
    assert [iv.t0 for iv in tc.intervals] == [4.0, 5.0, 6.0]
    assert [iv.t0 for iv in tc.for_rank(0)] == [4.0, 6.0]
    art = tc.ascii_timeline()
    assert "3 most recent" in art and "7" in art
    # aggregates still cover all recorded intervals
    assert tc.time_by_kind() == {"compute": 7.0}
    assert tc.span() == (0.0, 7.0)


def test_for_rank_uses_per_rank_index():
    tc = TraceCollector()
    tc.record(rank=1, t0=2.0, t1=3.0, kind="compute")
    tc.record(rank=0, t0=0.0, t1=1.0, kind="MPI_Send")
    tc.record(rank=1, t0=0.5, t1=1.0, kind="MPI_Recv")
    ivs = tc.for_rank(1)
    assert [iv.t0 for iv in ivs] == [0.5, 2.0]     # sorted by start
    assert tc.for_rank(2) == []
    assert tc.time_by_kind(0) == {"MPI_Send": 1.0}
