"""Shared saturable resources for simulated processes.

:class:`BandwidthResource` models a capacity shared by concurrent users
with fair sharing and *instant global re-balancing*: when a transfer
starts or ends, the remaining work of every active transfer is re-priced
at the new fair share.  This is the classic fluid flow model (as used by
SimGrid) and is exact for max-min fair sharing of a single link.

The MPI layer prices point-to-point transfers analytically for speed, but
this primitive is available for substrates that need true contention
(e.g. a NIC shared by many concurrent rendezvous transfers, or a disk).

Two schedulers implement the model:

* ``scheduler="virtual-clock"`` (default) — processor-sharing accounting
  with a *virtual clock* ``V`` that advances at ``capacity / n`` units per
  real second while ``n`` flows are active.  A flow entering with
  ``amount`` units finishes when ``V`` reaches ``V_entry + amount``, so
  entry is O(log F) (one heap push of the virtual finish time) and each
  rebalance is O(1): no per-flow re-integration ever happens.
* ``scheduler="reference"`` — the original lazy re-integration that walks
  every active flow on each entry/exit event, kept as the behavioral
  reference for the differential tests.

Both schedulers guard their scheduled completion callbacks with a
monotonically increasing *epoch token*: every entry/exit bumps the epoch,
and a callback carrying a stale epoch returns immediately.  (The old
reference guard compared ``sim.now`` against the scheduled completion
time with a ``1e-12`` float tolerance — a rebalance landing within the
tolerance window could be mistaken for the real completion.)

``light=True`` (virtual-clock only) additionally enables a *solo-flow
fast path*: while exactly one flow is active — the common case for runs
whose replay is structurally ineligible and which are below paper
scale, where the harness hints that nothing will ever consume the full
bookkeeping — the flow skips the finish-time heap entirely.  The
completion time is computed with the exact virtual-clock arithmetic
(``(V + amount) - V`` is *not* exactly ``amount`` in floats), so the
timing is bitwise identical; a second flow joining retroactively
materializes the solo flow into the heap (entry order, hence tie order,
preserved) and the epoch bump cancels the solo callback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Generator

from repro.des.simulator import Signal, Wait


@dataclass
class _Flow:
    remaining: float
    done: Signal
    finish_v: float = 0.0        # virtual finish time (virtual-clock mode)
    finished: bool = False


class BandwidthResource:
    """A shared capacity [units/s] with max-min fair sharing.

    Usage from a simulated process::

        nic = BandwidthResource(sim, capacity=12e9)

        def body():
            yield nic.transfer(3e9)   # takes 0.25 s alone, longer if shared

    See the module docstring for the two scheduler implementations.
    """

    def __init__(
        self,
        sim,
        capacity: float,
        name: str = "resource",
        scheduler: str = "virtual-clock",
        light: bool = False,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if scheduler not in ("virtual-clock", "reference"):
            raise ValueError(
                f"unknown scheduler {scheduler!r}; expected "
                "'virtual-clock' or 'reference'"
            )
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.scheduler = scheduler
        self.light = light and scheduler == "virtual-clock"
        self._solo: _Flow | None = None  # light solo-flow fast path
        self._flows: list[_Flow] = []    # reference mode only
        self._nflows = 0                 # virtual-clock mode only
        self._last_update = 0.0
        # epoch token: bumped on every entry/exit; completion callbacks
        # carry the epoch they were scheduled under and bail out if a
        # rebalance has happened since (no float-tolerance comparisons)
        self._epoch = 0
        # --- virtual-clock state ---
        self._vclock = 0.0
        self._finish_heap: list[tuple[float, int, _Flow]] = []
        self._tiebreak = count()

    # --- shared internals ----------------------------------------------------

    def _advance_vclock(self) -> None:
        """Advance the virtual clock to the current real time."""
        now = self.sim.now
        dt = now - self._last_update
        n = self._nflows
        if dt > 0 and n:
            self._vclock += dt * (self.capacity / n)
        self._last_update = now

    def _advance_reference(self) -> None:
        """Integrate progress of all active flows up to now (O(F))."""
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0 and self._flows:
            rate = self.capacity / len(self._flows)
            for f in self._flows:
                f.remaining -= rate * dt
        self._last_update = now

    def _schedule_completion(self, t_done: float) -> None:
        epoch = self._epoch
        self.sim.call_at(t_done, lambda: self._on_completion_check(epoch))

    # --- virtual-clock scheduler ---------------------------------------------

    def _reschedule_vclock(self) -> None:
        self._epoch += 1
        heap = self._finish_heap
        while heap and heap[0][2].finished:
            heappop(heap)
        if not heap:
            return
        next_v = heap[0][0]
        t_done = (
            self.sim.now
            + max(0.0, next_v - self._vclock) * self._nflows / self.capacity
        )
        self._schedule_completion(t_done)

    def _complete_vclock(self) -> None:
        self._advance_vclock()
        solo = self._solo
        if solo is not None:
            # light solo completion: same sequence as the heap path —
            # advance, retire, snap the virtual clock to the flow's exact
            # finish value, fire — with no heap traffic at all
            self._solo = None
            solo.finished = True
            self._nflows -= 1
            if solo.finish_v > self._vclock:
                self._vclock = solo.finish_v
            solo.done.fire(self.sim.now)
            self._reschedule_vclock()
            return
        heap = self._finish_heap
        while heap and heap[0][2].finished:
            heappop(heap)
        if heap:
            # the epoch guard guarantees no rebalance happened since this
            # completion was scheduled, so the heap head *is* the flow it
            # was scheduled for — complete it unconditionally (immune to
            # virtual-clock rounding), together with any co-finishers
            # within eps.  The batch fires in *entry* order (the tiebreak
            # counter), not heap order: co-finishers' virtual finish
            # times can differ by float noise in either direction, and
            # the reference scheduler's scan completes simultaneous
            # finishers in entry order
            _, tb, head = heappop(heap)
            head.finished = True
            self._nflows -= 1
            if head.finish_v > self._vclock:
                self._vclock = head.finish_v
            batch = [(tb, head)]
            eps = 1e-9 * self.capacity
            while heap and not heap[0][2].finished and heap[0][0] <= self._vclock + eps:
                _, tb, flow = heappop(heap)
                flow.finished = True
                self._nflows -= 1
                batch.append((tb, flow))
            batch.sort()
            for _, flow in batch:
                flow.done.fire(self.sim.now)
        self._reschedule_vclock()

    # --- reference scheduler --------------------------------------------------

    def _reschedule_reference(self) -> None:
        self._epoch += 1
        if not self._flows:
            return
        rate = self.capacity / len(self._flows)
        next_flow = min(self._flows, key=lambda f: f.remaining)
        t_done = self.sim.now + max(0.0, next_flow.remaining) / rate
        self._schedule_completion(t_done)

    def _complete_reference(self) -> None:
        self._advance_reference()
        # completion tolerance scales with capacity: the float residue
        # after integrating a flow of A units is ~A*ulp, far above any
        # absolute threshold for multi-gigabyte transfers
        eps = 1e-9 * self.capacity
        finished = [f for f in self._flows if f.remaining <= eps]
        self._flows = [f for f in self._flows if f.remaining > eps]
        for f in finished:
            f.finished = True
            f.done.fire(self.sim.now)
        self._reschedule_reference()

    # --- completion dispatch ---------------------------------------------------

    def _on_completion_check(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # a rebalance superseded this callback
        if self.scheduler == "virtual-clock":
            self._complete_vclock()
        else:
            self._complete_reference()

    # --- public API ----------------------------------------------------------

    def transfer(self, amount: float) -> Generator:
        """Sub-coroutine: move ``amount`` units through the resource."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount == 0:
            return
            yield  # pragma: no cover
        if self.scheduler == "virtual-clock":
            self._advance_vclock()
            flow = _Flow(remaining=amount, done=Signal(f"{self.name}-flow"))
            flow.finish_v = self._vclock + amount
            self._nflows += 1
            if self.light and self._nflows == 1:
                # solo fast path: no heap entry; completion time uses the
                # exact virtual-clock expression of the n=1 heap path
                self._solo = flow
                self._epoch += 1
                t_done = (
                    self.sim.now
                    + max(0.0, flow.finish_v - self._vclock)
                    * self._nflows / self.capacity
                )
                self._schedule_completion(t_done)
            else:
                if self._solo is not None:
                    # a second flow joins: retroactively materialize the
                    # solo flow (entry order preserved — it draws its
                    # tiebreak before the newcomer); the reschedule's
                    # epoch bump cancels the solo completion callback
                    heappush(
                        self._finish_heap,
                        (self._solo.finish_v, next(self._tiebreak), self._solo),
                    )
                    self._solo = None
                heappush(
                    self._finish_heap, (flow.finish_v, next(self._tiebreak), flow)
                )
                self._reschedule_vclock()
        else:
            self._advance_reference()
            flow = _Flow(remaining=amount, done=Signal(f"{self.name}-flow"))
            self._flows.append(flow)
            self._reschedule_reference()
        yield Wait(flow.done)

    @property
    def active_flows(self) -> int:
        if self.scheduler == "virtual-clock":
            return self._nflows
        return len(self._flows)

    def current_rate(self) -> float:
        """Per-flow rate at the current concurrency [units/s]."""
        n = self.active_flows
        if n == 0:
            return self.capacity
        return self.capacity / n
