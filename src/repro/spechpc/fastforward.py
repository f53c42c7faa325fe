"""Steady-state fast-forward: analytic advancement of periodic steps.

SPEChpc benchmark bodies simulate ``ctx.sim_steps`` *representative* time
steps whose structure is identical step over step.  The event-level
engine nevertheless pays the full price for every step.  This module
detects the steady state **by observation** and then advances the
remaining steps with a pure-Python replay that performs *exactly the same
floating-point operations* the event engine would, so the final per-rank
statistics, counters, and makespan are bit-identical to the full
simulation.

Why replay, not delta extrapolation
-----------------------------------
Per-step *deltas* of the accumulated times are **not** exactly periodic:
all event arithmetic happens in absolute time (``end = start + cost``),
so the rounding of each addition depends on the magnitude of the
accumulated clock — the same step costs a last-ulp-different delta at
``t≈3`` than at ``t≈6`` (binade effects).  Multiplying a measured delta
by N therefore diverges bitwise.  What *is* stable is the step's
**op structure**: the sequence of MPI calls and their pricing constants
(phase seconds, message sizes, per-byte costs).  The replayer re-executes
that op sequence with the engine's own expressions — each absolute-time
addition is performed at its true magnitude — which reproduces the exact
accumulator arithmetic without generators, signals, or heap events.

Protocol (driven by :class:`StepLoop` at step boundaries)
---------------------------------------------------------
* boundary 1 (:data:`RECORD_FIRST`): attach a :class:`StepRecorder`;
  steps 1 and 2 are journaled as per-rank op lists (constants only — no
  absolute times).
* boundary 3 (:data:`DECIDE`): detach; the last rank checks
  *eligibility*: both journals bitwise equal on every rank, no
  unsupported ops (wildcards, payload-carrying sends, data reductions),
  memoized phase pricing stable (no cache misses while recording), and
  at least one step remains.  Step boundaries need not be synchronized
  and a step need not end in a collective: the journaled step is
  compiled into a level-set dependency DAG
  (:class:`~repro.spechpc.wavefront.WavefrontProgram`), which declines
  only when its matches would cross the step boundary or its
  dependencies are cyclic.
* boundary 4 (:data:`PARK`): ranks park on a decision signal (a rank
  that arrives before the decision was taken declines replay instead:
  parking the others would strand it).  The last
  arrival verifies the quiescent state (mailboxes empty, no pending
  events), **validates** the compiled program against reality —
  replaying one step from every rank's boundary-3 clock must land every
  rank exactly on its observed boundary-4 clock, and the scalar
  :class:`Replayer` must agree — and then replays all remaining steps,
  applying per-rank statistics directly.  Ranks wake, jump to their
  final clocks, and their bodies finish.  Any check failing releases
  the ranks untouched ("go") and disables replay for the run.

This module holds the recorder, the shared gating, the scalar reference
replayer and the step loop; the controller that runs the protocol lives
next to the DAG compiler in :mod:`repro.spechpc.wavefront`.  Fidelity is
forced (the controller is never created) for runs with noise, fault
injection, tracing, ``memoize=False``, or ``wavefront=False`` — those
simulate every step as before; :func:`replay_ineligibility` holds that
gating.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence, Union

from repro.des.simulator import Signal, Wait

if TYPE_CHECKING:  # pragma: no cover
    from repro.smpi.comm import Communicator
    from repro.spechpc.wavefront import ReplayController


class ReplayUnsupported(Exception):
    """The recorded op structure cannot be replayed (falls back to full
    event-level simulation; never escapes the controller)."""


#: Rank count at or above which a run counts as "paper scale" for the
#: light-machinery hint: below it, runs whose replay is structurally
#: ineligible skip the indexed-matching stamp bookkeeping (see
#: :mod:`repro.smpi.mailbox`) because nothing will ever consume it.
PAPER_SCALE_RANKS = 256

#: Step-boundary indices of the replay protocol (see the module
#: docstring): the first journaled step, the decision, the parking point.
RECORD_FIRST = 1
DECIDE = 3
PARK = 4


def replay_ineligibility(
    *,
    noise: Any = None,
    faults: Any = None,
    trace: Any = None,
    checker: Any = None,
    perturb_seed: Optional[int] = None,
    memoize: bool = True,
    sim_steps: int = 0,
) -> Optional[tuple[str, str]]:
    """Why a run can never engage replay, or ``None`` if it may.

    This is the single source of truth for the *structural* replay
    gating: anything that perturbs or observes individual steps (noise,
    faults, tracing, invariant checking, schedule perturbation,
    un-memoized pricing) or leaves no step to skip forces full fidelity.  Returns a
    ``(code, reason)`` pair — the code is a stable slug used for the
    ``wavefront.declined.<code>`` metric.
    """
    if noise is not None:
        return ("noise", "compute noise requires full fidelity")
    if faults is not None:
        return ("faults", "fault injection requires full fidelity")
    if trace is not None:
        return ("tracing", "tracing observes every step")
    if checker is not None:
        return ("invariants", "invariant checking observes every event")
    if perturb_seed is not None:
        return ("perturb", "schedule perturbation forbids fixed tie-breaks")
    if not memoize:
        return ("nomemo", "un-memoized pricing has no stable generation")
    if sim_steps < PARK + 1:
        return ("steps", "no steps left after the recording prologue")
    return None


# --------------------------------------------------------------------------
# recording
# --------------------------------------------------------------------------

class StepRecorder:
    """Collects one journal (list of constant-only op tuples) per rank per
    recorded step.  Attached to ``runtime.recorder`` only while recording,
    so the communicator hot path pays a single ``is not None`` check."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self._cur: list[Optional[list]] = [None] * nprocs
        self._hid: list[dict[int, int]] = [{} for _ in range(nprocs)]
        self._nreq: list[int] = [0] * nprocs
        self._ncoll: list[int] = [0] * nprocs
        self.unsupported: Optional[str] = None

    def begin_step(self, rank: int) -> None:
        self._cur[rank] = []
        self._hid[rank].clear()
        self._nreq[rank] = 0
        self._ncoll[rank] = 0

    def end_step(self, rank: int) -> list:
        ops, self._cur[rank] = self._cur[rank], None
        return ops if ops is not None else []

    # --- hooks (called from the communicator) ------------------------------

    def mark_unsupported(self, rank: int, reason: str) -> None:
        if self.unsupported is None:
            self.unsupported = f"rank {rank}: {reason}"

    def compute(self, rank: int, seconds, flops, simd, mem, l3, l2,
                busy, heat_s, heat_b) -> None:
        ops = self._cur[rank]
        if ops is not None:
            ops.append(
                ("compute", seconds, flops, simd, mem, l3, l2, busy, heat_s, heat_b)
            )

    def isend(self, rank: int, req, dest: int, tag: int, nbytes: int,
              intra: bool, eager: bool, net, payload) -> None:
        ops = self._cur[rank]
        if ops is None:
            return
        if payload is not None:
            self.mark_unsupported(rank, "payload-carrying send")
            return
        hid = self._nreq[rank]
        self._nreq[rank] = hid + 1
        self._hid[rank][id(req)] = hid
        if eager:
            params = ("e", net.transfer_time(nbytes, intra),
                      net.per_message_overhead)
        else:
            bw = net.intra_node_bandwidth if intra else net.effective_bandwidth
            lat = net.intra_node_latency if intra else net.latency
            params = (
                "r",
                lat,                          # RTS latency (arrival offset)
                net.rendezvous_handshake,
                lat,
                nbytes / bw,                  # the exact quotient the match uses
                net.per_message_overhead,
            )
        ops.append(("isend", hid, dest, tag, nbytes, params))

    def irecv(self, rank: int, req, src: int, tag: int) -> None:
        ops = self._cur[rank]
        if ops is None:
            return
        if src < 0 or tag < 0:
            self.mark_unsupported(rank, "wildcard receive")
            return
        hid = self._nreq[rank]
        self._nreq[rank] = hid + 1
        self._hid[rank][id(req)] = hid
        ops.append(("irecv", hid, src, tag))

    def wait(self, rank: int, req, kind: str) -> None:
        ops = self._cur[rank]
        if ops is None:
            return
        hid = self._hid[rank].pop(id(req), None)
        if hid is None:
            self.mark_unsupported(rank, "wait on a request from outside the step")
            return
        ops.append(("wait", hid, kind))

    def sendrecv_wait(self, rank: int, sreq, rreq) -> None:
        ops = self._cur[rank]
        if ops is None:
            return
        shid = self._hid[rank].pop(id(sreq), None)
        rhid = self._hid[rank].pop(id(rreq), None)
        if shid is None or rhid is None:
            self.mark_unsupported(rank, "sendrecv with foreign requests")
            return
        ops.append(("srwait", shid, rhid))

    def coll(self, rank: int, kind: str, seq: int, cost: float,
             nbytes: Optional[int]) -> None:
        ops = self._cur[rank]
        if ops is not None:
            # the engine pairs gates by the *global* per-rank sequence
            # number, which increments every step; journals must be
            # step-invariant, so record the per-step ordinal instead
            # (equivalent whenever the pattern is periodic — and the
            # validation replay catches any mispairing)
            ordinal = self._ncoll[rank]
            self._ncoll[rank] = ordinal + 1
            ops.append(("coll", kind, ordinal, cost, nbytes))


# --------------------------------------------------------------------------
# replay
# --------------------------------------------------------------------------

class _ReplayRank:
    __slots__ = ("ops", "pos", "t", "reqs", "t0", "stage")

    def __init__(self, ops: list, t: float) -> None:
        self.ops = ops
        self.pos = 0
        self.t = t
        self.reqs: dict[int, tuple] = {}
        self.t0 = 0.0       # pending call-entry time (waits)
        self.stage = 0      # srwait progress (0 = send leg, 1 = recv leg)


def _wait_step(t: float, fire_t: float, fin: float) -> float:
    """One completion-wait of the engine, in its exact arithmetic:
    resume at the signal's fire time if parked, then ``Delay(fin - now)``
    (the engine schedules at ``now + (fin - now)``, *not* at ``fin``)."""
    resume = fire_t if fire_t > t else t
    if fin > resume:
        return resume + (fin - resume)
    return resume


class Replayer:
    """Executes the recorded steady-state step N times in pure Python.

    ``stats=None`` replays times only (the validation pass); with the
    runtime's ``RankStats`` list it also applies every statistics update
    in per-rank program order, exactly as the communicator would."""

    def __init__(self, journals: list[list], nprocs: int,
                 stats: Optional[list] = None) -> None:
        self.journals = journals
        self.nprocs = nprocs
        self.stats = stats

    def run(
        self, t_start: Union[float, Sequence[float]], nsteps: int
    ) -> list[float]:
        """Replay ``nsteps`` steps from ``t_start`` — a single
        synchronized instant or one clock per rank (skewed wavefront
        boundaries); returns the final per-rank clocks."""
        if isinstance(t_start, (int, float)):
            starts = [float(t_start)] * self.nprocs
        else:
            starts = [float(t) for t in t_start]
        ranks = [
            _ReplayRank(self.journals[r], starts[r]) for r in range(self.nprocs)
        ]
        for _ in range(nsteps):
            self._run_step(ranks)
            for rr in ranks:
                rr.pos = 0
                rr.reqs.clear()
        return [rr.t for rr in ranks]

    # --- one step ----------------------------------------------------------

    def _run_step(self, ranks: list[_ReplayRank]) -> None:
        # (dest, src, tag) -> [posts, arrivals]: FIFO lists, paired by
        # ordinal — MPI non-overtaking makes the k-th posted receive of a
        # key match the k-th arrival, exactly like the mailbox queues
        matches: dict[tuple[int, int, int], list] = {}
        # (kind, seq) -> [arrivals dict rank->t, cost]
        gates: dict[tuple[str, int], list] = {}
        pending = set(range(self.nprocs))
        while pending:
            progressed = False
            for r in sorted(pending):
                rr = ranks[r]
                moved = self._advance_rank(r, rr, matches, gates)
                if rr.pos >= len(rr.ops):
                    pending.discard(r)
                    progressed = True
                elif moved:
                    progressed = True
            if not progressed and pending:
                raise ReplayUnsupported(
                    "replay stalled: op structure has cross-step or "
                    "unresolvable dependencies"
                )

    def _advance_rank(self, r: int, rr: _ReplayRank, matches, gates) -> bool:
        """Run rank ``r`` until it blocks or exhausts its ops; returns
        True if at least one op completed."""
        stats = None if self.stats is None else self.stats[r]
        ops = rr.ops
        moved = False
        while rr.pos < len(ops):
            op = ops[rr.pos]
            code = op[0]
            if code == "compute":
                (_, seconds, flops, simd, mem, l3, l2, busy, heat_s, heat_b) = op
                rr.t = rr.t + seconds
                if stats is not None:
                    tbk = stats.time_by_kind
                    tbk["compute"] = tbk.get("compute", 0.0) + seconds
                    c = stats.counters
                    c["flops"] += flops
                    c["simd_flops"] += simd
                    c["mem_bytes"] += mem
                    c["l3_bytes"] += l3
                    c["l2_bytes"] += l2
                    c["busy_seconds"] += busy
                    c["heat_seconds"] += heat_s
                    c["heat_busy_seconds"] += heat_b
            elif code == "isend":
                _, hid, dest, tag, nbytes, params = op
                if stats is not None:
                    c = stats.counters
                    c["messages"] += 1
                    c["msg_bytes"] += nbytes
                key = (dest, r, tag)
                entry = matches.setdefault(key, [[], []])
                ordinal = len(entry[1])
                if params[0] == "e":
                    entry[1].append((rr.t + params[1], params))
                    # eager send completes locally: fires at post time
                    rr.reqs[hid] = ("done", rr.t + params[2], rr.t)
                else:
                    entry[1].append((rr.t + params[1], params))  # RTS latency
                    rr.reqs[hid] = ("send_rndv", key, ordinal)
            elif code == "irecv":
                _, hid, src, tag = op
                key = (r, src, tag)
                entry = matches.setdefault(key, [[], []])
                ordinal = len(entry[0])
                entry[0].append(rr.t)
                rr.reqs[hid] = ("recv", key, ordinal)
            elif code == "wait":
                _, hid, kind = op
                resolved = self._resolve(rr, matches, rr.reqs[hid])
                if resolved is None:
                    return moved  # blocked on the peer's side of the match
                fin, fire_t = resolved
                t0 = rr.t
                rr.t = _wait_step(rr.t, fire_t, fin)
                if stats is not None and rr.t > t0:
                    stats.add_time(kind, rr.t - t0)
            elif code == "srwait":
                _, shid, rhid = op
                if rr.stage == 0:
                    rr.t0 = rr.t
                    resolved = self._resolve(rr, matches, rr.reqs[shid])
                    if resolved is None:
                        return moved
                    fin, fire_t = resolved
                    rr.t = _wait_step(rr.t, fire_t, fin)
                    rr.stage = 1
                resolved = self._resolve(rr, matches, rr.reqs[rhid])
                if resolved is None:
                    return moved
                fin, fire_t = resolved
                rr.t = _wait_step(rr.t, fire_t, fin)
                rr.stage = 0
                if stats is not None and rr.t > rr.t0:
                    stats.add_time("MPI_Sendrecv", rr.t - rr.t0)
            elif code == "coll":
                _, kind, seq, cost, nbytes = op
                gkey = (kind, seq)
                gate = gates.setdefault(gkey, [{}, 0.0, None])
                arrivals = gate[0]
                if r not in arrivals:
                    if stats is not None and nbytes is not None:
                        stats.add_counters(messages=1, msg_bytes=nbytes)
                    arrivals[r] = rr.t
                    gate[1] = max(gate[1], cost)
                if len(arrivals) < self.nprocs:
                    return moved  # parked at the gate
                if gate[2] is None:
                    # resolve once per gate: the engine fires at the last
                    # arrival and completes max(arrivals) + max(costs)
                    t_fire = max(arrivals.values())
                    gate[2] = (t_fire, t_fire + gate[1])
                t_fire, finish = gate[2]
                t0 = arrivals[r]
                rr.t = _wait_step(t0, t_fire, finish)
                if stats is not None and rr.t > t0:
                    stats.add_time(kind, rr.t - t0)
            else:
                raise ReplayUnsupported(f"unsupported op {code!r}")
            rr.pos += 1
            moved = True
        return moved

    def _resolve(self, rr: _ReplayRank, matches, req: tuple):
        """Completion (finish_time, fire_time) of a request, or None if
        the peer's half of the match is not known yet."""
        code = req[0]
        if code == "done":
            return req[1], req[2]
        _, key, ordinal = req
        entry = matches.get(key)
        if entry is None or len(entry[0]) <= ordinal or len(entry[1]) <= ordinal:
            return None
        post_t = entry[0][ordinal]
        arr_t, params = entry[1][ordinal]
        start = post_t if post_t > arr_t else arr_t
        if params[0] == "e":
            if code == "send_rndv":
                raise ReplayUnsupported("eager params on a rendezvous send")
            return start + params[2], start
        # rendezvous: both sides complete at the transfer end, in the
        # engine's exact left-associated expression
        _, _, handshake, lat, xfer, ov = params
        return start + handshake + lat + xfer + ov, start


# --------------------------------------------------------------------------
# step loop
# --------------------------------------------------------------------------

class StepLoop:
    """Benchmark-side driver of the per-step protocol.

    Bodies iterate their representative steps as::

        loop = ctx.step_loop(comm)
        while (yield loop.next_step()):
            ... one step ...

    Without a controller this is a plain counter (no events, no time) —
    the loop is bit-identical to ``for _ in range(ctx.sim_steps)``.
    """

    __slots__ = ("_comm", "_ctl", "_total", "_idx", "_done")

    def __init__(self, comm: "Communicator", total: int,
                 ctl: Optional["ReplayController"]) -> None:
        self._comm = comm
        self._ctl = ctl
        self._total = total
        self._idx = 0
        self._done = False

    def next_step(self) -> Generator[Any, Any, bool]:
        if self._done or self._idx >= self._total:
            return False
        ctl = self._ctl
        if ctl is not None and not ctl.dead:
            sig = ctl.boundary(self._comm, self._idx)
            if sig is not None:
                value = yield Wait(sig)
                kind, data = value
                if kind == "ff":
                    t_final = data[self._comm.rank]
                    now = self._comm.now
                    if t_final > now:
                        # land on the replayed clock *exactly*: a
                        # Delay(t_final - now) would re-round the
                        # subtraction; call_at schedules at t_final itself
                        wake = Signal("fast-forward-wake")
                        self._comm.runtime.sim.call_at(
                            t_final, lambda: wake.fire(None)
                        )
                        yield Wait(wake)
                    self._done = True
                    return False
        self._idx += 1
        return True
