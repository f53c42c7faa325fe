"""Message matching: posted receives vs. arrived/announced sends.

Each rank owns one :class:`Mailbox`.  Incoming eager payloads and rendezvous
ready-to-send (RTS) announcements queue as :class:`SendArrival`; receives
that find no match queue as :class:`RecvPost`.  Matching follows MPI rules:
FIFO per (source, tag), with ``ANY_SOURCE``/``ANY_TAG`` wildcards on the
receive side.

Two matcher implementations share this contract:

* ``indexed=True`` (default) keeps a dict of per-``(src, tag)`` deques on
  both sides plus wildcard sidelines, stamped with a per-mailbox sequence
  number.  A specific post/arrival consults at most four candidate queue
  heads (exact key, ``(src, *)``, ``(*, tag)``, ``(*, *)``) and picks the
  lowest stamp, so matching is O(1) amortized; only a *wildcard receive
  probing the arrival queue* degrades to a scan over the distinct
  ``(src, tag)`` keys present.  The selected match is always the
  queue-order-first candidate — byte-identical to the linear scan.
* ``indexed=False`` is the original single-deque linear scan, kept as the
  reference for the differential property tests.

Arrival tie-shuffle (schedule perturbation)
-------------------------------------------
MPI leaves the relative order of messages *from different sources* that
arrive simultaneously unspecified; our engine fixes it by arrival-stamp
FIFO.  ``Mailbox(..., tie_shuffle=rng)`` re-randomizes exactly that legal
freedom with a seeded RNG: same-``arrival_time`` arrivals from different
``(src, tag)`` channels are reordered relative to each other, while the
orders MPI mandates — per-channel non-overtaking and the receiver's own
posted-receive order — are preserved structurally.  This is the matching
half of the validation subsystem's determinism sanitizer
(:mod:`repro.validate.perturb`): a result that shifts under the shuffle
depends on a tie-break MPI never promised.

Light mode (structurally ineligible small runs)
-----------------------------------------------
``Mailbox(..., light=True)`` skips the per-call sequence stamping on the
hot path: stamps exist only to order *queued* items against each other
(the wildcard probe compares arrival stamps, the delivery scan compares
post stamps — never across sides), so they can be assigned lazily at
queue-append time from the same counter, preserving queue order exactly.
A call that matches immediately never draws a stamp.  The runner enables
this only when the run's replay is structurally ineligible and the
rank count is below the paper-scale threshold — small wavefront runs
stop paying for machinery they can never use.  Results are bit-identical;
light is ignored (forced off) for the linear matcher and under the
tie-shuffle, whose RNG stream consumes state per delivery.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.des.simulator import Signal

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(slots=True)
class SendArrival:
    """A message (eager payload or rendezvous RTS) known to the receiver.

    ``arrival_time`` is when the payload (eager) or the RTS (rendezvous)
    reaches the receiving rank.  For rendezvous sends ``sender_signal``
    is fired with the transfer-end time once the match happens.
    ``payload`` optionally carries real application data (the simulated
    MPI can execute actual data-parallel programs; see
    :mod:`repro.spechpc.distributed`).  ``seq`` is the receiving
    mailbox's arrival stamp (queue order across all sources).
    """

    src: int
    tag: int
    nbytes: int
    arrival_time: float
    rendezvous: bool
    intra_node: bool
    sender_signal: Optional[Signal] = None
    payload: object = None
    seq: int = 0
    #: seeded tie-break draw (perturbation mode only; see module docstring)
    jitter: int = 0


@dataclass(slots=True)
class RecvPost:
    """A posted receive waiting for a matching message."""

    src: int
    tag: int
    posted_time: float
    match_signal: Signal = field(default_factory=lambda: Signal("recv-match"))
    seq: int = 0

    def matches(self, src: int, tag: int) -> bool:
        src_ok = self.src == ANY_SOURCE or self.src == src
        tag_ok = self.tag == ANY_TAG or self.tag == tag
        return src_ok and tag_ok


class Mailbox:
    """Per-rank matching queues (see module docstring for the matchers)."""

    __slots__ = (
        "rank",
        "indexed",
        "tie_shuffle",
        "light",
        "_seq",
        "_arrival_q",
        "_post_q",
        "_arr_by_key",
        "_post_by_key",
        "_n_arrivals",
        "_n_posts",
    )

    def __init__(
        self,
        rank: int,
        indexed: bool = True,
        tie_shuffle: Optional[random.Random] = None,
        light: bool = False,
    ) -> None:
        self.rank = rank
        self.indexed = indexed
        self.tie_shuffle = tie_shuffle
        self.light = light and indexed and tie_shuffle is None
        self._seq = 0
        if indexed:
            # (src, tag) -> FIFO deque; wildcard posts live under keys
            # containing ANY_SOURCE / ANY_TAG (arrivals never do — the
            # send side always has a concrete source and tag)
            self._arr_by_key: dict[tuple[int, int], deque[SendArrival]] = {}
            self._post_by_key: dict[tuple[int, int], deque[RecvPost]] = {}
            self._n_arrivals = 0
            self._n_posts = 0
        else:
            self._arrival_q: deque[SendArrival] = deque()
            self._post_q: deque[RecvPost] = deque()

    # --- receiver side -----------------------------------------------------

    def post_recv(
        self, src: int, tag: int, now: float
    ) -> tuple[Optional[SendArrival], RecvPost]:
        """Post a receive.  Returns ``(matched_arrival_or_None, post)``.

        If an arrival matches, it is removed from the queue and returned;
        the caller computes completion times.  Otherwise the post is queued
        and the caller must wait on ``post.match_signal`` (fired with the
        matching :class:`SendArrival`).
        """
        if self.light:
            # stamp lazily at queue time: stamps only order queued posts
            # against each other, and an immediate match never needs one
            post = RecvPost(src=src, tag=tag, posted_time=now)
        else:
            seq = self._seq
            self._seq = seq + 1
            post = RecvPost(src=src, tag=tag, posted_time=now, seq=seq)
        if not self.indexed:
            for i, arr in enumerate(self._arrival_q):
                if post.matches(arr.src, arr.tag):
                    del self._arrival_q[i]
                    return arr, post
            self._post_q.append(post)
            return None, post

        arr_by_key = self._arr_by_key
        if src != ANY_SOURCE and tag != ANY_TAG:
            if self._n_arrivals:
                q = arr_by_key.get((src, tag))
                if q:
                    self._n_arrivals -= 1
                    return q.popleft(), post
        elif self._n_arrivals:
            # wildcard receive: earliest-stamped arrival among the heads
            # of every matching key queue (queue order == stamp order).
            # Under perturbation the cross-queue choice keys on
            # (arrival_time, jitter) instead — same-time arrivals from
            # different channels compete in seeded-random order, which is
            # a legal MPI matching order; per-channel FIFO is structural
            # (pops always come from a queue head).
            shuffled = self.tie_shuffle is not None
            best_q = None
            best_key: object = None
            for (a_src, a_tag), q in arr_by_key.items():
                if not q:
                    continue
                if (src == ANY_SOURCE or src == a_src) and (
                    tag == ANY_TAG or tag == a_tag
                ):
                    head = q[0]
                    key = (
                        (head.arrival_time, head.jitter, head.seq)
                        if shuffled
                        else head.seq
                    )
                    if best_q is None or key < best_key:
                        best_q = q
                        best_key = key
            if best_q is not None:
                self._n_arrivals -= 1
                return best_q.popleft(), post
        if self.light:
            seq = self._seq
            self._seq = seq + 1
            post.seq = seq
        q = self._post_by_key.get((src, tag))
        if q is None:
            q = self._post_by_key[(src, tag)] = deque()
        q.append(post)
        self._n_posts += 1
        return None, post

    # --- sender side ---------------------------------------------------------

    def deliver(self, arrival: SendArrival) -> Optional[RecvPost]:
        """Register an arriving message; return the matching posted receive
        if one exists (removed from the queue), else queue the arrival."""
        shuffle = self.tie_shuffle
        if not self.light:
            seq = self._seq
            self._seq = seq + 1
            arrival.seq = seq
            if shuffle is not None:
                arrival.jitter = shuffle.getrandbits(16)
        if not self.indexed:
            for i, post in enumerate(self._post_q):
                if post.matches(arrival.src, arrival.tag):
                    del self._post_q[i]
                    return post
            q = self._arrival_q
            if shuffle is None:
                q.append(arrival)
            else:
                # perturbation: insert at a seeded-random slot within the
                # trailing run of same-arrival-time entries from *other*
                # channels — per-(src, tag) FIFO stays intact because the
                # walk stops at the first same-channel entry
                lo = len(q)
                while lo > 0:
                    prev = q[lo - 1]
                    if prev.arrival_time != arrival.arrival_time:
                        break
                    if prev.src == arrival.src and prev.tag == arrival.tag:
                        break
                    lo -= 1
                q.insert(shuffle.randint(lo, len(q)), arrival)
            return None

        # posted-receive order is stamp order; an arrival can match at
        # most four post keys (exact + the three wildcard shapes)
        if self._n_posts:
            post_by_key = self._post_by_key
            best_q = None
            best_seq = -1
            for key in (
                (arrival.src, arrival.tag),
                (arrival.src, ANY_TAG),
                (ANY_SOURCE, arrival.tag),
                (ANY_SOURCE, ANY_TAG),
            ):
                q = post_by_key.get(key)
                if q:
                    head_seq = q[0].seq
                    if best_q is None or head_seq < best_seq:
                        best_q = q
                        best_seq = head_seq
            if best_q is not None:
                self._n_posts -= 1
                return best_q.popleft()
        if self.light:
            seq = self._seq
            self._seq = seq + 1
            arrival.seq = seq
        key = (arrival.src, arrival.tag)
        q = self._arr_by_key.get(key)
        if q is None:
            q = self._arr_by_key[key] = deque()
        q.append(arrival)
        self._n_arrivals += 1
        return None

    # --- introspection ---------------------------------------------------------

    def iter_arrivals(self) -> Iterator[SendArrival]:
        """Unmatched arrivals in queue (stamp) order — diagnostics view."""
        if not self.indexed:
            return iter(self._arrival_q)
        items = [a for q in self._arr_by_key.values() for a in q]
        items.sort(key=lambda a: a.seq)
        return iter(items)

    def iter_posts(self) -> Iterator[RecvPost]:
        """Unmatched posted receives in queue (stamp) order."""
        if not self.indexed:
            return iter(self._post_q)
        items = [p for q in self._post_by_key.values() for p in q]
        items.sort(key=lambda p: p.seq)
        return iter(items)

    @property
    def _arrivals(self):
        """Legacy diagnostics view (list-like, stamp order)."""
        return list(self.iter_arrivals())

    @property
    def _posts(self):
        return list(self.iter_posts())

    @property
    def pending_arrivals(self) -> int:
        if not self.indexed:
            return len(self._arrival_q)
        return self._n_arrivals

    @property
    def pending_posts(self) -> int:
        if not self.indexed:
            return len(self._post_q)
        return self._n_posts

    def idle(self) -> bool:
        """True if no unmatched traffic remains (checked at finalize)."""
        return self.pending_arrivals == 0 and self.pending_posts == 0
