"""The discrete-event engine: a clock and a calendar-queue event core.

Event storage
-------------
The queue is an array-backed *calendar queue* (timing wheel): events
are grouped into per-timestamp buckets (``_buckets``: time -> bucket)
and a small binary heap (``_times``) holds each distinct pending
timestamp exactly once. Message traffic overwhelmingly shares a handful
of delays (link latency is drawn from a small discrete set), so the
common case is an O(1) append to an existing bucket and an O(1) pop
from its front — the heap is only touched when a *new* timestamp
appears or a bucket drains, which is the rare case. The dispatch order
is identical to the old global heap, bit for bit:

* with no :class:`SchedulePolicy` installed (the default), buckets are
  ``deque``\\ s in scheduling order — FIFO within a timestamp is exactly
  the old ``(time, seq)`` order. A timestamp that holds one event
  stores the bare :class:`EventHandle` instead (a steady stream opens a
  new timestamp for nearly every message); a second event at that
  timestamp moves both into a pooled deque, in order;
* with a policy installed, buckets are small per-timestamp heaps of
  ``(key, handle)`` pairs, so ties break by the policy's injective key
  exactly as they did in the global ``(time, key, handle)`` heap.
  Keyed buckets are never bare.

A bucket is retired the moment its last entry is popped, so no bucket
in the dict is ever empty. Lemma (order unchanged, FIFO and keyed): a
callback that schedules back into the instant whose bucket it just
emptied opens a fresh bucket at the same timestamp, and the old one
held nothing to be ordered against; a bucket that still has entries
stays, so a same-instant schedule joins it in order as before.

Event lifecycle
---------------
``schedule``/``schedule_at`` wrap the callback in a slotted
:class:`EventHandle` and return it; a caller may keep it, so these
handles are never recycled. ``schedule_pooled``/``schedule_at_pooled``
are the fire-and-forget variants (the message bus's delivery
trampoline, which schedules both of its stages at absolute times):
they return nothing and draw their handles from a simulator-owned
freelist — a fired pooled handle goes straight back to the freelist
instead of the allocator; ``schedule_at_pooled`` pops the freelist and
does the FIFO insert in its own frame. Pooling is safe *because* the
handle is unobservable: no caller can hold a stale reference across a
reuse. ``pool_stats`` reports the freelist's traffic for the
``repro.obs`` gauges.

An event cannot be cancelled: every queued entry runs, so ``pending``
is the number of queued entries and a bucket's head is always the next
event of its instant.

The run methods (:meth:`Simulator.run_until_idle` / :meth:`run_until`)
share one dispatch loop that inlines :meth:`step` with hoisted attribute
lookups and keeps the ``max_events`` bound *exact* through a shared
budget that the message bus's same-timestamp inline fast path also
charges (:meth:`claim_inline_slot`): every executed event — popped or
inline — consumes exactly one slot, and the bound raises before the
event that would exceed it.

Schedule tie-break policies
---------------------------
Same-timestamp events are FIFO-ordered by default (bucket order equals
scheduling order). That order is *one legal schedule* among many: any
interleaving of same-timestamp events is permitted by the model, and
code that is only correct under the FIFO accident is code that will
break the moment a real network reorders it. A
:class:`SchedulePolicy` makes the tie-break pluggable:
:class:`FifoPolicy` reproduces the historical order bit-for-bit, and
:class:`PerturbedPolicy` re-keys same-timestamp ties with a seeded RNG
and can add bounded delivery-delay jitter on the message plane — the
schedule-perturbation sanitizer (``repro check --sanitize``) runs the
scenario library under it and asserts the invariant set still holds.
Policies are installed per-simulator at construction, snapshotting the
module-level :data:`POLICY_FACTORY` swap point (see
:func:`schedule_policy`); with no policy installed the scheduling hot
path never touches the sequence counter at all.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from math import inf, isfinite
from random import Random
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.atomics import AtomicCounter
from repro.errors import SimulationError
from repro.obs import recorder as _obs


class SchedulePolicy:
    """How same-timestamp events are ordered (and messages delayed).

    ``key(seq)`` maps the monotonic scheduling sequence number to the
    integer tie-break key stored in the per-timestamp bucket heap:
    dispatch order is ``(time, key)`` and keys are unique, so any
    injective mapping yields a deterministic total order.
    ``delivery_jitter()`` is extra network delay the message bus adds
    per send (0.0 for exact latency-model behaviour).
    """

    def key(self, seq: int) -> int:
        return seq

    def delivery_jitter(self) -> float:
        return 0.0


class FifoPolicy(SchedulePolicy):
    """The default order, made explicit: ties break by scheduling
    order, no jitter. Installing this policy is byte-identical to
    installing none — the regression tests pin that equivalence."""


class PerturbedPolicy(SchedulePolicy):
    """Adversarial-but-legal schedules from a seeded RNG.

    Same-timestamp events are reordered by a random 32-bit major key
    (the sequence number survives in the low bits, keeping keys unique
    and runs reproducible per seed); ``max_jitter`` > 0 additionally
    stretches each message's network transit by a uniform random delay
    in ``[0, max_jitter)``. Every schedule this policy produces is one
    the event model already allows — a run that breaks under it was
    deterministic by accident, not correct.
    """

    def __init__(self, rng: Random, max_jitter: float = 0.0):
        if max_jitter < 0 or not isfinite(max_jitter):
            raise ValueError("max_jitter must be finite and >= 0")
        self.rng = rng
        self.max_jitter = max_jitter

    def key(self, seq: int) -> int:
        # Random major bits shuffle same-timestamp groups; the sequence
        # number in the low bits keeps keys unique (and comparisons
        # never reach the EventHandle).
        return (self.rng.getrandbits(32) << 48) | seq

    def delivery_jitter(self) -> float:
        if not self.max_jitter:
            return 0.0
        return self.rng.random() * self.max_jitter


#: The installed policy factory, consulted once per Simulator
#: construction (each simulator gets a fresh policy so seeded RNG state
#: is never shared across runs). ``None`` — the default — means FIFO
#: through the zero-overhead fast path.
POLICY_FACTORY: Optional[Callable[[], SchedulePolicy]] = None


@contextmanager
def schedule_policy(
    factory: Optional[Callable[[], SchedulePolicy]],
) -> Iterator[None]:
    """Install a policy factory for simulators built inside the block.

    This is the sanitizer's designated swap point, mirroring
    ``repro.obs.recorder.recording``: the module attribute changes only
    here, between runs, never while a simulator is executing.
    """
    global POLICY_FACTORY
    previous = POLICY_FACTORY
    POLICY_FACTORY = factory
    try:
        yield
    finally:
        POLICY_FACTORY = previous


class EventHandle:
    """One scheduled event: its callback, cleared when it fires.

    Returned by :meth:`Simulator.schedule` / :meth:`schedule_at`. The
    record is deliberately tiny (two slots) — the pooled variants
    reuse it on every message send. ``pooled`` marks handles owned by
    the simulator's freelist (:meth:`Simulator.schedule_pooled`): such
    handles are never handed to a caller, so they can be recycled the
    instant they fire without any reference going stale.
    """

    __slots__ = ("callback", "pooled")

    def __init__(self, callback: Callable[[], None], pooled: bool = False):
        self.callback: Optional[Callable[[], None]] = callback
        self.pooled = pooled


#: FIFO-mode bucket: handles in scheduling order, or a lone bare handle.
_FifoBucket = Union[EventHandle, Deque[EventHandle]]
#: Policy-mode bucket: a heapq list of (tie-break key, handle).
_KeyedBucket = List[Tuple[int, EventHandle]]


class Simulator:
    """A deterministic discrete-event simulator.

    Events are ``(time, sequence)``-ordered callbacks; ties break by
    scheduling order, which — together with seeded randomness everywhere
    else — makes entire experiment runs reproducible.
    """

    def __init__(self, policy: Optional[SchedulePolicy] = None):
        #: Calendar buckets: timestamp -> same-timestamp events, never
        #: empty (a bucket retires with its last entry); in FIFO mode a
        #: lone event is its bare handle.
        self._buckets: Dict[float, object] = {}
        #: One heap entry per distinct pending timestamp (the bucket
        #: anchors); kept in lockstep with ``_buckets``.
        self._times: List[float] = []
        #: Recycled empty bucket containers (deques or lists, matching
        #: the simulator's mode for its whole lifetime).
        self._bucket_pool: List[object] = []
        #: Freelist of fire-and-forget EventHandles plus its traffic
        #: counters (read by :meth:`pool_stats`, mutated only by the
        #: event loop).
        self._handle_pool: List[EventHandle] = []
        self._handles_created = 0
        self._handles_reused = 0
        self._sequence = itertools.count()
        #: Remaining ``max_events`` slots of the innermost bounded run,
        #: or None when unbounded; shared with the bus's inline path so
        #: the bound stays exact (see :meth:`claim_inline_slot`).
        self._budget: Optional[int] = None
        #: Tie-break policy, fixed for the simulator's lifetime. None —
        #: the common case — keeps scheduling on the FIFO-deque fast
        #: path, byte-identical to the pre-policy engine.
        if policy is None and POLICY_FACTORY is not None:
            policy = POLICY_FACTORY()
        self.policy = policy
        self._fifo = policy is None
        #: Mode-specific insert, bound once (the branch would otherwise
        #: run on every schedule).
        self._enqueue = self._enqueue_fifo if self._fifo else self._enqueue_keyed
        self.now = 0.0
        self.events_run = AtomicCounter()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _enqueue_fifo(self, time: float, handle: EventHandle) -> None:
        """Insert into the bucket for ``time`` — FIFO mode, where the
        sequence counter is never consumed. A new timestamp stores the
        bare handle and its heap anchor; a second event there moves both
        into a deque (:meth:`schedule_at_pooled` restates this insert)."""
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = handle
            heappush(self._times, time)
        elif bucket.__class__ is EventHandle:
            pool = self._bucket_pool
            queue = pool.pop() if pool else deque()
            queue.append(bucket)
            queue.append(handle)
            buckets[time] = queue
        else:
            bucket.append(handle)  # type: ignore[union-attr]

    def _enqueue_keyed(self, time: float, handle: EventHandle) -> None:
        """Policy-mode insert: the bucket is a heap of (tie-break key,
        handle); keys are injective so handles are never compared."""
        key = self.policy.key(next(self._sequence))  # type: ignore[union-attr]
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            pool = self._bucket_pool
            bucket = pool.pop() if pool else []
            buckets[time] = bucket
            heappush(self._times, time)
        heappush(bucket, (key, handle))  # type: ignore[arg-type]

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` ``delay`` time units from now."""
        if delay < 0 or not isfinite(delay):
            raise SimulationError(
                "cannot schedule a negative or non-finite delay (delay=%r)" % delay
            )
        handle = EventHandle(callback)
        self._enqueue(self.now + delay, handle)
        return handle

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated ``time``."""
        if not isfinite(time):
            raise SimulationError("cannot schedule at non-finite time %r" % time)
        if time < self.now:
            raise SimulationError(
                "cannot schedule at %r, current time is %r" % (time, self.now)
            )
        handle = EventHandle(callback)
        self._enqueue(time, handle)
        return handle

    def schedule_pooled(self, delay: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is returned, so
        its handle comes from (and returns to) the simulator's
        freelist."""
        if not 0 <= delay < inf:  # false for NaN too
            raise SimulationError(
                "cannot schedule a negative or non-finite delay (delay=%r)" % delay
            )
        self.schedule_at_pooled(self.now + delay, callback)

    def schedule_at_pooled(self, time: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule_at` using the handle freelist.
        One call per message stage: the freelist pop and the FIFO insert
        (:meth:`_enqueue_fifo`'s) run in this frame."""
        if not self.now <= time < inf:  # false for NaN too
            if not isfinite(time):
                raise SimulationError("cannot schedule at non-finite time %r" % time)
            raise SimulationError(
                "cannot schedule at %r, current time is %r" % (time, self.now)
            )
        pool = self._handle_pool
        if pool:
            handle = pool.pop()
            handle.callback = callback
            self._handles_reused += 1
        else:
            handle = EventHandle(callback, pooled=True)
            self._handles_created += 1
        if not self._fifo:
            self._enqueue_keyed(time, handle)
            return
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = handle
            heappush(self._times, time)
        elif bucket.__class__ is EventHandle:
            spare = self._bucket_pool
            queue = spare.pop() if spare else deque()
            queue.append(bucket)
            queue.append(handle)
            buckets[time] = queue
        else:
            bucket.append(handle)  # type: ignore[union-attr]

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return sum(
            1 if bucket.__class__ is EventHandle else len(bucket)  # type: ignore[arg-type]
            for bucket in self._buckets.values()
        )

    def pool_stats(self) -> Dict[str, int]:
        """Handle-freelist traffic: constructed, recycled, and idle."""
        return {
            "created": self._handles_created,
            "reused": self._handles_reused,
            "free": len(self._handle_pool),
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _retire_bucket(self, time: float, bucket: object) -> None:
        """Drop the emptied head bucket and recycle its container (a
        bare handle has none)."""
        heappop(self._times)
        del self._buckets[time]
        if bucket.__class__ is not EventHandle:
            self._bucket_pool.append(bucket)

    def claim_inline_slot(self, time: float) -> bool:
        """Whether an event at ``time`` may run inline, skipping the queue.

        The message bus's same-timestamp delivery fast path asks this
        before invoking a callback directly instead of round-tripping it
        through a schedule/pop. Claiming succeeds only when running the
        callback *now* is provably identical to scheduling it: ``time``
        is the current instant and every queued event is strictly later
        (a freshly scheduled event would open the instant's only bucket,
        so it would be popped next anyway). Buckets retire when emptied
        and every queued entry runs, so the head timestamp is the next
        event's time and that proof is one comparison with it. A granted
        claim is charged like a popped event — ``events_run`` and the
        active ``max_events`` budget — keeping accounting exact; when
        the budget is exhausted the claim is refused and the caller must
        schedule normally (the run loop then raises before executing).
        """
        if time != self.now:
            return False
        times = self._times
        if times and times[0] <= time:
            return False
        budget = self._budget
        if budget is not None:
            if budget <= 0:
                return False
            self._budget = budget - 1
        self.events_run.value += 1
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.event_executed(time)
        return True

    def step(self) -> bool:
        """Run the next event; returns False when none remain."""
        times = self._times
        if not times:
            return False
        time = times[0]
        bucket = self._buckets[time]
        if bucket.__class__ is EventHandle:
            handle = bucket
        elif self._fifo:
            handle = bucket.popleft()  # type: ignore[attr-defined]
        else:
            handle = heappop(bucket)[1]  # type: ignore[arg-type]
        if handle is bucket or not bucket:
            self._retire_bucket(time, bucket)
        callback = handle.callback
        handle.callback = None
        if handle.pooled:
            self._handle_pool.append(handle)
        self.now = time
        self.events_run.value += 1
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.event_executed(time)
        callback()  # type: ignore[misc]
        return True

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains; returns events executed.

        ``max_events`` guards against protocol bugs that would otherwise
        spin forever: at most ``max_events`` events are executed, and
        needing more raises :class:`SimulationError`. The bound is
        exact (a run that quiesces in exactly ``max_events`` events
        succeeds; one that would need ``max_events + 1`` never runs the
        extra event), and events the bus delivers inline count against
        it like any other.
        """
        return self._run(inf, max_events)

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run all events scheduled strictly before ``time``; advances
        the clock to ``time``. ``max_events`` bounds execution exactly,
        as in :meth:`run_until_idle`."""
        executed = self._run(time, max_events)
        if time > self.now:
            self.now = time
        return executed

    def _run(self, limit: float, max_events: Optional[int]) -> int:
        """The dispatch loop behind both run methods: execute every
        event strictly before ``limit`` (``inf`` drains the queue)."""
        times = self._times
        buckets = self._buckets
        fifo = self._fifo
        bare = EventHandle
        handle_pool = self._handle_pool
        bucket_pool = self._bucket_pool
        events_run = self.events_run
        started = events_run.get()
        outer_budget = self._budget
        self._budget = max_events
        # Popped events are tallied locally and folded into the shared
        # counter once per batch (claim_inline_slot still charges its
        # inline deliveries directly, between the flushes).
        popped = 0
        try:
            while times and times[0] < limit:
                # Charge before popping: an exhausted budget must leave
                # the event queued.
                budget = self._budget  # re-read: inline deliveries consume it
                if budget is not None:
                    if budget <= 0:
                        raise SimulationError(
                            "simulation did not quiesce within %d events" % max_events
                            if limit == inf
                            else "too many events before time %r" % limit
                        )
                    self._budget = budget - 1
                time = times[0]
                bucket = buckets[time]
                # Pop, retiring the bucket with its last entry (_retire_bucket).
                if bucket.__class__ is bare:
                    handle = bucket
                    heappop(times)
                    del buckets[time]
                else:
                    if fifo:
                        handle = bucket.popleft()  # type: ignore[attr-defined]
                    else:
                        handle = heappop(bucket)[1]  # type: ignore[arg-type]
                    if not bucket:
                        heappop(times)
                        del buckets[time]
                        bucket_pool.append(bucket)
                callback = handle.callback
                handle.callback = None
                if handle.pooled:
                    handle_pool.append(handle)
                self.now = time
                popped += 1
                obs = _obs.ACTIVE
                if obs.enabled:
                    events_run.increment(popped)
                    popped = 0
                    obs.event_executed(time)
                callback()  # type: ignore[misc]
        finally:
            if popped:
                events_run.increment(popped)
            self._budget = outer_budget
        return events_run.get() - started
