"""The discrete-event engine: a clock and a calendar-queue event core.

Event storage
-------------
The queue is a *calendar queue* (timing wheel): events are grouped into
per-timestamp buckets (``_buckets``: time -> bucket) and a small binary
heap (``_times``) holds each distinct pending timestamp exactly once.
Message latencies share a handful of values, so the common case is an
O(1) append to an existing bucket and an O(1) pop from its front; the
heap is touched only when a timestamp appears or its bucket drains.

A bucket holds its instant's events in scheduling order: a ``deque``,
or the bare :class:`EventHandle` of an instant with one event (a steady
message stream opens one for nearly every send); a second event there
moves both into a pooled deque. A bucket retires with its last entry,
so none is ever empty: a callback that schedules into the instant it
just emptied opens a fresh bucket there, and one that still has entries
takes the new event at its back.

Same-instant ties
-----------------
The paper's model is asynchronous message passing: it fixes only time
order and causality (an event runs after the event that scheduled it).
Events that share an instant are concurrent, so any order of them that
respects causality is a legal schedule. Ties run FIFO by default: one
legal schedule, reproducible. A simulator built inside
:func:`shuffled_ties` draws another: each pop from a head bucket of
``n >= 2`` entries takes entry ``rng.randrange(n)`` in scheduling order,
and the others keep their order. A child scheduled into the current
instant joins the bucket after its parent has run and can be drawn
before any sibling still queued, so every legal order of a tie group
has positive probability. The message bus runs a zero-service delivery
inline, straight after its arrival (:meth:`Simulator.claim_inline_slot`),
so no draw splits the pair; that loses no outcome, because such an
arrival changes nothing a same-instant event could read. The
schedule-perturbation sanitizer (``repro check --sanitize``) runs the
scenario library this way.

Event lifecycle
---------------
``schedule``/``schedule_at`` wrap the callback in a slotted
:class:`EventHandle` and return it; a caller may keep it, so these
handles are never recycled. ``schedule_pooled``/``schedule_at_pooled``
are the fire-and-forget variants the message bus uses for both of its
delivery stages: they return nothing, so their handles come from a
simulator-owned freelist and go back to it when they fire (no caller
can hold a stale reference across a reuse); ``pool_stats`` reports its
traffic. An event cannot be cancelled: every queued entry runs.

The run methods share one dispatch loop that inlines :meth:`step` with
hoisted lookups and keeps the ``max_events`` bound *exact* through a
budget that the bus's inline deliveries also charge
(:meth:`Simulator.claim_inline_slot`): every executed event, popped or
inline, consumes one slot, and the bound raises before the event that
would exceed it.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from math import inf, isfinite
from random import Random
from typing import Callable, Deque, Dict, Iterator, List, Optional

from repro.core.atomics import AtomicCounter
from repro.errors import SimulationError
from repro.obs import recorder as _obs

#: The tie RNG a new :class:`Simulator` snapshots; ``None`` — the
#: default — means FIFO ties. Changed only by :func:`shuffled_ties`.
TIE_RNG: Optional[Random] = None


@contextmanager
def shuffled_ties(rng: Optional[Random]) -> Iterator[None]:
    """Shuffle same-instant ties with ``rng`` in simulators built inside
    the block (``None`` restores FIFO ties).

    This is the sanitizer's swap point, mirroring
    ``repro.obs.recorder.recording``: the module attribute changes only
    here, between runs, never while a simulator is executing. Every
    simulator built in the block draws from the one ``rng``, so a run
    is reproducible from its seed.
    """
    global TIE_RNG
    previous = TIE_RNG
    TIE_RNG = rng
    try:
        yield
    finally:
        TIE_RNG = previous


def _pop_drawn(bucket: Deque[EventHandle], rng: Random) -> EventHandle:
    """Pop entry ``rng.randrange(n)`` of a same-instant deque of ``n``
    entries, leaving the others in scheduling order (no draw for one)."""
    if len(bucket) == 1:
        return bucket.popleft()
    index = rng.randrange(len(bucket))
    bucket.rotate(-index)
    handle = bucket.popleft()
    bucket.rotate(index)
    return handle


def _time_error(time: float, now: float, action: str = "schedule at") -> SimulationError:
    """The error for a target ``time`` the clock cannot reach."""
    if not isfinite(time):
        return SimulationError("cannot %s non-finite time %r" % (action, time))
    return SimulationError("cannot %s %r, current time is %r" % (action, time, now))


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


class Simulator:
    """A deterministic discrete-event simulator: events run in time
    order, ties FIFO or as seeded by :func:`shuffled_ties`."""

    def __init__(self) -> None:
        #: Calendar buckets: timestamp -> same-timestamp events, never
        #: empty (a bucket retires with its last entry); a lone event
        #: is its bare handle.
        self._buckets: Dict[float, object] = {}
        #: One heap entry per distinct pending timestamp (the bucket
        #: anchors); kept in lockstep with ``_buckets``.
        self._times: List[float] = []
        #: Recycled empty bucket deques.
        self._bucket_pool: List[object] = []
        #: Freelist of fire-and-forget EventHandles plus its traffic
        #: counters (read by :meth:`pool_stats`, mutated only by the
        #: event loop).
        self._handle_pool: List[EventHandle] = []
        self._handles_created = 0
        self._handles_reused = 0
        #: Remaining ``max_events`` slots of the innermost bounded run,
        #: or None when unbounded; shared with the bus's inline path so
        #: the bound stays exact (see :meth:`claim_inline_slot`).
        self._budget: Optional[int] = None
        #: Same-instant tie RNG, fixed for the simulator's lifetime
        #: (None: FIFO ties).
        self._tie_rng = TIE_RNG
        self.now = 0.0
        self.events_run = AtomicCounter()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _enqueue(self, time: float, handle: EventHandle) -> None:
        """Insert into the bucket for ``time``: a new timestamp stores
        the bare handle, a second event there moves both into a deque
        (:meth:`schedule_at_pooled` restates this insert)."""
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
        if not self.now <= time < inf:  # false for NaN too
            raise _time_error(time, self.now)
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
        One call per message stage: the freelist pop and the bucket
        insert (:meth:`_enqueue`'s) run in this frame."""
        if not self.now <= time < inf:  # false for NaN too
            raise _time_error(time, self.now)
        pool = self._handle_pool
        if pool:
            handle = pool.pop()
            handle.callback = callback
            self._handles_reused += 1
        else:
            handle = EventHandle(callback, pooled=True)
            self._handles_created += 1
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
    def claim_inline_slot(self) -> bool:
        """Charge one event that runs inline, at ``now``, in its caller's
        frame instead of through a schedule/pop.

        The message bus delivers a zero-service arrival this way: the
        delivery is a child of the arrival, at the same instant, so
        running it straight after its parent is one legal order of the
        instant's events (see "Same-instant ties" above), whatever else
        is queued there. The claim is charged like a popped event
        (``events_run`` and the ``max_events`` budget) and refused only
        when the budget is spent: the caller then schedules normally and
        the run loop raises before the event runs.
        """
        budget = self._budget
        if budget is not None:
            if budget <= 0:
                return False
            self._budget = budget - 1
        self.events_run.value += 1
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.event_executed(self.now)
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
        elif self._tie_rng is None:
            handle = bucket.popleft()  # type: ignore[attr-defined]
        else:
            handle = _pop_drawn(bucket, self._tie_rng)  # type: ignore[arg-type]
        if handle is bucket or not bucket:
            heappop(times)
            del self._buckets[time]
            if handle is not bucket:
                self._bucket_pool.append(bucket)
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

        At most ``max_events`` events run (inline deliveries included),
        and needing one more raises :class:`SimulationError` before it
        runs — a guard against protocol bugs that would spin forever.
        """
        return self._run(inf, max_events)

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run all events scheduled strictly before ``time``; advances
        the clock to ``time``, which must be finite and not before
        ``now``. ``max_events`` bounds execution exactly, as in
        :meth:`run_until_idle`."""
        if not self.now <= time < inf:  # false for NaN too
            raise _time_error(time, self.now, "run until")
        executed = self._run(time, max_events)
        self.now = time
        return executed

    def _run(self, limit: float, max_events: Optional[int]) -> int:
        """The dispatch loop behind both run methods: execute every
        event strictly before ``limit`` (``inf`` drains the queue)."""
        times = self._times
        buckets = self._buckets
        tie_rng = self._tie_rng
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
                # Pop, retiring the bucket with its last entry.
                if bucket.__class__ is bare:
                    handle = bucket
                    heappop(times)
                    del buckets[time]
                else:
                    if tie_rng is None:
                        handle = bucket.popleft()  # type: ignore[attr-defined]
                    else:
                        handle = _pop_drawn(bucket, tie_rng)  # type: ignore[arg-type]
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
