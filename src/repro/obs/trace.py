"""Trace events and the bounded ring buffer (`repro.obs`).

A :class:`TraceEvent` is one record in Chrome ``trace_event`` terms
(https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
a phase character, a simulated-time timestamp, a (pid, tid) track, and
a small ``args`` payload. The phases this repo emits:

``B``/``E``
    Begin/end of a synchronous slice on a track.
``X``
    A complete slice (begin timestamp + duration in one record) — used
    for stabilization episodes.
``b``/``n``/``e``
    Async begin / instant / end, correlated by ``(cat, id)`` — used for
    token journeys: inject is ``b``, each per-balancer hop is an ``n``,
    retire/drop is ``e``, all sharing ``id = token_id``.
``C``
    A counter track sample (tokens in flight).
``M``
    Metadata (process/thread names for the viewer).

Timestamps are **simulated time only**, scaled by
:data:`MICROSECONDS_PER_SIM_UNIT` so one simulated time unit renders as
one millisecond in Perfetto / ``chrome://tracing``. The buffer is a
bounded ring: when full, the *oldest* events are discarded and counted
in ``dropped_events``, so tracing at ``large_churn`` scale costs bounded
memory and the tail of the run — usually the interesting part — is what
survives.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

__all__ = ["TraceEvent", "TraceBuffer", "MICROSECONDS_PER_SIM_UNIT"]

#: Chrome trace timestamps are microseconds; one simulated time unit is
#: rendered as one millisecond so typical runs (tens to thousands of
#: sim units) land in a comfortable zoom range.
MICROSECONDS_PER_SIM_UNIT = 1000.0


class TraceEvent:
    """One trace record; maps 1:1 onto a Chrome trace_event object."""

    __slots__ = ("name", "cat", "ph", "ts", "pid", "tid", "dur", "id", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        ph: str,
        ts: float,
        pid: int = 0,
        tid: int = 0,
        dur: Optional[float] = None,
        id: Optional[int] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.pid = pid
        self.tid = tid
        self.dur = dur
        self.id = id
        self.args = args

    def to_json(self) -> Dict[str, object]:
        """The Chrome trace_event object (sim time scaled to µs)."""
        event: Dict[str, object] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts * MICROSECONDS_PER_SIM_UNIT,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.dur is not None:
            event["dur"] = self.dur * MICROSECONDS_PER_SIM_UNIT
        if self.id is not None:
            # Async correlation ids are strings in the wild; keep ints
            # readable but stable.
            event["id"] = self.id
        if self.args is not None:
            event["args"] = self.args
        # Async phases require a scope-disambiguating category + id.
        if self.ph in ("b", "n", "e") and self.id is None:
            raise ValueError("async event %r needs an id" % self.name)
        return event

    def __repr__(self) -> str:
        return "TraceEvent(%r, ph=%r, ts=%r)" % (self.name, self.ph, self.ts)


class TraceBuffer:
    """A bounded ring of trace events.

    ``capacity`` bounds live memory; appends beyond it evict the oldest
    event and increment ``dropped_events``. ``metadata`` events (phase
    ``M``: process/thread names) are kept outside the ring so viewer
    labels survive even when the ring wraps.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("trace buffer capacity must be >= 1")
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        self._metadata: List[TraceEvent] = []
        self.recorded_events = 0
        self.dropped_events = 0

    def add(self, event: TraceEvent) -> None:
        if event.ph == "M":
            self._metadata.append(event)
            return
        self.recorded_events += 1
        if len(self._ring) == self.capacity:
            self.dropped_events += 1
        self._ring.append(event)

    def __len__(self) -> int:
        return len(self._metadata) + len(self._ring)

    def __iter__(self) -> Iterator[TraceEvent]:
        """Metadata first, then ring events in record order."""
        for event in self._metadata:
            yield event
        for event in self._ring:
            yield event

    def events(self) -> List[TraceEvent]:
        return list(self)
