"""The recorder: every instrumentation hook in the system, one object.

Hook sites across the stack (`sim.events`, `sim.node`, `runtime.tokens`,
`runtime.system`) all call methods on the *module-level* :data:`ACTIVE`
recorder:

    from repro.obs import recorder as _obs
    ...
    obs = _obs.ACTIVE
    if obs.enabled:
        obs.token_hop(now, token, path, port, batch_size)

Two implementations share the interface:

:class:`NullRecorder`
    The default. ``enabled`` is False and every method is a no-op, so
    the cost of an uninstrumented run is one module-attribute load and
    one truthiness test per hook site — the *null-object fast path*.

:class:`Recorder`
    The real thing: updates a :class:`~repro.obs.metrics.MetricsRegistry`
    and (optionally) a bounded :class:`~repro.obs.trace.TraceBuffer` of
    token-lifecycle spans. ``sample_every = N`` traces every N-th token
    (by ``token_id``, so sampling is deterministic and seed-independent)
    which keeps tracing affordable at ``large_churn`` scale; metrics
    always cover *all* tokens.

Install with :func:`install` / :func:`uninstall`, or the
:func:`recording` context manager which restores the previous recorder
on exit. All timestamps passed in are simulated time — the recorder
never reads a clock of its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Protocol, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import TraceBuffer, TraceEvent

__all__ = [
    "NullRecorder",
    "Recorder",
    "TokenLike",
    "ACTIVE",
    "NULL_RECORDER",
    "install",
    "uninstall",
    "recording",
]

Path = Tuple[int, ...]


class TokenLike(Protocol):
    """The token attributes the recorder reads.

    Structural on purpose: the hook signatures stay typed without this
    package importing the runtime layer (obs must sit below everything
    it instruments). Read-only properties, so any class carrying these
    attributes — ``repro.runtime.tokens.Token`` in practice — matches.
    """

    @property
    def token_id(self) -> int: ...

    @property
    def issued_at(self) -> float: ...

    @property
    def retired_at(self) -> Optional[float]: ...

    @property
    def latency(self) -> Optional[float]: ...

    @property
    def entry_wire(self) -> object: ...

    @property
    def exit_wire(self) -> object: ...

    @property
    def value(self) -> object: ...

    @property
    def hops(self) -> object: ...

    @property
    def reroutes(self) -> object: ...


class NullRecorder:
    """The no-op recorder: the interface, each method doing nothing.

    Also the base class of :class:`Recorder`, so the hook signatures
    are defined in exactly one place.
    """

    enabled = False

    # -- run structure --------------------------------------------------
    def begin_section(self, name: str) -> None:
        """Start a named section (one workload)."""

    # -- simulator ------------------------------------------------------
    def event_executed(self, ts: float) -> None:
        """One simulator event ran (popped or inline)."""

    # -- message bus ----------------------------------------------------
    def bus_sent(self, ts: float, kind: str) -> None:
        """A message entered the network."""

    def bus_queued(self, ts: float, kind: str, wait: float) -> None:
        """A message reached its destination's service queue; ``wait``
        is queue + service time until delivery."""

    def bus_delivered(self, ts: float, kind: str) -> None:
        """A message was handed to its destination process."""

    def bus_dropped(self, ts: float, kind: str) -> None:
        """A message was dropped (destination gone or re-registered)."""

    # -- token lifecycle ------------------------------------------------
    def token_injected(self, token: TokenLike) -> None:
        """A client injected ``token`` (ts = ``token.issued_at``)."""

    def token_hop(
        self, ts: float, token: TokenLike, path: Path, port: int, batch_size: int
    ) -> None:
        """``token`` was dispatched toward input ``port`` of the
        component at ``path`` in a batch of ``batch_size``."""

    def token_rerouted(self, ts: float, token: TokenLike) -> None:
        """``token`` hit a missing/moved component and was re-resolved
        or queued for retry."""

    def token_retired(self, token: TokenLike) -> None:
        """``token`` left the network (ts = ``token.retired_at``)."""

    def token_dropped(self, ts: float, token: TokenLike) -> None:
        """``token`` exhausted its reroute budget and gave up."""

    def owed_delta(self, delta: int) -> None:
        """The emitted-but-not-arrived ledger changed by ``delta``."""

    # -- object pools ---------------------------------------------------
    def pool_stats(self, name: str, created: int, reused: int, free: int) -> None:
        """Snapshot of one freelist's lifetime traffic (envelopes,
        tokens, event handles). Published at section boundaries, not per
        event — pools are hot-path machinery and must not pay an obs
        call per acquire."""

    # -- control plane --------------------------------------------------
    def stabilization(self, ts_begin: float, ts_end: float, restored: int) -> None:
        """One crash-recovery episode restored ``restored`` components."""


class Recorder(NullRecorder):
    """Metrics (always) and token-span tracing (optional, sampled)."""

    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: bool = False,
        trace_capacity: int = 65536,
        sample_every: int = 1,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace: Optional[TraceBuffer] = (
            TraceBuffer(trace_capacity) if trace else None
        )
        self.sample_every = sample_every
        #: Current section (Chrome pid); 0 until begin_section is called.
        self._pid = 0
        self._inflight = 0
        # Pre-bound unlabeled hot instruments (one dict miss each, once).
        metrics_registry = self.metrics
        self._c_events = metrics_registry.counter("sim.events_executed")
        self._c_hops = metrics_registry.counter("tokens.hops")
        self._c_injected = metrics_registry.counter("tokens.injected")
        self._c_retired = metrics_registry.counter("tokens.retired")
        self._c_dropped = metrics_registry.counter("tokens.dropped")
        self._c_reroutes = metrics_registry.counter("tokens.reroutes")
        self._g_owed = metrics_registry.gauge("tokens.owed")
        self._h_latency = metrics_registry.histogram("tokens.latency")
        self._h_batch = metrics_registry.histogram("tokens.batch_size")

    # -- helpers --------------------------------------------------------
    def _sampled(self, token_id: int) -> bool:
        return token_id % self.sample_every == 0

    def latency_histogram(self) -> Histogram:
        """The inject-to-retire latency histogram (all tokens)."""
        return self._h_latency

    # -- run structure --------------------------------------------------
    def begin_section(self, name: str) -> None:
        self._pid += 1
        trace = self.trace
        if trace is not None:
            trace.add(
                TraceEvent(
                    "process_name",
                    "__metadata",
                    "M",
                    0.0,
                    pid=self._pid,
                    args={"name": name},
                )
            )

    # -- simulator ------------------------------------------------------
    def event_executed(self, ts: float) -> None:
        self._c_events.inc()

    # -- message bus ----------------------------------------------------
    def bus_sent(self, ts: float, kind: str) -> None:
        self.metrics.counter("bus.sent", (kind,)).inc()

    def bus_queued(self, ts: float, kind: str, wait: float) -> None:
        self.metrics.histogram("bus.queue_wait", (kind,)).record(wait)

    def bus_delivered(self, ts: float, kind: str) -> None:
        self.metrics.counter("bus.delivered", (kind,)).inc()

    def bus_dropped(self, ts: float, kind: str) -> None:
        self.metrics.counter("bus.dropped", (kind,)).inc()

    # -- token lifecycle ------------------------------------------------
    def token_injected(self, token: TokenLike) -> None:
        self._c_injected.inc()
        self._inflight += 1
        trace = self.trace
        if trace is not None:
            ts = token.issued_at
            pid = self._pid
            trace.add(
                TraceEvent(
                    "tokens_in_flight",
                    "token",
                    "C",
                    ts,
                    pid=pid,
                    args={"in_flight": self._inflight},
                )
            )
            if self._sampled(token.token_id):
                trace.add(
                    TraceEvent(
                        "token",
                        "token",
                        "b",
                        ts,
                        pid=pid,
                        id=token.token_id,
                        args={"entry_wire": token.entry_wire},
                    )
                )

    def token_hop(
        self, ts: float, token: TokenLike, path: Path, port: int, batch_size: int
    ) -> None:
        self._c_hops.inc()
        self._h_batch.record(batch_size)
        trace = self.trace
        if trace is not None and self._sampled(token.token_id):
            trace.add(
                TraceEvent(
                    "hop",
                    "token",
                    "n",
                    ts,
                    pid=self._pid,
                    id=token.token_id,
                    args={
                        "path": list(path),
                        "port": port,
                        "batch_size": batch_size,
                        "hops": token.hops,
                    },
                )
            )

    def token_rerouted(self, ts: float, token: TokenLike) -> None:
        self._c_reroutes.inc()
        trace = self.trace
        if trace is not None and self._sampled(token.token_id):
            trace.add(
                TraceEvent(
                    "reroute",
                    "token",
                    "n",
                    ts,
                    pid=self._pid,
                    id=token.token_id,
                    args={"reroutes": token.reroutes},
                )
            )

    def token_retired(self, token: TokenLike) -> None:
        self._c_retired.inc()
        self._inflight -= 1
        latency = token.latency
        if latency is not None:
            self._h_latency.record(latency)
        trace = self.trace
        if trace is not None:
            retired_at = token.retired_at
            ts = retired_at if retired_at is not None else 0.0
            pid = self._pid
            trace.add(
                TraceEvent(
                    "tokens_in_flight",
                    "token",
                    "C",
                    ts,
                    pid=pid,
                    args={"in_flight": self._inflight},
                )
            )
            if self._sampled(token.token_id):
                trace.add(
                    TraceEvent(
                        "token",
                        "token",
                        "e",
                        ts,
                        pid=pid,
                        id=token.token_id,
                        args={
                            "value": token.value,
                            "exit_wire": token.exit_wire,
                            "hops": token.hops,
                            "reroutes": token.reroutes,
                        },
                    )
                )

    def token_dropped(self, ts: float, token: TokenLike) -> None:
        self._c_dropped.inc()
        self._inflight -= 1
        trace = self.trace
        if trace is not None:
            pid = self._pid
            trace.add(
                TraceEvent(
                    "tokens_in_flight",
                    "token",
                    "C",
                    ts,
                    pid=pid,
                    args={"in_flight": self._inflight},
                )
            )
            if self._sampled(token.token_id):
                trace.add(
                    TraceEvent(
                        "token",
                        "token",
                        "e",
                        ts,
                        pid=pid,
                        id=token.token_id,
                        args={"dropped": True, "reroutes": token.reroutes},
                    )
                )

    def owed_delta(self, delta: int) -> None:
        self._g_owed.add(delta)

    # -- object pools ---------------------------------------------------
    def pool_stats(self, name: str, created: int, reused: int, free: int) -> None:
        metrics = self.metrics
        metrics.gauge("pool.created", (name,)).set(created)
        metrics.gauge("pool.reused", (name,)).set(reused)
        metrics.gauge("pool.free", (name,)).set(free)

    # -- control plane --------------------------------------------------
    def stabilization(self, ts_begin: float, ts_end: float, restored: int) -> None:
        metrics = self.metrics
        metrics.counter("stabilize.episodes").inc()
        metrics.histogram("stabilize.restored").record(restored)
        metrics.histogram("stabilize.duration").record(ts_end - ts_begin)
        trace = self.trace
        if trace is not None:
            trace.add(
                TraceEvent(
                    "stabilize",
                    "control",
                    "X",
                    ts_begin,
                    pid=self._pid,
                    dur=ts_end - ts_begin,
                    args={"restored": restored},
                )
            )


#: The one shared no-op instance; hook sites compare overhead to this.
NULL_RECORDER = NullRecorder()

#: The currently installed recorder. Hook sites must read this through
#: the module (``_obs.ACTIVE``) so installs take effect immediately.
ACTIVE: NullRecorder = NULL_RECORDER


def install(recorder: NullRecorder) -> NullRecorder:
    """Make ``recorder`` the active recorder; returns it."""
    global ACTIVE
    ACTIVE = recorder
    return recorder


def uninstall() -> None:
    """Restore the null recorder (instrumentation off)."""
    global ACTIVE
    ACTIVE = NULL_RECORDER


@contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` for the duration of a ``with`` block,
    restoring whatever was active before (usually the null recorder)."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = recorder
    try:
        yield recorder
    finally:
        ACTIVE = previous
