"""Simulated processes and the message bus.

A :class:`SimulatedProcess` is anything that handles messages (the
runtime's node hosts). The :class:`MessageBus` delivers messages between
processes with sampled network latency and models a single-server
processing queue per process: each message occupies its destination for
``service_time`` simulated units, so a node that receives the whole
token stream (e.g. the one hosting the root component, or a central
counter) becomes a measurable throughput bottleneck — the effect
Section 2's motivating example is about.

Delivery is driven by one slotted :class:`Envelope` record per message
(it replaced three nested per-message closures): the bus schedules the
envelope's ``arrive`` trampoline after network transit, and ``arrive``
either queues ``deliver`` behind the destination's service queue or —
when the destination is idle, costs no service time, and the delivery
would provably be the very next event anyway — delivers in the same
frame via :meth:`Simulator.claim_inline_slot`, skipping the queue
round-trip without perturbing event order or accounting. A message
whose destination is gone is handed back to the sender's
``on_undeliverable`` callback, so one bound method serves every send;
the bus keeps no per-message count (``in_flight`` reads the envelopes).

Envelope pooling
----------------
Envelopes are drawn from a per-bus freelist and recycled the moment
their delivery (or drop) completes, making the send→deliver hot path
allocation-free in steady state. Recycling is safe because the delivery
paths extract every field they need into locals *before* releasing, so
an envelope re-acquired by a re-entrant send inside the message handler
cannot corrupt the delivery in progress. Each release bumps the
envelope's ``generation`` stamp; anything that holds an envelope
reference across events must capture the stamp at hold time and treat a
mismatch as "this is a different message now" — the same epoch-style
ABA discipline the bus already applies to re-registered addresses.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from repro.core.atomics import AtomicCounter, TokenLedger
from repro.errors import SimulationError
from repro.obs import recorder as _obs
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel


class SimulatedProcess:
    """Base class for message handlers attached to the bus."""

    def handle_message(self, message) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Envelope:
    """One in-flight message: destination, payload, and delivery state.

    A single slotted record carries everything the two delivery stages
    need; its bound methods ``arrive`` and ``deliver`` are the event
    callbacks (the *delivery trampoline*), so sending a message costs
    one envelope instead of three closures with captured cells.
    Envelopes are pool-owned: construct them only through
    :meth:`MessageBus._acquire_envelope` (the RSC307 lint enforces
    this), and ``generation`` counts how many times this record has
    been recycled — the ABA stamp for anything holding a reference
    across events.
    """

    __slots__ = (
        "bus",
        "to_address",
        "message",
        "kind",
        "on_undeliverable",
        "sent_epoch",
        "generation",
    )

    def __init__(
        self,
        bus: "MessageBus",
        to_address: Hashable,
        message,
        kind: str,
        on_undeliverable: Optional[Callable[[object], None]],
        sent_epoch: Optional[int],
    ):
        self.bus = bus
        self.to_address = to_address
        self.message = message
        self.kind = kind
        self.on_undeliverable = on_undeliverable
        self.sent_epoch = sent_epoch
        self.generation = 0

    def arrive(self, queued: bool = False) -> None:
        """Network transit ended: take a service slot, then deliver.

        One frame does the addressee check, the slot arithmetic and —
        for an idle destination with zero service cost, when the
        simulator certifies it is order- and accounting-identical — the
        delivery itself. Otherwise :meth:`deliver` is scheduled for the
        slot and re-enters here with ``queued`` set."""
        bus = self.bus
        to_address = self.to_address
        current = bus._processes.get(to_address)
        if (
            current is not None
            and self.sent_epoch is not None
            and bus._epoch_of(to_address) != self.sent_epoch
        ):
            current = None  # same address, different incarnation
        simulator = bus.simulator
        now = simulator.now
        obs = _obs.ACTIVE
        if current is not None and not queued:
            busy = bus._busy_of(to_address)
            finish = (busy if busy is not None and busy > now else now) + bus.service_time
            if finish != now:
                bus._busy_until[to_address] = finish
            # else: an idle destination with zero service cost stays
            # "busy until now", which any existing entry already implies.
            if obs.enabled:
                obs.bus_queued(now, self.kind, finish - now)
            if finish != now or not simulator.claim_inline_slot(now):
                simulator.schedule_at_pooled(finish, self.deliver)
                return
        # Extract everything before releasing: the released envelope may
        # be re-acquired by a send issued inside the handler below.
        kind = self.kind
        message = self.message
        on_undeliverable = self.on_undeliverable
        bus._release_envelope(self)
        if current is None:
            bus.messages_dropped.increment()
            if obs.enabled:
                obs.bus_dropped(now, kind)
            if on_undeliverable is not None:
                on_undeliverable(message)
            return
        bus.messages_delivered.increment()
        if obs.enabled:
            obs.bus_delivered(now, kind)
        current.handle_message(message)

    def deliver(self) -> None:
        """Service slot reached: hand the payload to the process (or
        drop it if the addressee went away while it queued)."""
        self.arrive(True)


class MessageBus:
    """Routes messages between registered processes.

    ``service_time`` is the per-message processing cost at the receiver
    (a single-server FIFO queue per process); ``latency`` is the network
    transit model. Both default to values that make unit tests
    deterministic.
    """

    def __init__(
        self,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
        service_time: float = 0.0,
    ):
        if service_time < 0:
            raise SimulationError("service time cannot be negative")
        self.simulator = simulator
        self.latency = latency or ConstantLatency(1.0)
        self.service_time = service_time
        self._processes: Dict[Hashable, SimulatedProcess] = {}
        self._busy_until: Dict[Hashable, float] = {}
        #: Monotonic per-address registration count. A message captures
        #: the destination's epoch at send time; if the address was
        #: unregistered and re-registered while the message was in
        #: flight, the new incarnation must not receive mail addressed
        #: to the old one (the classic re-registration ABA hazard).
        self._epochs: TokenLedger[Hashable] = TokenLedger()
        #: Hoisted lock-free readers (C-level ``dict.get``) for the two
        #: per-message lookups; neither map is ever reset or rebound, so
        #: the readers stay valid for the bus's lifetime.
        self._epoch_of = self._epochs.reader()
        self._busy_of = self._busy_until.get
        self.messages_sent = AtomicCounter()
        self.messages_delivered = AtomicCounter()
        self.messages_dropped = AtomicCounter()
        #: Every envelope built (``in_flight`` reads their kinds), the
        #: freelist among them, and its traffic counters (sim-loop work
        #: only — acquire in send, release at delivery/drop).
        self._envelopes: List[Envelope] = []
        self._envelope_pool: List[Envelope] = []
        self._envelopes_created = 0
        self._envelopes_reused = 0

    # ------------------------------------------------------------------
    # envelope pool
    # ------------------------------------------------------------------
    def _acquire_envelope(
        self,
        to_address: Hashable,
        message,
        kind: str,
        on_undeliverable: Optional[Callable[[object], None]],
        sent_epoch: Optional[int],
    ) -> Envelope:
        pool = self._envelope_pool
        if pool:
            envelope = pool.pop()
            envelope.to_address = to_address
            envelope.message = message
            envelope.kind = kind
            envelope.on_undeliverable = on_undeliverable
            envelope.sent_epoch = sent_epoch
            self._envelopes_reused += 1
            return envelope
        self._envelopes_created += 1
        envelope = Envelope(self, to_address, message, kind, on_undeliverable, sent_epoch)
        self._envelopes.append(envelope)
        return envelope

    def _release_envelope(self, envelope: Envelope) -> None:
        # The generation bump invalidates any stamp captured while the
        # envelope was live; a released envelope has no kind.
        envelope.generation += 1
        envelope.message = envelope.on_undeliverable = envelope.kind = None
        self._envelope_pool.append(envelope)

    def pool_stats(self) -> Dict[str, int]:
        """Envelope-freelist traffic: constructed, recycled, and idle."""
        return {
            "created": self._envelopes_created,
            "reused": self._envelopes_reused,
            "free": len(self._envelope_pool),
        }

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, address: Hashable, process: SimulatedProcess) -> None:
        if address in self._processes:
            raise SimulationError("address %r already registered" % (address,))
        self._processes[address] = process
        self._epochs.post(address)

    def unregister(self, address: Hashable) -> None:
        # The epoch entry deliberately survives: it must keep growing
        # across re-registrations of the same address.
        self._processes.pop(address, None)
        self._busy_until.pop(address, None)

    def is_registered(self, address: Hashable) -> bool:
        return address in self._processes

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def in_flight(self, kind: str) -> int:
        """Messages of a given kind sent but not yet handled: read off
        the live envelopes when asked, not kept per message."""
        return sum(1 for envelope in self._envelopes if envelope.kind == kind)

    def send(
        self,
        to_address: Hashable,
        message,
        kind: str = "message",
        on_undeliverable: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Deliver ``message`` to ``to_address`` after latency + queueing.

        If the destination is gone at delivery time (crash), the message
        is dropped and ``on_undeliverable`` (if given) receives it
        instead — this is how neighbours notice lost components, and
        why a sender can pass one bound method for every message.
        """
        self.messages_sent.increment()
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.bus_sent(self.simulator.now, kind)
        # None when the destination is not registered yet: such mail may
        # be picked up by whoever registers first (existing semantics —
        # a registered address always has an epoch entry, so the hoisted
        # raw reader is equivalent to the ledger get here).
        sent_epoch = self._epoch_of(to_address) if to_address in self._processes else None
        envelope = self._acquire_envelope(
            to_address, message, kind, on_undeliverable, sent_epoch
        )
        transit = self.latency.sample()
        # Schedule-perturbation sanitizer hook: an installed policy may
        # stretch network transit by bounded jitter (0.0 by default).
        simulator = self.simulator
        policy = simulator.policy
        if policy is not None:
            transit += policy.delivery_jitter()
        simulator.schedule_pooled(transit, envelope.arrive)
