"""Simulated processes and the message bus.

A :class:`SimulatedProcess` is anything that handles messages (the
runtime's node hosts). The :class:`MessageBus` delivers messages between
processes with sampled network latency and models a single-server
processing queue per process: each message occupies its destination for
``service_time`` simulated units, so a node that receives the whole
token stream (e.g. the one hosting the root component, or a central
counter) becomes a measurable throughput bottleneck — the effect
Section 2's motivating example is about.

Each registered address has one slotted :class:`Mailbox`: its process
and the time its service queue frees up. Delivery is driven by one
slotted :class:`Envelope` record per message (it replaced three nested
per-message closures): ``send`` schedules the envelope's ``arrive``
trampoline after network transit, and ``arrive`` either queues
``deliver`` behind the destination's service queue or — when the service
slot finishes now (zero service time) — delivers in the same frame,
charged as an event through :meth:`Simulator.claim_inline_slot`. The
delivery is the arrival's child at the same instant, so running it at
once is a legal order of that instant's events whatever else is queued
there. Each side of a hop makes one mailbox probe. A message whose
destination is gone is handed back to the sender's ``on_undeliverable``
callback, so one bound method serves every send; the bus keeps no
per-message count (``in_flight`` reads the envelopes).

Envelope pooling
----------------
Envelopes are drawn from a per-bus freelist by ``send`` and put back by
``arrive`` the moment their delivery (or drop) completes, making the
send→deliver hot path allocation-free in steady state. Recycling is
safe because ``arrive`` extracts every field it needs into locals
*before* releasing, so an envelope re-acquired by a re-entrant send
inside the message handler cannot corrupt the delivery in progress.
Each release bumps the envelope's ``generation`` stamp; anything that
holds an envelope reference across events must capture the stamp at
hold time and treat a mismatch as "this is a different message now".
Re-registered addresses get the same discipline from object identity:
an envelope keeps the mailbox it was sent to, and a re-registration
builds a new one, so mail for the old incarnation is never delivered to
the new.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional

from repro.core.atomics import AtomicCounter
from repro.errors import SimulationError
from repro.obs import recorder as _obs
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel


class SimulatedProcess:
    """Base class for message handlers attached to the bus."""

    def handle_message(self, message) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Mailbox:
    """One registration of an address: the process, and the simulated
    time its single-server service queue is busy until. Unregistering
    drops it and registering again builds a new one, so the object's
    identity is the incarnation."""

    __slots__ = ("process", "busy_until")

    def __init__(self, process: SimulatedProcess):
        self.process = process
        self.busy_until = 0.0


class Envelope:
    """One in-flight message: destination, payload, and delivery state.

    A single slotted record carries everything the two delivery stages
    need; its bound methods ``arrive`` and ``deliver`` are the event
    callbacks (the *delivery trampoline*), so sending a message costs
    one envelope instead of three closures with captured cells.
    ``arrival`` is ``arrive``, bound once when the record is built.
    ``mailbox`` is the addressee's mailbox at send time, or None if the
    address was not registered then (whoever registers first may take
    the mail). Envelopes are pool-owned: only :meth:`MessageBus.send`
    builds them (the RSC307 lint enforces this), and ``generation``
    counts how many times this record has been recycled — the ABA stamp
    for anything holding a reference across events.
    """

    __slots__ = (
        "bus",
        "to_address",
        "message",
        "kind",
        "on_undeliverable",
        "mailbox",
        "generation",
        "arrival",
    )

    def __init__(
        self,
        bus: "MessageBus",
        to_address: Hashable,
        message,
        kind: str,
        on_undeliverable: Optional[Callable[[object], None]],
        mailbox: Optional[Mailbox],
    ):
        self.bus = bus
        self.to_address = to_address
        self.message = message
        self.kind = kind
        self.on_undeliverable = on_undeliverable
        self.mailbox = mailbox
        self.generation = 0
        self.arrival = self.arrive

    def arrive(self, queued: bool = False) -> None:
        """Network transit ended: take a service slot, then deliver.

        One frame does the addressee check (one mailbox probe), the slot
        arithmetic, the envelope's release and — when the slot finishes
        now — the delivery itself, charged as an event by
        :meth:`Simulator.claim_inline_slot`. A slot that finishes later,
        or a spent ``max_events`` budget, schedules :meth:`deliver`,
        which re-enters here with ``queued`` set."""
        bus = self.bus
        mailbox = bus._mailboxes.get(self.to_address)
        sent_to = self.mailbox
        if sent_to is not None and mailbox is not sent_to:
            mailbox = None  # unregistered, or a different incarnation
        simulator = bus.simulator
        now = simulator.now
        obs = _obs.ACTIVE
        if mailbox is not None and not queued:
            busy = mailbox.busy_until
            finish = (busy if busy > now else now) + bus.service_time
            mailbox.busy_until = finish
            if obs.enabled:
                obs.bus_queued(now, self.kind, finish - now)
            if finish != now or not simulator.claim_inline_slot():
                simulator.schedule_at_pooled(finish, self.deliver)
                return
        # Extract everything before releasing: the released envelope may
        # be re-acquired by a send issued inside the handler below. The
        # generation bump invalidates any stamp captured while it was
        # live; a released envelope has no kind.
        kind = self.kind
        message = self.message
        on_undeliverable = self.on_undeliverable
        self.generation += 1
        self.message = self.on_undeliverable = self.kind = self.mailbox = None
        bus._envelope_pool.append(self)
        if mailbox is None:
            bus.messages_dropped.value += 1
            if obs.enabled:
                obs.bus_dropped(now, kind)
            if on_undeliverable is not None:
                on_undeliverable(message)
            return
        bus.messages_delivered.value += 1
        if obs.enabled:
            obs.bus_delivered(now, kind)
        mailbox.process.handle_message(message)

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
        #: Registered address -> its current incarnation's mailbox.
        self._mailboxes: Dict[Hashable, Mailbox] = {}
        self.messages_sent = AtomicCounter()
        self.messages_delivered = AtomicCounter()
        self.messages_dropped = AtomicCounter()
        #: Every envelope built (``in_flight`` reads their kinds), the
        #: freelist among them, and its traffic counters (sim-loop work
        #: only — taken in ``send``, put back in ``arrive``).
        self._envelopes: List[Envelope] = []
        self._envelope_pool: List[Envelope] = []
        self._envelopes_created = 0
        self._envelopes_reused = 0

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
        if address in self._mailboxes:
            raise SimulationError("address %r already registered" % (address,))
        self._mailboxes[address] = Mailbox(process)

    def unregister(self, address: Hashable) -> None:
        self._mailboxes.pop(address, None)

    def is_registered(self, address: Hashable) -> bool:
        return address in self._mailboxes

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
        self.messages_sent.value += 1
        simulator = self.simulator
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.bus_sent(simulator.now, kind)
        mailbox = self._mailboxes.get(to_address)
        pool = self._envelope_pool
        if pool:
            envelope = pool.pop()
            envelope.to_address = to_address
            envelope.message = message
            envelope.kind = kind
            envelope.on_undeliverable = on_undeliverable
            envelope.mailbox = mailbox
            self._envelopes_reused += 1
        else:
            self._envelopes_created += 1
            envelope = Envelope(self, to_address, message, kind, on_undeliverable, mailbox)
            self._envelopes.append(envelope)
        simulator.schedule_at_pooled(
            simulator.now + self.latency.sample(), envelope.arrival
        )
