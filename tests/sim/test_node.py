"""Tests for the message bus and per-node service queues."""

import random

import pytest

import repro.runtime.system as counting_system

from repro.errors import SimulationError
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.node import MessageBus, SimulatedProcess


class Recorder(SimulatedProcess):
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def handle_message(self, message):
        self.received.append((message, self.sim.now))


@pytest.fixture
def setup():
    sim = Simulator()
    bus = MessageBus(sim, ConstantLatency(1.0))
    return sim, bus


class TestDelivery:
    def test_basic_delivery_with_latency(self, setup):
        sim, bus = setup
        proc = Recorder(sim)
        bus.register("a", proc)
        bus.send("a", "hello")
        sim.run_until_idle()
        assert proc.received == [("hello", 1.0)]
        assert bus.messages_delivered == 1

    def test_duplicate_registration_rejected(self, setup):
        _sim, bus = setup
        bus.register("a", Recorder(None))
        with pytest.raises(SimulationError):
            bus.register("a", Recorder(None))

    def test_undeliverable_runs_callback(self, setup):
        sim, bus = setup
        failures = []
        bus.send("ghost", "msg", on_undeliverable=failures.append)
        sim.run_until_idle()
        assert failures == ["msg"]  # the callback receives the message
        assert bus.messages_dropped == 1

    def test_unregister_mid_flight(self, setup):
        sim, bus = setup
        proc = Recorder(sim)
        bus.register("a", proc)
        failures = []
        bus.send("a", "msg", on_undeliverable=lambda _message: failures.append(1))
        bus.unregister("a")
        sim.run_until_idle()
        assert proc.received == []
        assert failures == [1]

    def test_negative_service_time_rejected(self):
        with pytest.raises(SimulationError):
            MessageBus(Simulator(), service_time=-1.0)

    def test_reregistered_address_does_not_inherit_old_mail(self, setup):
        """A message in flight toward a process that unregisters must not
        be delivered to a *different* process that re-registers at the
        same address (re-registration ABA)."""
        sim, bus = setup
        old, new = Recorder(sim), Recorder(sim)
        bus.register("a", old)
        failures = []
        bus.send("a", "for-old", on_undeliverable=lambda _message: failures.append(1))
        bus.unregister("a")
        bus.register("a", new)
        sim.run_until_idle()
        assert old.received == []
        assert new.received == []
        assert failures == [1]
        assert bus.messages_dropped == 1

    def test_mail_sent_before_registration_is_delivered(self, setup):
        """Sends to a not-yet-registered address still reach whoever
        registers before delivery (existing semantics preserved)."""
        sim, bus = setup
        proc = Recorder(sim)
        bus.send("a", "early")
        bus.register("a", proc)
        sim.run_until_idle()
        assert [m for (m, _t) in proc.received] == ["early"]


class TestServiceQueue:
    def test_messages_queue_at_busy_node(self):
        """With service time s, n simultaneous messages finish at
        latency + i*s — the single-server bottleneck."""
        sim = Simulator()
        bus = MessageBus(sim, ConstantLatency(1.0), service_time=2.0)
        proc = Recorder(sim)
        bus.register("a", proc)
        for i in range(3):
            bus.send("a", i)
        sim.run_until_idle()
        times = [t for (_m, t) in proc.received]
        assert times == [3.0, 5.0, 7.0]

    def test_reregistered_address_starts_with_a_fresh_queue(self):
        """The service queue belongs to the registration, not to the
        address: a process that registers where a busy one left does not
        wait behind the old one's backlog, which is dropped."""
        sim = Simulator()
        bus = MessageBus(sim, ConstantLatency(1.0), service_time=2.0)
        old, new = Recorder(sim), Recorder(sim)
        bus.register("a", old)
        failures = []
        for i in range(3):
            bus.send("a", i, on_undeliverable=failures.append)
        sim.run_until(3.5)  # all three arrived: the queue is busy until 7.0
        bus.unregister("a")
        bus.register("a", new)
        bus.send("a", "late")
        sim.run_until_idle()
        assert old.received == [(0, 3.0)]
        assert new.received == [("late", 6.5)]  # 4.5 + 2.0, not 7.0 + 2.0
        assert failures == [1, 2]

    def test_independent_nodes_run_in_parallel(self):
        sim = Simulator()
        bus = MessageBus(sim, ConstantLatency(1.0), service_time=2.0)
        a, b = Recorder(sim), Recorder(sim)
        bus.register("a", a)
        bus.register("b", b)
        bus.send("a", "x")
        bus.send("b", "y")
        sim.run_until_idle()
        assert a.received[0][1] == 3.0
        assert b.received[0][1] == 3.0  # not serialised across nodes


class TestDeliveryOnArrival:
    """A zero-service arrival is handled in the pop that brings it; a
    delivery queues only behind a positive service time or a spent
    ``max_events`` budget."""

    def test_zero_service_arrival_sharing_its_instant_is_handled_in_its_own_pop(self):
        sim = Simulator()
        bus = MessageBus(sim, ConstantLatency(1.0))
        proc = Recorder(sim)
        bus.register("a", proc)
        order = []
        bus.send("a", "m")
        sim.schedule_at(1.0, lambda: order.append(("foreign", list(proc.received))))
        assert sim.step()  # the arrival: the foreign event at 1.0 is still queued
        assert proc.received == [("m", 1.0)]
        assert sim.pending == 1 and int(sim.events_run) == 2  # the pop and the inline delivery
        assert sim.step() and not sim.step()
        assert order == [("foreign", [("m", 1.0)])]
        stats = sim.pool_stats()
        assert stats["created"] + stats["reused"] == 1  # one queued event for the message

    def test_positive_service_time_still_queues(self):
        sim = Simulator()
        bus = MessageBus(sim, ConstantLatency(1.0), service_time=0.5)
        proc = Recorder(sim)
        bus.register("a", proc)
        bus.send("a", "m")
        assert sim.step()  # the arrival takes the slot and queues the delivery
        assert proc.received == [] and sim.pending == 1
        assert sim.run_until_idle() == 1
        assert proc.received == [("m", 1.5)]
        stats = sim.pool_stats()
        assert int(sim.events_run) == 2 and stats["created"] + stats["reused"] == 2

    def test_a_spent_budget_queues_the_delivery(self):
        sim = Simulator()
        bus = MessageBus(sim, ConstantLatency(1.0))
        proc = Recorder(sim)
        bus.register("a", proc)
        bus.send("a", "m")
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=1)
        assert proc.received == [] and sim.pending == 1
        assert sim.run_until_idle() == 1
        assert proc.received == [("m", 1.0)]


class TestInFlightAccounting:
    def test_kind_counters(self, setup):
        sim, bus = setup
        proc = Recorder(sim)
        bus.register("a", proc)
        bus.send("a", "t1", kind="token")
        bus.send("a", "t2", kind="token")
        bus.send("a", "c1", kind="control")
        assert bus.in_flight("token") == 2
        assert bus.in_flight("control") == 1
        sim.run_until_idle()
        assert bus.in_flight("token") == 0
        assert bus.in_flight("control") == 0


# ----------------------------------------------------------------------
# Schedule equivalence: envelope pipeline vs the old closure pipeline
# ----------------------------------------------------------------------


class ClosureMessageBus(MessageBus):
    """The pre-refactor closure-based ``send``, kept as a reference model.

    It keeps the original delivery pipeline's shape: three nested
    per-message closures (``addressee`` / ``arrive`` / ``process_it``),
    no :class:`Envelope`, no claim on the simulator and no mailboxes:
    its own process, registration-epoch and busy-until dicts. Its one
    rule change is the model's: a message whose service slot finishes
    the moment it arrives (zero service time) is handled then, in the
    arrival's event, charged as one more executed event; a later finish
    is a separately scheduled event. The equivalence tests below drive
    identical seeded workloads through this bus and the mailbox bus
    and require bit-identical schedules.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._processes = {}
        #: Per-address registration count, never reset: mail captures
        #: it at send time and must find it unchanged at delivery.
        self._epochs = {}
        self._busy_until = {}

    def register(self, address, process):
        if address in self._processes:
            raise SimulationError("address %r already registered" % (address,))
        self._processes[address] = process
        self._epochs[address] = self._epochs.get(address, 0) + 1

    def unregister(self, address):
        self._processes.pop(address, None)
        self._busy_until.pop(address, None)

    def is_registered(self, address):
        return address in self._processes

    def send(self, to_address, message, kind="message", on_undeliverable=None):
        self.messages_sent += 1
        transit = self.latency.sample()
        sent_epoch = self._epochs.get(to_address) if self.is_registered(to_address) else None

        def addressee():
            process = self._processes.get(to_address)
            if process is None:
                return None
            if sent_epoch is not None and self._epochs.get(to_address) != sent_epoch:
                return None  # same address, different incarnation
            return process

        def arrive():
            if addressee() is None:
                self.messages_dropped += 1
                if on_undeliverable is not None:
                    on_undeliverable(message)
                return
            start = max(self.simulator.now, self._busy_until.get(to_address, 0.0))
            finish = start + self.service_time
            self._busy_until[to_address] = finish

            def process_it():
                current = addressee()
                if current is None:
                    self.messages_dropped += 1
                    if on_undeliverable is not None:
                        on_undeliverable(message)
                    return
                self.messages_delivered += 1
                current.handle_message(message)

            if finish == self.simulator.now:
                self.simulator.events_run.value += 1
                process_it()
            else:
                self.simulator.schedule_at(finish, process_it)

        self.simulator.schedule(transit, arrive)


class _SeededLatency:
    """Deterministic latency with integer ties and zero-transit sends,
    chosen to stress the same-timestamp inline fast path."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def sample(self):
        return self._rng.choice((0.0, 1.0, 1.0, 2.0, 3.0))


class _Forwarder(SimulatedProcess):
    """Logs every delivery and sometimes re-sends from handler context."""

    def __init__(self, name, sim, bus, rng, names, log):
        self.name = name
        self.sim = sim
        self.bus = bus
        self.rng = rng
        self.names = names
        self.log = log

    def handle_message(self, message):
        payload, ttl = message
        self.log.append((self.name, payload, self.sim.now))
        if ttl > 0:
            self.bus.send(self.rng.choice(self.names), (payload, ttl - 1), kind="token")


def _run_bus_trace(bus_cls, seed):
    """One seeded churn-and-forward workload; returns everything
    observable about its schedule."""
    sim = Simulator()
    bus = bus_cls(sim, _SeededLatency(seed))
    rng = random.Random(seed + 1)
    names = ["n%d" % i for i in range(6)]
    log = []
    drops = []

    def spawn(name):
        bus.register(name, _Forwarder(name, sim, bus, rng, names, log))

    for name in names[:4]:
        spawn(name)
    for step in range(150):
        roll = rng.random()
        target = rng.choice(names)
        if roll < 0.08:
            bus.unregister(target)
        elif roll < 0.16:
            if not bus.is_registered(target):
                spawn(target)
        elif roll < 0.24:
            # A foreign event tied with arrivals: it runs after every
            # zero-service delivery whose arrival is ahead of it.
            def leave(target=target):
                log.append(("leave", target, sim.now))
                bus.unregister(target)

            sim.schedule_at(sim.now + rng.choice((0.0, 1.0, 2.0)), leave)
        else:
            bus.send(
                target,
                (step, rng.randrange(3)),
                kind="token",
                on_undeliverable=lambda _message, s=step: drops.append((s, sim.now)),
            )
        if roll > 0.6:
            sim.run_until(sim.now + rng.choice((0.0, 1.0, 2.0)))
    sim.run_until_idle()
    return (
        log,
        drops,
        sim.events_run,
        sim.now,
        bus.messages_sent,
        bus.messages_delivered,
        bus.messages_dropped,
    )


def _run_counting_workload(seed, bus_cls):
    """A seeded end-to-end counting run (inject + churn) on ``bus_cls``,
    installed via the module attribute the system constructs from."""
    original = counting_system.MessageBus
    counting_system.MessageBus = bus_cls
    try:
        system = counting_system.AdaptiveCountingSystem(width=8, seed=seed, initial_nodes=8)
        system.converge()
        retired = []
        system.on_retire(
            lambda t: retired.append((t.token_id, t.value, t.exit_wire, t.retired_at))
        )
        rng = random.Random(seed + 99)
        for _step in range(80):
            roll = rng.random()
            if roll < 0.06:
                system.add_node()
            elif roll < 0.12 and system.num_nodes > 4:
                system.crash_node()
            system.inject_token()
            if roll > 0.5:
                system.advance(rng.choice((0.5, 1.0, 2.0)))
        system.run_until_quiescent()
        system.verify()
        return (
            system.sim.events_run,
            system.sim.now,
            retired,
            system.bus.messages_sent,
            system.bus.messages_delivered,
            system.bus.messages_dropped,
        )
    finally:
        counting_system.MessageBus = original


class TestScheduleEquivalence:
    """The envelope bus must be *schedule-equivalent* to the closure
    pipeline: identical event counts, delivery order and times, drops,
    and accounting on any seeded workload."""

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_bus_traces_identical(self, seed):
        assert _run_bus_trace(MessageBus, seed) == _run_bus_trace(ClosureMessageBus, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_counting_system_runs_identical(self, seed):
        envelope = _run_counting_workload(seed, MessageBus)
        closure = _run_counting_workload(seed, ClosureMessageBus)
        assert envelope == closure
        assert envelope[2], "workload retired no tokens — not a meaningful check"
