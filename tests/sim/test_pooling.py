"""Object-pool lifecycle and ABA regression tests.

Two freelists keep the simulator hot path allocation-free in steady
state: the per-bus :class:`Envelope` pool and the simulator's pooled
:class:`EventHandle` freelist. Recycling a record that something still
references is the classic ABA hazard; these tests pin the disciplines
that prevent it — generation stamps (envelopes), unobservability
(pooled handles), and extract-before-release (delivery paths).
"""

from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.node import MessageBus, SimulatedProcess


class Recorder(SimulatedProcess):
    """Records every payload it is handed, in order."""

    def __init__(self):
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def make_bus():
    sim = Simulator()
    bus = MessageBus(sim, ConstantLatency(1.0))
    receiver = Recorder()
    bus.register("a", receiver)
    return sim, bus, receiver


class TestEnvelopePool:
    def test_steady_state_reuses_one_envelope(self):
        sim, bus, receiver = make_bus()
        for index in range(50):
            bus.send("a", index)
            sim.run_until_idle()
        assert receiver.received == list(range(50))
        stats = bus.pool_stats()
        assert stats["created"] == 1
        assert stats["reused"] == 49
        assert stats["free"] == 1  # idle: the one record is home again

    def test_release_bumps_generation(self):
        """``send`` takes the record off the freelist and ``arrive`` puts
        it back, bumping its generation and scrubbing what it carried —
        on delivery and on a drop alike."""
        sim, bus, receiver = make_bus()
        bus.send("a", "m", on_undeliverable=lambda _message: None)
        (envelope,) = bus._envelopes
        assert bus.pool_stats()["free"] == 0
        assert envelope.message == "m" and envelope.mailbox is not None
        stamp = envelope.generation
        sim.run_until_idle()
        assert receiver.received == ["m"]
        assert envelope.generation == stamp + 1
        # Scrubbed on release: no payload, callback or mailbox is retained.
        assert envelope.message is None
        assert envelope.on_undeliverable is None
        assert envelope.kind is None and envelope.mailbox is None
        assert bus.pool_stats() == {"created": 1, "reused": 0, "free": 1}
        dropped = []
        bus.send("ghost", "lost", on_undeliverable=dropped.append)
        assert bus._envelopes == [envelope] and envelope.message == "lost"
        assert envelope.mailbox is None  # not registered when sent
        sim.run_until_idle()
        assert dropped == ["lost"]
        assert envelope.generation == stamp + 2
        assert envelope.message is None and envelope.on_undeliverable is None
        assert bus.pool_stats() == {"created": 1, "reused": 1, "free": 1}

    def test_reentrant_send_inside_handler_is_safe(self):
        """A handler that sends re-acquires the very envelope carrying
        the message being handled (extract-before-release): both
        deliveries must still be intact."""
        sim = Simulator()
        bus = MessageBus(sim, ConstantLatency(1.0))
        log = []

        class Chainer(SimulatedProcess):
            def handle_message(self, message):
                log.append(("a", message))
                if message == "first":
                    bus.send("b", "second")

        sink = Recorder()
        bus.register("a", Chainer())
        bus.register("b", sink)
        bus.send("a", "first")
        sim.run_until_idle()
        assert log == [("a", "first")]
        assert sink.received == ["second"]
        # One record served both legs.
        assert bus.pool_stats()["created"] == 1


class TestBurstDelivery:
    def test_same_edge_burst_delivers_in_send_order(self):
        """N sends on one edge at one instant arrive as N messages, in
        send order, with nothing left in flight."""
        sim, bus, receiver = make_bus()
        for index in range(5):
            bus.send("a", index, kind="token")
        sim.run_until_idle()
        assert receiver.received == [0, 1, 2, 3, 4]
        assert bus.messages_sent.get() == bus.messages_delivered.get() == 5
        assert bus.messages_dropped.get() == 0
        assert bus.in_flight("token") == 0


class TestHandlePool:
    def test_pooled_handles_recycle(self):
        sim = Simulator()
        fired = []
        for index in range(30):
            sim.schedule_pooled(0.5, lambda index=index: fired.append(index))
            sim.run_until_idle()
        assert fired == list(range(30))
        stats = sim.pool_stats()
        assert stats["created"] == 1
        assert stats["reused"] == 29
        assert stats["free"] == 1

    def test_schedule_never_pools(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert not handle.pooled
        sim.run_until_idle()
        # A caller-held handle must stay valid (and un-recycled)
        # indefinitely after firing.
        assert sim.pool_stats() == {"created": 0, "reused": 0, "free": 0}
        assert handle.callback is None


class TestSystemRecycling:
    def test_publish_pool_stats_snapshots_both_pools(self):
        from repro.runtime.system import AdaptiveCountingSystem

        system = AdaptiveCountingSystem(width=4, seed=7, initial_nodes=4)
        system.converge()
        system.inject_token()
        system.run_until_quiescent()
        snapshot = system.publish_pool_stats()
        assert set(snapshot) == {"envelopes", "handles"}
        for pool_stats in snapshot.values():
            assert set(pool_stats) == {"created", "reused", "free"}
        assert snapshot["handles"]["created"] > 0

    def test_snapshot_agrees_with_the_pools_own_accounting(self):
        from repro.runtime.system import AdaptiveCountingSystem

        system = AdaptiveCountingSystem(width=4, seed=3, initial_nodes=4)
        system.converge()
        for _ in range(10):
            system.inject_token()
        system.run_until_quiescent()
        snapshot = system.publish_pool_stats()
        assert snapshot["envelopes"] == system.bus.pool_stats()
        assert snapshot["handles"] == system.sim.pool_stats()
        # Quiescent: every envelope ever built is home on the freelist.
        envelopes = snapshot["envelopes"]
        assert envelopes["free"] == envelopes["created"]

    def test_publish_pool_stats_sets_recorder_gauges(self):
        from repro.obs.recorder import Recorder as ObsRecorder
        from repro.obs.recorder import recording
        from repro.runtime.system import AdaptiveCountingSystem

        system = AdaptiveCountingSystem(width=4, seed=3, initial_nodes=4)
        system.converge()
        with recording(ObsRecorder()) as recorder:
            system.inject_token()
            system.run_until_quiescent()
            snapshot = system.publish_pool_stats()
        metrics = recorder.metrics
        for name, stats in snapshot.items():
            assert metrics.gauge("pool.created", (name,)).value == stats["created"]
            assert metrics.gauge("pool.reused", (name,)).value == stats["reused"]
            assert metrics.gauge("pool.free", (name,)).value == stats["free"]
