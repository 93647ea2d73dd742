"""Coverage for the drop/retry path: in-flight bookkeeping across
undeliverable batches, and ``MAX_REROUTES`` exhaustion accounting."""

import pytest

from repro.errors import ProtocolError
from repro.runtime.combining import CombiningConfig
from repro.runtime.system import MAX_REROUTES, AdaptiveCountingSystem


class TestUndeliveredBatchBookkeeping:
    def test_inflight_empties_after_undeliverable_batch(self):
        """An undeliverable batch must take every one of its tokens off
        the bus (still owed, awaiting a retry) — a token left marked in
        flight would stall `drain_paths` (merges) forever."""
        system = AdaptiveCountingSystem(
            width=8, seed=41, initial_nodes=3, combining=CombiningConfig(window=0.5)
        )
        owner = system.directory.owner(())
        host = system.hosts[owner]
        tokens = [system.inject_token(wire=wire) for wire in range(3)]
        assert system.tokens_in_flight({()}) == 0  # waiting in the buffer
        system.combiner.flush_all()  # one three-token message
        assert system.bus.in_flight("token") == 1
        assert system.tokens_in_flight({()}) == 3
        # The owner silently disappears from the bus before delivery
        # (crash window): the batch bounces via on_undeliverable.
        system.bus.unregister(owner)
        system.advance(2.0)
        assert system.tokens_in_flight({()}) == 0
        assert [system.tokens_owed((), wire) for wire in range(3)] == [1, 1, 1]
        assert all(t.reroutes == 1 for t in tokens)
        # The process comes back; the scheduled retries deliver.
        system.bus.register(owner, host)
        system.run_until_quiescent()
        assert all(t.value is not None for t in tokens)
        assert system.tokens_in_flight({()}) == 0
        assert not system.live_tokens
        system.verify()

    def test_retry_chain_terminates_at_max_reroutes(self):
        """A token bouncing forever (owner never returns) is dropped
        after MAX_REROUTES retries, with the drop recorded in both
        stats and nothing left owed, in flight or live."""
        system = AdaptiveCountingSystem(
            width=8, seed=42, initial_nodes=3, auto_stabilize=False
        )
        owner = system.directory.owner(())
        token = system.inject_token(wire=0)
        system.bus.unregister(owner)
        system.run_until_quiescent()
        assert token.reroutes == MAX_REROUTES + 1
        assert token.value is None
        assert system.token_stats.dropped == 1
        assert system.stats.dropped_tokens == 1
        assert system.tokens_in_flight({()}) == 0
        assert system.tokens_owed((), 0) == 0
        assert not system.live_tokens
        assert system.sim.pending == 0


class TestMaxReroutesAccounting:
    def test_drops_counted_and_verify_passes(self):
        """Regression for the accounting bug: a dropped token used to
        leave `issued` permanently ahead of `retired`, so `verify()`
        raised forever even though the drop is the documented
        recovery-disabled behaviour. Drops are now flagged distinctly
        and `retired + dropped == issued` satisfies verification."""
        system = AdaptiveCountingSystem(
            width=16, seed=32, initial_nodes=10, auto_stabilize=False
        )
        system.converge()
        loaded = next(
            nid for nid, h in system.hosts.items() if h.component_count() > 0
        )
        for _ in range(10):
            system.inject_token()
        report = system.membership.crash(loaded)  # hole not repaired yet
        system.lost_components.update(report.lost_components)
        system.lost_registry.update(report.lost_registry_entries)
        system.run_until_quiescent()
        stats = system.token_stats
        assert stats.dropped > 0  # seed 32: some tokens hit the hole
        assert stats.retired > 0  # ... and some retired normally
        assert stats.retired + stats.dropped == stats.issued
        assert stats.dropped == system.stats.dropped_tokens
        assert system.sim.pending == 0
        # Recovery eventually repairs the network; the already-dropped
        # tokens stay dropped, and verification must accept that state
        # instead of raising forever (the old behaviour).
        system.stabilize()
        system.run_until_quiescent()
        system.verify()  # raised before the fix

    def test_genuine_loss_still_caught(self):
        """A token unaccounted for (neither retired nor dropped) still
        fails verification, with the drop count in the message."""
        system = AdaptiveCountingSystem(width=8, seed=43)
        system.token_stats.issued += 1  # phantom token, no trace
        with pytest.raises(ProtocolError, match="lost without a trace"):
            system.verify()
