"""Deep edge cases across the runtime: the paths churn actually hits."""

import random

import pytest

from repro.errors import ProtocolError, StepPropertyViolation
from repro.runtime.combining import CombiningConfig
from repro.runtime.reconfig import Reconfigurator
from repro.runtime.system import MAX_REROUTES, AdaptiveCountingSystem
from repro.runtime.tokens import Token, TokenStats
from repro.sim.latency import UniformLatency


def crash_and_converge_under_traffic(seed):
    """The width-64 recipe of ROADMAP item 1: 120 rounds of 64 tokens
    with crashes, joins and ``converge()`` while they are in flight."""
    system = AdaptiveCountingSystem(width=64, seed=seed, initial_nodes=300)
    system.converge()
    for iteration in range(120):
        system.advance(1.0)
        for _ in range(64):
            system.inject_token()
        if iteration % 3 == 0:
            system.crash_node()
        if iteration % 5 == 0:
            system.add_node()
        if iteration % 7 == 0:
            system.converge()
    system.run_until_quiescent()
    return system


def grow_and_shrink_under_variable_latency(seed, shrink="remove_node", combining=None):
    """Width 16 under ``UniformLatency(0.5, 2.0)``: 12 instants that each
    inject 16 tokens and add 3 nodes, then 12 that inject 16 and remove 3
    (``shrink``: leave or crash), with ``converge()`` every second
    instant while the tokens are in flight."""
    system = AdaptiveCountingSystem(
        width=16,
        seed=seed,
        latency=UniformLatency(0.5, 2.0, random.Random(seed)),
        combining=combining,
    )
    for change in (system.add_node, getattr(system, shrink)):
        for instant in range(12):
            system.advance(1.0)
            for _ in range(16):
                system.inject_token()
            for _ in range(3):
                change()
            if instant % 2 == 0:
                system.converge()
    system.converge()
    system.run_until_quiescent()
    return system


@pytest.fixture
def deferrals(monkeypatch):
    """For every split or merge deferred because its transfer was not
    exact, the number of tokens live at that moment."""
    live = []
    split, merge = Reconfigurator.split, Reconfigurator.merge

    def recorded_split(self, path):
        children = split(self, path)
        if not children:
            live.append(len(self.system.live_tokens))
        return children

    def recorded_merge(self, path, initiator):
        merged = merge(self, path, initiator)
        if merged is None:
            live.append(len(self.system.live_tokens))
        return merged

    monkeypatch.setattr(Reconfigurator, "split", recorded_split)
    monkeypatch.setattr(Reconfigurator, "merge", recorded_merge)
    return live


class TestTokenStats:
    def test_empty_stats(self):
        stats = TokenStats()
        assert stats.mean_hops == 0.0
        assert stats.mean_latency == 0.0

    def test_latency_property(self):
        token = Token(0, 0, issued_at=5.0)
        assert token.latency is None
        token.retired_at = 9.0
        assert token.latency == 4.0


class TestRerouteEdgeCases:
    def test_token_to_moved_component_rehomes(self):
        """A token addressed to a component that moved to a new home
        (join handoff) is re-sent to the new owner."""
        system = AdaptiveCountingSystem(width=16, seed=31, initial_nodes=8)
        system.converge()
        # inject, then immediately trigger handoffs while in flight
        for _ in range(10):
            system.inject_token()
        for _ in range(5):
            system.add_node()
        system.run_until_quiescent()
        assert system.token_stats.retired == 10
        system.verify()

    def test_reroute_into_a_partial_hole_waits_for_stabilisation(self):
        """Regression (ROADMAP 1(b)): the root is split and the node
        hosting ``(0,)``, ``(1,)`` and ``(5,)`` crashes, so a token
        addressed to the root descends into a subtree with survivors
        *and* a hole. That used to raise "input resolution fell through
        a leaf"; it is a hole like any other: wait, then recover."""
        system = AdaptiveCountingSystem(
            width=8, seed=1, initial_nodes=6, auto_stabilize=False
        )
        system.reconfig.split(())
        system.crash_node(system.directory.owner((0,)))
        assert sorted(system.directory.live_paths()) == [(2,), (3,), (4,)]
        tokens = [Token(port, port, system.sim.now) for port in range(8)]
        for port, token in enumerate(tokens):  # as inject_token would
            system.token_stats.issued.increment()
            system.live_tokens.add(token)
            system.injected_per_wire.increment(port)
            system.reroute_token((), port, token)
        assert [token.reroutes for token in tokens] == [1] * 8
        assert system.sim.pending == 8  # each in its retry wait
        system.stabilize()
        system.run_until_quiescent()
        assert sorted(token.value for token in tokens) == list(range(8))
        assert list(system.output_counts) == [1] * 8
        system.verify()

    def test_reroute_from_a_merged_away_address(self):
        """An address inside a whole component climbs the input wiring
        to it, in one reroute; a port only a sibling feeds has no
        address there — no token can be on that wire, so one that is
        raises."""
        system = AdaptiveCountingSystem(width=8, seed=1)
        token = Token(0, 6, system.sim.now)
        system.live_tokens.add(token)
        system.reroute_token((1,), 2, token)  # bottom half, its port 2
        assert token.reroutes == 1 and token.owed == ((), 6)
        with pytest.raises(ProtocolError, match="internal wire"):
            system.reroute_token((2,), 0, token)  # a merger's input

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_converge_with_tokens_in_flight_after_a_crash(self, seed, deferrals):
        """Regression (ROADMAP 1(c)): crashes *and* ``converge()`` with
        tokens in flight. Every token retired, and yet the quiescent
        outputs read imbalance 2 on these seeds (``x[7]=119, x[8]=121``
        on seed 0) — not because of the crashes: a split or merge made
        mid-stream, when a MERGER or MIX counter had emitted something
        other than what its children would have, moved tokens that had
        already left. Split and merge now wait for an exact point — and
        only ever wait with tokens in flight, which is why ``converge()``
        ends."""
        system = crash_and_converge_under_traffic(seed)
        assert system.token_stats.retired == system.token_stats.issued == 7680
        system.verify()
        assert deferrals and all(deferrals)

    def test_crash_with_tokens_in_flight_keeps_the_step_property(self):
        """Regression, same class as the one above (a crash with tokens
        in flight) in twenty times fewer steps, with no merge and no
        ``converge()`` in the loop. A token that reached the root's
        stale home (a join had re-homed it) used to have its debt
        settled by the host that did not have the component, so the
        root, reconstructed during the retry wait, counted it as arrived
        and started two wires late: ``[0, 0, 1, 1, 1, 1, 1, 0]``. The
        debt is now settled at the component."""
        system = AdaptiveCountingSystem(width=8, seed=2, initial_nodes=1)
        system.converge()
        for injected in range(1, 6):
            system.inject_token()
            if injected in (2, 4):
                system.add_node()
            if injected in (3, 5):
                system.crash_node()
        system.run_until_quiescent()
        assert list(system.output_counts) == [1, 1, 1, 1, 1, 0, 0, 0]
        assert system.token_stats.issued == system.token_stats.retired == 5
        assert system.token_stats.dropped == 0
        system.verify()

    def test_token_dropped_after_max_reroutes(self):
        """With recovery disabled and a permanent hole, tokens give up
        after MAX_REROUTES instead of retrying forever."""
        system = AdaptiveCountingSystem(
            width=16, seed=32, initial_nodes=10, auto_stabilize=False
        )
        system.converge()
        loaded = next(
            nid for nid, h in system.hosts.items() if h.component_count() > 0
        )
        for _ in range(10):
            system.inject_token()
        system.membership.crash(loaded)  # hole never repaired
        system.run_until_quiescent()
        lost = system.token_stats.issued - system.token_stats.retired
        assert lost >= 0
        if lost:
            assert system.stats.dropped_tokens >= 0
        # every retry chain terminated (queue drained without recovery)
        assert system.sim.pending == 0

    def test_stale_registry_entry_cleaned(self):
        """A merge request for a vanished subtree drops the registry
        entry instead of crashing the rules engine."""
        system = AdaptiveCountingSystem(width=16, seed=33, initial_nodes=4)
        host = next(iter(system.hosts.values()))
        host.record_splits([(2,)])  # no such live subtree
        actions = system.rules.evaluate(host)
        assert (2,) not in host.split_registry
        assert actions >= 0


class TestAdaptationUnderVariableLatency:
    """The rules split and merge while tokens are in flight and
    latencies vary — ROADMAP item 2's canary. Before split and merge
    waited for an exact point, ``verify()`` failed on 12 of these seeds
    (6, 7, 9, 15, ...), on 15 with crashes and on 13 with combining."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize(
        "shrink, combining",
        [
            pytest.param("remove_node", None, id="leave"),
            pytest.param("crash_node", None, id="crash"),
            pytest.param("remove_node", CombiningConfig(window=1.0), id="combining"),
        ],
    )
    def test_grow_and_shrink(self, seed, shrink, combining, deferrals):
        system = grow_and_shrink_under_variable_latency(seed, shrink, combining)
        system.verify()
        assert all(deferrals)  # no deferral at quiescence


class TestMembershipEdgeCases:
    def test_join_moves_frozen_component_with_buffer(self):
        """A frozen component (mid-reconfiguration) that must re-home on
        a join keeps its frozen flag and buffered tokens."""
        system = AdaptiveCountingSystem(width=16, seed=34)
        root_owner = system.directory.owner(())
        host = system.hosts[root_owner]
        host.freeze(())
        token = system.inject_token()
        system.run_until_quiescent()  # token parks in the buffer
        # force joins until the root's home moves
        moved = False
        for _ in range(50):
            system.add_node()
            new_owner = system.directory.owner(())
            if new_owner != root_owner:
                moved = True
                break
        if not moved:
            pytest.skip("hash never moved the root in 50 joins")
        new_host = system.hosts[system.directory.owner(())]
        assert () in new_host.frozen
        assert len(new_host.buffers[()]) == 1
        new_host.unfreeze(())
        port, parked = new_host.drain_buffer(())[0]
        system.send_token((), port, parked)
        system.run_until_quiescent()
        assert token.value is not None

    def test_leave_of_every_node_but_one(self):
        system = AdaptiveCountingSystem(width=16, seed=35, initial_nodes=12)
        system.converge()
        for _ in range(20):
            system.inject_token()
        system.run_until_quiescent()
        while system.num_nodes > 1:
            system.remove_node()
        system.converge()
        values = [system.next_value() for _ in range(5)]
        assert values == list(range(20, 25))
        system.verify()

    def test_crash_then_immediate_traffic(self):
        """Tokens injected between the crash and stabilisation retry
        until the component is restored."""
        system = AdaptiveCountingSystem(
            width=16, seed=36, initial_nodes=12, auto_stabilize=False
        )
        system.converge()
        loaded = next(
            nid for nid, h in system.hosts.items() if h.component_count() > 0
        )
        report = system.membership.crash(loaded)
        system.lost_components.update(report.lost_components)
        system.lost_registry.update(report.lost_registry_entries)
        tokens = [system.inject_token() for _ in range(10)]
        system.advance(3.0)  # tokens bounce off the hole and schedule retries
        system.stabilize()
        system.run_until_quiescent()
        assert all(t.value is not None for t in tokens)

    @pytest.mark.parametrize("seed", range(8))
    def test_a_merge_over_a_crash_hole_waits_for_recovery(self, seed):
        """With recovery deferred, a merge whose subtree holds a crash
        hole cannot fold: part of its past is in the hole. The rules keep
        the duty, count no action and leave the host unsettled, so the
        round after ``stabilize()`` merges. (``converge()`` used to raise
        ``InvalidTransitionError``, RSC206, here on every one of these
        seeds.)"""
        system = AdaptiveCountingSystem(
            width=16, seed=seed, initial_nodes=40, auto_stabilize=False
        )
        system.converge()
        for _ in range(34):
            system.remove_node()
        system.crash_node(next(nid for nid, h in system.hosts.items() if h.components))
        system.converge()
        held = {
            path
            for host in system.hosts.values()
            for path in host.split_registry
            if any(
                len(hole) > len(path) and hole[: len(path)] == path
                for hole in system.lost_components
            )
        }
        waiting = [host for host in system.hosts.values() if not host.settled]
        assert held and waiting
        assert all(host.split_registry & held for host in waiting)
        system.stabilize()
        system.converge()
        assert not any(system.directory.has_live_below(path) for path in held)
        system.verify()


class TestSystemValidation:
    def test_tree_without_wiring_rejected(self):
        from repro.core.decomposition import DecompositionTree

        with pytest.raises(ProtocolError):
            AdaptiveCountingSystem(width=8, tree=DecompositionTree(8))

    def test_width_taken_from_tree(self):
        from repro.core.decomposition import DecompositionTree
        from repro.core.wiring import Wiring

        tree = DecompositionTree(16)
        system = AdaptiveCountingSystem(width=16, tree=tree, wiring=Wiring(tree))
        assert system.width == 16
        assert len(system.output_counts) == len(system.injected_per_wire) == 16

    def test_width_disagreeing_with_the_tree_rejected(self):
        from repro.ext.periodic_adaptive import PeriodicWiring, periodic_tree

        tree = periodic_tree(8)
        with pytest.raises(ProtocolError):
            AdaptiveCountingSystem(
                width=16, seed=1, initial_nodes=3, tree=tree, wiring=PeriodicWiring(tree)
            )
        system = AdaptiveCountingSystem(
            width=8, seed=1, initial_nodes=3, tree=tree, wiring=PeriodicWiring(tree)
        )
        for _ in range(40):
            system.inject_token()
        system.run_until_quiescent()
        assert list(system.output_counts) == [5] * 8
        system.verify()

    def test_verify_rejects_outputs_without_the_step_property(self):
        system = AdaptiveCountingSystem(width=8, seed=37)
        for _ in range(6):
            system.inject_token()
        system.run_until_quiescent()
        counts = list(system.output_counts)
        assert counts == [1, 1, 1, 1, 1, 1, 0, 0]
        system.verify()
        counts[0], counts[7] = counts[7], counts[0]  # every token still retired
        system.output_counts.reset(counts)
        with pytest.raises(StepPropertyViolation):
            system.verify()

    def test_verify_rejects_inconsistent_component(self):
        system = AdaptiveCountingSystem(width=8, seed=37)
        owner = system.directory.owner(())
        system.hosts[owner].components[()].total = 5  # phantom departures
        with pytest.raises(ProtocolError):
            system.verify()
