"""Tests for the distributed split/merge protocols (paper Section 2.2)."""

import pytest

from repro.errors import ComponentNotFound, ProtocolError
from repro.runtime.combining import CombiningConfig
from repro.runtime.system import AdaptiveCountingSystem


@pytest.fixture
def system():
    return AdaptiveCountingSystem(width=16, seed=2, initial_nodes=6)


class TestSplitProtocol:
    def test_split_replaces_member(self, system):
        new_paths = system.reconfig.split(())
        assert sorted(new_paths) == [(i,) for i in range(6)]
        assert not system.directory.is_live(())
        assert all(system.directory.is_live(p) for p in new_paths)
        system.directory.check_consistent()

    def test_split_records_registry(self, system):
        owner = system.directory.owner(())
        system.reconfig.split(())
        assert () in system.hosts[owner].split_registry

    def test_split_transfers_state(self, system):
        for _ in range(10):
            system.inject_token()
        system.run_until_quiescent()
        system.reconfig.split(())
        totals = {
            p: system.hosts[system.directory.owner(p)].components[p].total
            for p in system.directory.live_paths()
        }
        # Tokens that left the parent equal the MIX children's totals.
        assert totals[(4,)] + totals[(5,)] == 10

    def test_split_counts_stats(self, system):
        system.reconfig.split(())
        assert system.stats.splits == 1
        assert system.stats.control_messages >= 12  # install+ack per child

    def test_split_dead_path_rejected(self, system):
        with pytest.raises(ComponentNotFound):
            system.reconfig.split((3,))

    def test_split_leaf_rejected(self):
        system = AdaptiveCountingSystem(width=4, seed=3)
        system.reconfig.split(())
        leaf = sorted(system.directory.live_paths())[0]
        with pytest.raises(ProtocolError):
            system.reconfig.split(leaf)

    def test_tokens_buffered_during_split_are_forwarded(self, system):
        """Tokens arriving while the component is frozen still count."""
        for _ in range(5):
            system.inject_token()
        # do NOT quiesce: tokens are in flight while we split
        system.reconfig.split(())
        system.run_until_quiescent()
        assert system.token_stats.retired == 5
        system.verify()

    def test_counting_unaffected_by_split(self, system):
        before = [system.next_value() for _ in range(10)]
        system.reconfig.split(())
        system.run_until_quiescent()
        after = [system.next_value() for _ in range(10)]
        assert sorted(before + after) == list(range(20))


class TestMergeProtocol:
    def test_merge_restores_member(self, system):
        owner = system.directory.owner(())
        system.reconfig.split(())
        system.run_until_quiescent()
        system.reconfig.merge((), system.hosts[owner])
        assert system.directory.is_live(())
        assert len(system.directory) == 1
        system.directory.check_consistent()

    def test_merge_exact_state_roundtrip(self, system):
        for _ in range(13):
            system.inject_token()
        system.run_until_quiescent()
        owner = system.directory.owner(())
        before = system.hosts[owner].components[()].copy()
        system.reconfig.split(())
        system.run_until_quiescent()
        initiator = system.hosts[owner]
        system.reconfig.merge((), initiator)
        new_owner = system.directory.owner(())
        after = system.hosts[new_owner].components[()]
        assert after.total == before.total
        assert after.arrivals == before.arrivals

    def test_merge_clears_registry(self, system):
        owner = system.directory.owner(())
        system.reconfig.split(())
        system.reconfig.merge((), system.hosts[owner])
        assert () not in system.hosts[owner].split_registry

    def test_recursive_merge(self, system):
        owner = system.directory.owner(())
        system.reconfig.split(())
        system.reconfig.split((0,))
        system.reconfig.split((2,))
        system.run_until_quiescent()
        assert len(system.directory) == 14
        system.reconfig.merge((), system.hosts[owner])
        assert len(system.directory) == 1
        system.directory.check_consistent()

    def test_merge_nothing_raises(self, system):
        host = next(iter(system.hosts.values()))
        with pytest.raises(ComponentNotFound):
            system.reconfig.merge((2,), host)

    def test_merge_already_live_is_noop(self, system):
        host = next(iter(system.hosts.values()))
        host.record_splits([()])
        system.reconfig.merge((), host)
        assert () not in host.split_registry
        assert system.stats.merges == 0

    def test_merge_with_inflight_tokens_drains(self, system):
        system.reconfig.split(())
        system.run_until_quiescent()
        owner_host = next(
        h for h in system.hosts.values() if () in h.split_registry
        )
        for _ in range(20):
            system.inject_token()
        # merge immediately; protocol must drain in-flight tokens first
        system.reconfig.merge((), owner_host)
        system.run_until_quiescent()
        assert system.token_stats.retired == 20
        system.verify()

    @pytest.mark.parametrize(
        "combining", [None, CombiningConfig(window=0.5)], ids=["plain", "combining"]
    )
    def test_recursive_merge_with_tokens_on_internal_wires_drains(self, combining):
        """The drain reads the tokens themselves: 200 of them, past the
        frozen input boundary and on wires inside a twice-split subtree
        (or waiting in its combining buffers), must all reach the
        members they are owed to before the states are folded."""
        system = AdaptiveCountingSystem(
            width=32, seed=2, initial_nodes=12, combining=combining
        )
        for path in [(), (0,), (1,), (2,), (3,), (0, 0), (2, 1)]:
            system.reconfig.split(path)
        system.run_until_quiescent()
        initiator = next(h for h in system.hosts.values() if () in h.split_registry)
        subtree = system.directory.live_descendants(())
        internal = set(subtree) - set(system.reconfig.input_boundary((), subtree))
        for _ in range(200):
            system.inject_token()
        system.advance(2.75)  # two hops in: every token is inside the subtree
        waiting = system.combiner.pending if combining else 0
        assert system.tokens_in_flight(internal) + waiting == 200
        assert system.tokens_in_flight(internal) > 0
        system.reconfig.merge((), initiator)
        assert len(system.directory) == 1 and system.stats.merges == 1
        system.run_until_quiescent()
        assert system.token_stats.retired == 200
        assert not system.live_tokens
        system.verify()

    def test_counting_across_split_merge_cycles(self, system):
        values = []
        owner = system.directory.owner(())
        for cycle in range(3):
            values += [system.next_value() for _ in range(5)]
            system.reconfig.split(())
            system.run_until_quiescent()
            values += [system.next_value() for _ in range(5)]
            initiator = next(
                h for h in system.hosts.values() if () in h.split_registry
            )
            system.reconfig.merge((), initiator)
            system.run_until_quiescent()
        assert sorted(values) == list(range(30))
        system.verify()


class TestInputBoundary:
    def test_boundary_of_root_subtree(self, system):
        system.reconfig.split(())
        subtree = system.directory.live_descendants(())
        boundary = system.reconfig.input_boundary((), subtree)
        assert boundary == [(0,), (1,)]

    def test_boundary_of_deeper_subtree(self, system):
        system.reconfig.split(())
        system.reconfig.split((2,))
        subtree = system.directory.live_descendants((2,))
        boundary = system.reconfig.input_boundary((2,), subtree)
        assert boundary == [(2, 0), (2, 1)]
