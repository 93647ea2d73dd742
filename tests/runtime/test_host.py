"""Tests for the per-node host (token plane, freezing, caching)."""

import pytest

from repro.core.components import ComponentState
from repro.errors import ProtocolError
from repro.runtime.system import AdaptiveCountingSystem
from repro.runtime.tokens import Token


@pytest.fixture
def system():
    return AdaptiveCountingSystem(width=8, seed=1)


def root_host(system):
    return system.hosts[system.directory.owner(())]


def addressed(token, path, port):
    """The token is the message: it names the input it is owed to."""
    token.owed = (path, port)
    return token


class TestInstallRemove:
    def test_install_and_remove(self, system):
        host = root_host(system)
        spec = system.tree.node((0,))
        host.install(ComponentState(spec))
        assert (0,) in host.components
        removed = host.remove((0,))
        assert removed.spec == spec
        assert (0,) not in host.components

    def test_double_install_rejected(self, system):
        host = root_host(system)
        with pytest.raises(ProtocolError):
            host.install(ComponentState(system.tree.root))

    def test_remove_missing_rejected(self, system):
        with pytest.raises(ProtocolError):
            root_host(system).remove((5,))

    def test_freeze_requires_component(self, system):
        with pytest.raises(ProtocolError):
            root_host(system).freeze((3,))


class TestTokenHandling:
    def test_token_routed_and_retired(self, system):
        host = root_host(system)
        token = Token(0, 0, 0.0)
        host.handle_message(addressed(token, (), 0))
        assert token.value == 0
        assert token.exit_wire == 0
        assert system.token_stats.retired == 1

    def test_frozen_component_buffers(self, system):
        host = root_host(system)
        host.freeze(())
        token = Token(0, 0, 0.0)
        host.handle_message(addressed(token, (), 3))
        assert token.value is None
        assert host.buffers[()] == [(3, token)]
        assert host.drain_buffer(()) == [(3, token)]
        assert host.drain_buffer(()) == []

    def test_missing_component_reroutes(self, system):
        """A token for a stale path is re-resolved via the directory."""
        system.reconfig.split(())
        system.run_until_quiescent()
        token = Token(9, 0, 0.0)
        # Address the token to the now-dead root; any host will reroute.
        host = next(iter(system.hosts.values()))
        host.handle_message(addressed(token, (), 0))
        system.run_until_quiescent()
        assert token.value is not None
        assert token.reroutes == 1


class TestEdgeCache:
    def test_cache_hits_accumulate(self, system):
        system.reconfig.split(())
        system.run_until_quiescent()
        before_misses = sum(h.cache_misses for h in system.hosts.values())
        for _ in range(20):
            system.inject_token()
        system.run_until_quiescent()
        hits = sum(h.cache_hits for h in system.hosts.values())
        misses = sum(h.cache_misses for h in system.hosts.values())
        assert hits > 0
        # misses bounded by (distinct member out-ports), not token count
        assert misses - before_misses <= 6 * 4

    @staticmethod
    def misses_of_a_round(system):
        """Misses while 64 tokens cross every out-port of the network."""
        before = sum(h.cache_misses for h in system.hosts.values())
        for _ in range(64):
            system.inject_token()
        system.run_until_quiescent()
        return sum(h.cache_misses for h in system.hosts.values()) - before

    @pytest.fixture
    def warm(self):
        """Six width-4 components on eight nodes, every edge resolved."""
        system = AdaptiveCountingSystem(width=8, seed=1, initial_nodes=8)
        system.reconfig.split(())
        assert self.misses_of_a_round(system) == 6 * 4
        assert self.misses_of_a_round(system) == 0
        return system

    def test_split_elsewhere_leaves_unrelated_edges_hits(self, warm):
        # (0,) is fed by network inputs only: no component's edge leads
        # into it, so only its six new balancers have edges to learn.
        warm.reconfig.split((0,))
        assert self.misses_of_a_round(warm) == 6 * 2

    def test_splitting_a_destination_costs_one_miss_per_edge_into_it(self, warm):
        # (4,) has four input ports, each fed by one merger out-port:
        # those four edges are re-learnt once, plus its two balancers' own.
        warm.reconfig.split((4,))
        assert self.misses_of_a_round(warm) == 4 + 2 * 2

    def test_join_that_only_moves_components_costs_nothing(self, warm):
        while not warm.stats.handoffs:
            warm.add_node()
        assert warm.stats.splits == 1
        assert self.misses_of_a_round(warm) == 0
