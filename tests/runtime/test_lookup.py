"""Tests for input-component lookup (paper Section 3.5)."""

import math
import random

import pytest

from repro.core.cut import Cut
from repro.runtime.system import AdaptiveCountingSystem


class TestInputLookup:
    def test_singleton_network_one_try(self):
        system = AdaptiveCountingSystem(width=16, seed=1)
        result = system.find_input(5)
        assert result.path == ()
        assert result.port == 5
        # the whole ancestor chain is walked: leaf..root = log w - 1 names
        assert result.tries == system.tree.max_level + 1

    def test_fully_split_one_try(self):
        system = AdaptiveCountingSystem(width=8, seed=2, initial_nodes=4)
        system.split_to(Cut.leaves(system.tree))
        result = system.find_input(3)
        assert result.tries == 1
        assert system.tree.node(result.path).is_leaf

    def test_tries_bounded_by_log_w(self):
        """Section 3.5: at most log w - 1 names before finding a live
        input component."""
        for width in (8, 16, 64):
            system = AdaptiveCountingSystem(width=width, seed=3, initial_nodes=20)
            system.converge()
            bound = max(1, int(math.log2(width)) - 1)
            rng = random.Random(4)
            for _ in range(30):
                result = system.find_input(rng.randrange(width))
                # bound + the root try (finite-width boundary case)
                assert result.tries <= bound + 1

    def test_lookup_port_matches_routing(self):
        """The (member, port) the lookup returns is the same one count
        propagation would use."""
        system = AdaptiveCountingSystem(width=16, seed=5, initial_nodes=12)
        system.converge()
        for wire in range(16):
            result = system.find_input(wire)
            member, port = system.wiring.resolve_network_input(
                wire, system.directory.live_paths()
            )
            assert (member.path, port) == (result.path, result.port)

    def test_dht_hops_recorded(self):
        system = AdaptiveCountingSystem(width=16, seed=6, initial_nodes=30)
        system.converge()
        start = sorted(system.hosts)[0]
        result = system.find_input(0, start)
        assert result.dht_hops >= 0
        assert len(system.stats.lookup_hops) == 1
