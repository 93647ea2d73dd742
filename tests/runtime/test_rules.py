"""Tests for the splitting/merging rules (paper Section 3.2)."""

import pytest

from repro.runtime.system import AdaptiveCountingSystem


class TestSplittingRule:
    def test_single_node_never_splits(self):
        system = AdaptiveCountingSystem(width=16, seed=1)
        system.converge()
        assert len(system.directory) == 1
        assert system.stats.splits == 0

    def test_growth_triggers_splits(self):
        system = AdaptiveCountingSystem(width=64, seed=2, initial_nodes=30)
        system.converge()
        assert system.stats.splits > 0
        assert len(system.directory) > 1

    def test_local_invariant_holds_after_convergence(self):
        """Every component's level >= its hosting node's ell_v."""
        system = AdaptiveCountingSystem(width=64, seed=3, initial_nodes=40)
        system.converge()
        for host in system.hosts.values():
            level = system.rules.node_level(host)
            for path in host.components:
                assert len(path) >= level or system.tree.node(path).is_leaf

    def test_levels_clamped_by_tree_depth(self):
        """A small-width network on a big system splits to balancers at
        most."""
        system = AdaptiveCountingSystem(width=8, seed=4, initial_nodes=60)
        system.converge()
        assert all(
            len(p) <= system.tree.max_level for p in system.directory.live_paths()
        )


class TestMergingRule:
    def test_shrink_triggers_merges(self):
        system = AdaptiveCountingSystem(width=64, seed=5, initial_nodes=40)
        system.converge()
        grown = len(system.directory)
        while system.num_nodes > 2:
            system.remove_node()
        system.converge()
        assert system.stats.merges > 0
        assert len(system.directory) < grown

    def test_merge_only_when_no_longer_required(self):
        """Lemma 3.4's mechanism: after convergence, every component's
        level is within the nodes' level-estimate range."""
        system = AdaptiveCountingSystem(width=64, seed=6, initial_nodes=50)
        system.converge()
        node_levels = system.node_levels()
        low, high = min(node_levels), max(node_levels)
        for level in system.component_levels():
            max_level = system.tree.max_level
            assert min(low, max_level) <= level <= max(high, 0) or level == max_level

    def test_hysteresis_reduces_merges(self):
        """Ablation: a hysteresis margin suppresses merge churn."""
        def run(hysteresis):
            system = AdaptiveCountingSystem(
                width=64, seed=7, initial_nodes=1, hysteresis=hysteresis
            )
            for _ in range(39):
                system.add_node()
            system.converge()
            for _ in range(30):
                system.remove_node()
            system.converge()
            return system.stats.merges

        assert run(2) < run(0)


class TestConvergence:
    def test_converge_is_idempotent(self):
        system = AdaptiveCountingSystem(width=32, seed=8, initial_nodes=25)
        system.converge()
        cut_before = system.snapshot_cut()
        splits, merges = system.stats.splits, system.stats.merges
        system.converge()
        assert system.snapshot_cut() == cut_before
        assert (system.stats.splits, system.stats.merges) == (splits, merges)

    def test_converged_state_counts(self):
        system = AdaptiveCountingSystem(width=32, seed=9, initial_nodes=25)
        system.converge()
        values = [system.next_value() for _ in range(40)]
        assert sorted(values) == list(range(40))
        system.verify()
