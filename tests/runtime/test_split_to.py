"""Tests for ``AdaptiveCountingSystem.split_to``: pinning a system at a cut.

The bitonic leaf and root cuts, Section 2's static baselines, are
checked in ``test_static_deploy.py``.
"""

import random

import pytest

from repro.core.cut import Cut
from repro.core.decomposition import DecompositionTree
from repro.core.periodic import periodic_depth, periodic_network
from repro.core.verification import counting_values_ok
from repro.errors import ProtocolError
from repro.ext.periodic_adaptive import PeriodicWiring, periodic_tree
from repro.runtime.system import AdaptiveCountingSystem


def test_returns_the_splits_it_made():
    system = AdaptiveCountingSystem(16, seed=1, initial_nodes=4)
    splits = system.split_to(Cut.leaves(system.tree))
    assert splits == system.stats.splits > 0
    assert system.split_to(Cut.leaves(system.tree)) == 0


def test_periodic_leaf_cut():
    tree = periodic_tree(16)
    system = AdaptiveCountingSystem(
        16, seed=2, initial_nodes=10, tree=tree, wiring=PeriodicWiring(tree)
    )
    system.split_to(Cut.leaves(tree))
    assert len(system.directory) == periodic_network(16).num_balancers
    tokens = [system.inject_token(i) for i in range(16)]
    system.run_until_quiescent()
    assert {t.hops for t in tokens} == {periodic_depth(16)}
    assert counting_values_ok([t.value for t in tokens])
    system.verify()


@pytest.mark.parametrize("seed", range(4))
def test_a_random_cut_lands_exactly(seed):
    system = AdaptiveCountingSystem(32, seed=seed, initial_nodes=8)
    cut = Cut.random(system.tree, random.Random(seed))
    system.split_to(cut)
    assert system.snapshot_cut() == cut
    # A pinned cut is refined further from where it stands, under load.
    tokens = [system.inject_token() for _ in range(64)]
    system.run_until_quiescent()
    system.split_to(Cut.leaves(system.tree))
    tokens += [system.inject_token() for _ in range(64)]
    system.run_until_quiescent()
    assert counting_values_ok([t.value for t in tokens])
    system.verify()


def test_a_cut_of_another_tree_raises():
    system = AdaptiveCountingSystem(16, seed=3)
    for tree in (DecompositionTree(8), DecompositionTree(16), periodic_tree(16)):
        with pytest.raises(ProtocolError):
            system.split_to(Cut.leaves(tree))
    assert len(system.directory) == 1


def test_a_coarser_cut_raises():
    system = AdaptiveCountingSystem(16, seed=4, initial_nodes=3)
    system.split_to(Cut.level(system.tree, 1))
    with pytest.raises(ProtocolError):
        system.split_to(Cut.singleton(system.tree))
    assert system.snapshot_cut() == Cut.level(system.tree, 1)


def test_a_deferred_split_raises(monkeypatch):
    system = AdaptiveCountingSystem(16, seed=5, initial_nodes=3)
    for _ in range(5):
        system.inject_token()
    system.run_until_quiescent()
    monkeypatch.setattr("repro.runtime.reconfig.transfer_is_exact", lambda *args: False)
    with pytest.raises(ProtocolError):
        system.split_to(Cut.leaves(system.tree))
    assert len(system.directory) == 1
