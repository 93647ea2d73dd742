"""A local action costs what it changes — as counts, not seconds.

One split and one join on a 64-component and on a fully split
672-component ``BITONIC[64]`` deployment (same components per node):
the calls of ``DecompositionTree.node``, ``ComponentDirectory.home`` and
``Wiring.resolve_output`` they cause must not grow with the cut, so a
whole-cut scan cannot come back unnoticed on any runner.
"""

import pytest

from repro.core.decomposition import DecompositionTree
from repro.core.wiring import WiringBase
from repro.runtime.directory import ComponentDirectory
from repro.runtime.system import AdaptiveCountingSystem

#: A MIX[4] near the outputs; the deployments differ in everything else.
KEPT = (5, 1, 1, 1)
COUNTED = [
    (DecompositionTree, "node"),
    (ComponentDirectory, "home"),
    (WiringBase, "resolve_output"),
]


def deployment(components):
    """``components`` live components (all but ``KEPT`` split to
    balancers when 672), about four to a node."""
    system = AdaptiveCountingSystem(width=64, seed=3, initial_nodes=components // 4)
    for end in range(len(KEPT)):
        system.reconfig.split(KEPT[:end])
    pending = sorted(system.directory.live_paths() - {KEPT})
    while pending and len(system.directory) < components - 1:
        path = pending.pop(0)
        if not system.tree.node(path).is_leaf:
            pending.extend(system.reconfig.split(path))
    return system


def token_round(system):
    for _ in range(2 * system.width):
        system.inject_token()
    system.run_until_quiescent()


def cost_of(system, operation, monkeypatch):
    """Calls caused by ``operation`` itself, and the edge re-resolutions
    it and the next round of tokens cause."""
    token_round(system)  # every edge of the deployment is now resolved
    calls = {name: 0 for _owner, name in COUNTED}
    with monkeypatch.context() as patch:
        for owner, name in COUNTED:
            def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            patch.setattr(owner, name, counting)
        operation()
        cost = dict(calls)
        token_round(system)
        cost["resolve_output"] = calls["resolve_output"]
    system.verify()
    return cost


@pytest.fixture(scope="module")
def deployments():
    small, full = deployment(64), deployment(672)
    assert len(small.directory) == 63 and len(full.directory) == 671
    return small, full


def test_a_split_does_not_grow_with_the_cut(deployments, monkeypatch):
    small, full = (
        cost_of(system, lambda: system.reconfig.split(KEPT), monkeypatch)
        for system in deployments
    )
    # Four edges lead into KEPT, its two balancers have two each.
    assert small["resolve_output"] == full["resolve_output"] == 4 + 2 * 2
    assert full == small


def test_a_join_does_not_grow_with_the_cut(deployments, monkeypatch):
    for system in deployments:
        on_one_node = max(system.components_per_node())
        cost = cost_of(system, system.add_node, monkeypatch)
        assert cost["home"] <= on_one_node
        assert cost["node"] == cost["resolve_output"] == 0
