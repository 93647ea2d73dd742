"""A local action costs what it changes — as counts, not seconds.

One split and one join on a 64-component and on a fully split
672-component ``BITONIC[64]`` deployment (same components per node):
the calls of ``DecompositionTree.node``, ``ComponentDirectory.home`` and
``Wiring.resolve_output`` they cause must not grow with the cut, so a
whole-cut scan cannot come back unnoticed on any runner.

Likewise for a membership change: a rules round re-derives no size
estimate the ring has not invalidated and re-evaluates only the hosts
the change reached, a routing hop searches the ring once whether or not
the ring just changed, and crash recovery makes the same calls on both
deployments for the same loss. Underneath, a tree lookup is one probe
and a merge's descendants are found by walking its own subtree.
"""

import inspect
import random
import sys

import pytest

import repro.chord.fingers
import repro.chord.ring
import repro.runtime.rules
from repro.chord.estimation import SizeEstimator
from repro.chord.fingers import lookup
from repro.chord.ring import ChordRing
from repro.core.decomposition import ComponentSpec, DecompositionTree
from repro.core.wiring import WiringBase
from repro.errors import StructureError
from repro.runtime.directory import ComponentDirectory
from repro.runtime.stabilization import Stabilizer
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


def count_calls(patch, owner, name):
    """Replace ``owner.name`` by a counting pass-through; the count is
    the returned list's only element."""
    count = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    patch.setattr(owner, name, counting)
    return count


def function_calls(function):
    """Calls made while ``function`` runs, Python and C alike, a resumed
    generator aside: cProfile's count without its clock."""
    count = [0]

    def profiler(frame, event, _arg):
        if event == "c_call" or (
            event == "call" and not frame.f_code.co_flags & inspect.CO_GENERATOR
        ):
            count[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return count[0]


def test_a_rules_round_estimates_each_node_once_per_ring_version(monkeypatch):
    system = AdaptiveCountingSystem(width=64, seed=3, initial_nodes=100)
    estimated = []
    original = SizeEstimator.size_estimate

    def recording(self, node_id):
        estimated.append(node_id)
        return original(self, node_id)

    monkeypatch.setattr(SizeEstimator, "size_estimate", recording)
    assert system.converge() >= 2
    assert sorted(estimated) == sorted(host.node_id for host in system.hosts.values())
    system.converge()
    system.node_levels()
    assert len(estimated) == len(system.hosts)
    del estimated[:]
    system.add_node()
    system.converge()
    # The join is one ring version: no node is estimated twice in it. A
    # settled host with nothing to split or merge is idle at any level
    # and may go unestimated, but every host holding a component or a
    # merge duty is estimated.
    assert len(estimated) == len(set(estimated))
    holding = {
        host.node_id
        for host in system.hosts.values()
        if host.components or host.split_registry
    }
    assert holding <= set(estimated)


def count_rules_sorts(patch):
    """The rules engine's ``sorted`` calls: [all, those with a key]. An
    evaluation past the settled check sorts the split registry (the one
    call with a key) exactly once."""
    count = [0, 0]

    def counting(iterable, **kwargs):
        count[0] += 1
        count[1] += "key" in kwargs
        return sorted(iterable, **kwargs)

    patch.setattr(repro.runtime.rules, "sorted", counting, raising=False)
    return count


def test_a_converge_at_a_fixpoint_evaluates_no_host(monkeypatch):
    system = AdaptiveCountingSystem(width=64, seed=3, initial_nodes=100)
    system.converge()
    sorts = count_rules_sorts(monkeypatch)
    assert system.converge() == 1
    assert sorts == [0, 0]  # not one host's components or registry scanned
    assert all(host.settled for host in system.hosts.values())


JOINS = 8


def test_a_join_re_evaluates_hosts_independent_of_n(monkeypatch):
    """Per join, the hosts evaluated past the settled check are the
    joiner, the node it took components from and those whose level
    moved: on 100 nodes and on 400 alike, not a round of every host."""
    evaluated = {}
    for nodes in (100, 400):
        system = AdaptiveCountingSystem(width=64, seed=3, initial_nodes=nodes)
        system.converge()
        with monkeypatch.context() as patch:
            sorts = count_rules_sorts(patch)
            for _ in range(JOINS):
                system.add_node()
                system.converge()
        evaluated[nodes] = sorts[1]
        system.verify()
    assert evaluated[400] <= evaluated[100] <= 2 * JOINS


def test_a_tree_lookup_is_one_probe(monkeypatch):
    tree = DecompositionTree(64)
    path = (2, 3, 1, 0)
    with monkeypatch.context() as patch:
        built = count_calls(patch, ComponentSpec, "child")
        spec = tree.node(path)
        assert built == [len(path)]  # built once, down from the root
        assert tree.node(path) is spec
        assert tree.node(list(path)) is spec
        assert tree.parent(spec) is tree.node(path[:-1])
        assert list(tree.ancestors(spec))[-1] is tree.root
        assert built == [len(path)]
        for _ in range(2):  # an invalid path raises every time: not stored
            with pytest.raises(StructureError):
                tree.node(path + (4,))  # a MIX has two children
        assert built == [len(path) + 2]


def owner_scan(directory, path):
    """``live_descendants`` as it was: a scan of the whole owner map."""
    return sorted(
        p for p in directory.live_paths() if len(p) > len(path) and p[: len(path)] == path
    )


def test_live_descendants_equals_the_owner_map_scan():
    """Over random cuts with crash holes, and with a split half done
    (parent and children both live), at every node of the tree above
    the deepest member."""
    tree = DecompositionTree(32)
    rng = random.Random(7)
    for _ in range(40):
        directory = ComponentDirectory(tree, ChordRing(seed=0))
        members, split = [()], []
        for _ in range(rng.randrange(1, 40)):
            path = rng.choice(members)
            if not tree.node(path).is_leaf:
                members.remove(path)
                split.append(path)
                members.extend(child.path for child in tree.node(path).children())
        for path in members:
            directory.register(path, 0)
        for path in rng.sample(members, min(len(members) - 1, rng.randrange(4))):
            directory.unregister(path)  # crash holes
        if split and rng.random() < 0.5:
            directory.register(rng.choice(split), 0)  # a split in progress
        for path in split + members:
            assert directory.live_descendants(path) == owner_scan(directory, path)
            assert directory.live_descendants(list(path)) == owner_scan(directory, path)


def test_a_routing_hop_searches_the_ring_once_changed_or_not(monkeypatch):
    ring = ChordRing(seed=5)
    for _ in range(1024):
        ring.join()
    rng = random.Random(5)
    queries = [
        (rng.choice(ring.ids), rng.randrange(ring.space.size)) for _ in range(2000)
    ]
    # Every ring search of the routing loop, its own and ``position``'s.
    searches = count_calls(monkeypatch, repro.chord.fingers, "bisect_left")
    monkeypatch.setattr(
        repro.chord.ring, "bisect_left", repro.chord.fingers.bisect_left
    )
    hops = sum(lookup(ring, start, key)[1] for start, key in queries)
    assert hops > 5 * len(queries)
    # The start, the key, and one finger per forwarding; the last hop,
    # to the successor, is read off the list.
    assert searches[0] <= 2 * len(queries) + hops <= 3 * hops
    joiner = ring.join().node_id
    for start in (joiner, ring.predecessor(joiner).node_id, queries[0][0]):
        key = (start - 1) % ring.space.size  # all the way round
        costs = []
        for _ in range(2):
            before = searches[0]
            lookup(ring, start, key)
            costs.append(searches[0] - before)
        assert costs[0] == costs[1] > 2


def lost_profile(host):
    return len(host.components), len(host.split_registry)


def test_recovery_does_not_grow_with_the_cut(deployments, monkeypatch):
    """Re-assigning ``r`` lost merge duties makes the same function
    calls on both deployments; so does all of ``stabilize()`` when the
    crashed node hosted nothing (rebuilding a component costs what its
    place in the tree makes it cost, so it is left out of the count)."""
    adopt = Stabilizer._adopt_orphan_merges
    adoption = []
    monkeypatch.setattr(
        Stabilizer,
        "_adopt_orphan_merges",
        lambda self: adoption.append(function_calls(lambda: adopt(self))),
    )
    small, full = (
        {lost_profile(host) for host in system.hosts.values()} for system in deployments
    )
    shared = sorted(lost for lost in small & full if lost[1])
    assert len(shared) >= 3 and (0, 0) in small & full
    for lost in [(0, 0), shared[0], shared[-1]]:
        costs = []
        for system in deployments:
            monkeypatch.setattr(system, "auto_stabilize", False)
            report = system.crash_node(
                min(n for n, host in system.hosts.items() if lost_profile(host) == lost)
            )
            total = function_calls(system.stabilize)
            costs.append((adoption.pop(), total if lost == (0, 0) else None))
            assert all(
                any(path in host.split_registry for host in system.hosts.values())
                for path in report.lost_registry_entries
            )
            system.verify()
        assert costs[0] == costs[1], lost


def test_recovery_inverts_the_wiring_of_a_parent_once(monkeypatch):
    system = AdaptiveCountingSystem(width=16, seed=1, initial_nodes=4)
    children = system.reconfig.split(())
    scanned = count_calls(monkeypatch, type(system.wiring), "child_output_dest")
    for _ in range(3):
        for path in children:
            system.stabilizer.reconstruct(path)
        assert scanned == [sum(child.width for child in system.tree.root.children())]
