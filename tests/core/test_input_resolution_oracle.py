"""Independent oracle for the two walks every stale address goes through.

``WiringBase.resolve_input`` says where (component, input port) lives
under a cut that may have crash holes in it; ``WiringBase.ascend_input``
is the climb it, the merge protocol and recovery's source trace share.
Both are checked here against a brute force that never climbs: from
``parent_input_dest`` alone, descend every (node, port) of the tree to
the leaf-level ``(leaf, q)`` it ends at. A port of an ancestor is "the
same wire" iff it descends to the same ``(leaf, q)``, so

* the live member on the root→``leaf`` path, at the unique port of it
  that reaches ``(leaf, q)``, is the answer;
* no live member on that path is a hole — ``"missing"``, never a raise;
* a live member above the node with no such port means the wire is
  internal to a merged subtree — an error, because no token can be
  there.

Seeded random cuts of ``T_w`` in both merger conventions and of one
``repro.ext`` tree, with 0–3 members knocked out, every node and port.
"""

import random

import pytest

from repro.core.cut import Cut
from repro.core.decomposition import DecompositionTree
from repro.core.wiring import MergerConvention, Wiring
from repro.errors import ProtocolError
from repro.ext.periodic_adaptive import PeriodicWiring, periodic_tree


def bitonic(width, convention):
    tree = DecompositionTree(width)
    return tree, Wiring(tree, convention)


def periodic(width):
    tree = periodic_tree(width)
    return tree, PeriodicWiring(tree)


STRUCTURES = [
    pytest.param(lambda w=w, c=c: bitonic(w, c), id="bitonic%d-%s" % (w, c.value))
    for w in (4, 8, 16, 32)
    for c in MergerConvention
] + [pytest.param(lambda: periodic(16), id="periodic16")]


class Descents:
    """For every (node, port): the leaf-level ``(leaf path, q)`` it
    descends to, and per node the inverse — by ``parent_input_dest``
    only."""

    def __init__(self, tree, wiring):
        self.nodes = list(tree.iter_preorder())
        self.ends = {}
        self.port_reaching = {spec.path: {} for spec in self.nodes}
        for spec in self.nodes:
            for port in range(spec.width):
                at, q = spec, port
                while not at.is_leaf:
                    ref = wiring.parent_input_dest(at, q)
                    at, q = at.child(ref.child), ref.port
                self.ends[spec.path, port] = (at.path, q)
                assert (at.path, q) not in self.port_reaching[spec.path]
                self.port_reaching[spec.path][at.path, q] = port


def holed_cuts(tree, seed, count):
    """``count`` seeded random cuts, 0-3 members knocked out of each."""
    rng = random.Random(seed)
    for _ in range(count):
        members = sorted(Cut.random(tree, rng, rng.choice((0.3, 0.6, 0.9))).paths)
        holes = rng.sample(members, min(rng.randrange(4), len(members) - 1))
        yield frozenset(members), frozenset(members) - frozenset(holes)


@pytest.mark.parametrize("make", STRUCTURES)
def test_resolve_input_against_the_descent_oracle(make):
    tree, wiring = make()
    descents = Descents(tree, wiring)
    seen = {"self": 0, "merged": 0, "split": 0, "missing": 0, "internal": 0}
    for _, live in holed_cuts(tree, seed=tree.width, count=10):
        for spec in descents.nodes:
            for port in range(spec.width):
                leaf, q = descents.ends[spec.path, port]
                on_path = [leaf[:d] for d in range(len(leaf) + 1) if leaf[:d] in live]
                assert len(on_path) <= 1
                if not on_path:
                    seen["missing"] += 1
                    assert wiring.resolve_input(spec, port, live) == (
                        "missing", spec, port,
                    )
                    continue
                member = on_path[0]
                member_port = descents.port_reaching[member].get((leaf, q))
                if member_port is None:
                    assert len(member) < len(spec.path)
                    seen["internal"] += 1
                    with pytest.raises(ProtocolError):
                        wiring.resolve_input(spec, port, live)
                    continue
                kind = (
                    "self" if member == spec.path
                    else "merged" if len(member) < len(spec.path)
                    else "split"
                )
                seen[kind] += 1
                found, at, in_port = wiring.resolve_input(spec, port, live)
                assert (found, at.path, in_port) == ("member", member, member_port)
    assert all(seen.values()), seen


@pytest.mark.parametrize("make", STRUCTURES)
def test_ascend_input_against_the_descent_oracle(make):
    """For every (node, port) and every ancestor (itself included): the
    climb stops at the topmost node up to that ancestor with a port that
    descends to the same ``(leaf, q)``, at that port."""
    tree, wiring = make()
    descents = Descents(tree, wiring)
    reached = stopped = 0
    for spec in descents.nodes:
        path = spec.path
        for port in range(spec.width):
            end = descents.ends[path, port]
            for depth in range(len(path), -1, -1):
                top = depth
                while top < len(path) and end not in descents.port_reaching[path[:top]]:
                    top += 1
                expected = (path[:top], descents.port_reaching[path[:top]][end])
                at, in_port = wiring.ascend_input(spec, port, path[:depth])
                assert (at.path, in_port) == expected
                reached += top == depth
                stopped += top > depth
    assert reached and stopped


@pytest.mark.parametrize("make", STRUCTURES)
def test_resolve_output_into_a_hole_is_missing_never_a_raise(make):
    """Hole-free ``resolve_output`` is held by the cut oracle and the
    wiring suites; with holes, a wire whose receiving member is knocked
    out reads ``"missing"`` at an address that resolves back to that
    member, and every other wire reads as it did."""
    tree, wiring = make()
    missing = 0
    for members, live in holed_cuts(tree, seed=tree.width + 1, count=10):
        for path in live:
            spec = tree.node(path)
            for port in range(spec.width):
                whole = wiring.resolve_output(spec, port, members)
                holed = wiring.resolve_output(spec, port, live)
                if whole[0] == "out" or whole[1].path in live:
                    assert holed == whole
                    continue
                missing += 1
                assert holed[0] == "missing"
                assert wiring.resolve_input(holed[1], holed[2], members) == whole
    assert missing
