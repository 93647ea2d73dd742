"""Tests for the decomposition tree ``T_w`` (paper Section 2.1), and
for the periodic network's tree, the same class with another root kind.

The enumeration checks run on both structures, with the traversal as
the reference for the arithmetic.
"""

import pytest

from repro.core.cut import Cut
from repro.core.decomposition import (
    ComponentKind,
    ComponentSpec,
    DecompositionTree,
    subtree_size,
)
from repro.core.wiring import Wiring
from repro.errors import StructureError
from repro.ext.periodic_adaptive import PeriodicKind, periodic_tree


def small_trees(max_bitonic=16, max_periodic=32):
    """``T_w`` and the periodic tree at every width small enough to
    enumerate."""
    trees = []
    width = 2
    while width <= max(max_bitonic, max_periodic):
        if width <= max_bitonic:
            trees.append(DecompositionTree(width))
        if width <= max_periodic:
            trees.append(periodic_tree(width))
        width *= 2
    return trees


def phi_scan(tree, x):
    """The largest level with ``phi(level) < x``, by scanning every level."""
    best = 0
    for level in range(tree.max_level + 1):
        if tree.phi(level) < x:
            best = level
    return best


class TestComponentSpec:
    def test_root_is_bitonic(self):
        tree = DecompositionTree(8)
        assert tree.root.kind is ComponentKind.BITONIC
        assert tree.root.width == 8
        assert tree.root.path == ()
        assert tree.root.level == 0

    def test_bitonic_children_kinds(self):
        root = DecompositionTree(8).root
        kinds = [c.kind for c in root.children()]
        assert kinds == [
            ComponentKind.BITONIC,
            ComponentKind.BITONIC,
            ComponentKind.MERGER,
            ComponentKind.MERGER,
            ComponentKind.MIX,
            ComponentKind.MIX,
        ]

    def test_merger_children_kinds(self):
        merger = DecompositionTree(16).root.child(2)
        assert merger.kind is ComponentKind.MERGER
        kinds = [c.kind for c in merger.children()]
        assert kinds == [
            ComponentKind.MERGER,
            ComponentKind.MERGER,
            ComponentKind.MIX,
            ComponentKind.MIX,
        ]

    def test_mix_children_kinds(self):
        mix = DecompositionTree(16).root.child(4)
        assert mix.kind is ComponentKind.MIX
        assert [c.kind for c in mix.children()] == [ComponentKind.MIX, ComponentKind.MIX]

    def test_children_halve_width_and_extend_path(self):
        root = DecompositionTree(16).root
        child = root.child(3)
        assert child.width == 8
        assert child.path == (3,)
        grandchild = child.child(1)
        assert grandchild.width == 4
        assert grandchild.path == (3, 1)
        assert grandchild.level == 2

    def test_leaf_has_no_children(self):
        tree = DecompositionTree(4)
        leaf = tree.root.child(0)
        assert leaf.is_leaf
        assert leaf.children() == []
        assert leaf.num_children() == 0
        with pytest.raises(StructureError):
            leaf.child(0)

    def test_child_index_out_of_range(self):
        root = DecompositionTree(8).root
        with pytest.raises(StructureError):
            root.child(6)
        mix = root.child(4)
        with pytest.raises(StructureError):
            mix.child(2)

    def test_invalid_width_rejected(self):
        for width in (0, 1, 3, 6, 12):
            with pytest.raises(StructureError):
                ComponentSpec(ComponentKind.BITONIC, width, ())

    def test_label_readable(self):
        spec = DecompositionTree(8).root.child(2)
        assert spec.label() == "M[4]@2"


class TestSubtreeSize:
    def test_base_cases(self):
        for kind in ComponentKind:
            assert subtree_size(kind, 2) == 1

    def test_mix_size_recurrence(self):
        # X[k] subtree: 1 + 2 * size(X[k/2]) -> 2^(log k - 1 + 1) - 1
        assert subtree_size(ComponentKind.MIX, 4) == 3
        assert subtree_size(ComponentKind.MIX, 8) == 7
        assert subtree_size(ComponentKind.MIX, 16) == 15

    def test_tree_size_matches_enumeration(self):
        for tree in small_trees():
            assert tree.size() == sum(1 for _ in tree.iter_preorder()), tree.root


class TestDecompositionTree:
    def test_invalid_widths(self):
        for width in (0, 1, 3, 5, 24):
            with pytest.raises(StructureError):
                DecompositionTree(width)

    def test_max_level(self):
        assert DecompositionTree(2).max_level == 0
        assert DecompositionTree(8).max_level == 2
        assert DecompositionTree(64).max_level == 5
        for tree in small_trees():
            assert tree.max_level == max(s.level for s in tree.iter_preorder())

    def test_node_navigation(self):
        tree = DecompositionTree(16)
        spec = tree.node((2, 3))
        assert spec.kind is ComponentKind.MIX
        assert spec.width == 4
        assert tree.parent(spec) == tree.node((2,))
        assert tree.parent(tree.root) is None

    def test_ancestors(self):
        tree = DecompositionTree(16)
        spec = tree.node((0, 2, 1))
        chain = list(tree.ancestors(spec))
        assert [a.path for a in chain] == [(0, 2), (0,), ()]

    def test_contains(self):
        tree = DecompositionTree(8)
        assert tree.contains(tree.node((4, 1)))
        alien = DecompositionTree(16).node((4, 1))
        assert not tree.contains(alien)  # width differs at that path
        assert not tree.contains(periodic_tree(8).node((1,)))  # a BLOCK[8], not a B[4]
        assert periodic_tree(8).contains(periodic_tree(8).node((2, 1)))

    def test_phi_values_match_paper(self):
        tree = DecompositionTree(64)
        assert tree.phi(0) == 1
        assert tree.phi(1) == 6
        assert tree.phi(2) == 24

    def test_phi_matches_enumeration(self):
        for tree in small_trees():
            for level in range(tree.max_level + 1):
                members = list(tree.iter_level(level))
                assert tree.phi(level) == len(members), (tree.root, level)
                census = tree.level_census(level)
                assert set(census) == set(type(tree.root.kind))
                for kind, count in census.items():
                    assert count == sum(1 for s in members if s.kind is kind)

    def test_fact1_phi_growth(self):
        tree = DecompositionTree(256)
        for level in range(tree.max_level):
            assert 2 * tree.phi(level) <= tree.phi(level + 1) <= 6 * tree.phi(level)

    def test_level_out_of_range(self):
        tree = DecompositionTree(8)
        with pytest.raises(StructureError):
            tree.phi(3)
        with pytest.raises(StructureError):
            list(tree.iter_level(-1))
        periodic = periodic_tree(8)
        with pytest.raises(StructureError):
            periodic.phi(5)
        with pytest.raises(StructureError):
            list(periodic.iter_level(5))


class TestPreorderNaming:
    def test_root_is_zero(self):
        tree = DecompositionTree(16)
        assert tree.preorder_index(tree.root) == 0
        assert tree.from_preorder_index(0) == tree.root

    def test_round_trip_small_widths(self):
        for tree in small_trees():
            for index, spec in enumerate(
                sorted(tree.iter_preorder(), key=lambda s: tree.preorder_index(s))
            ):
                assert tree.preorder_index(spec) == index
                assert tree.from_preorder_index(index) == spec

    def test_preorder_matches_traversal_order(self):
        for tree in small_trees():
            traversal = list(tree.iter_preorder())
            assert len(set(traversal)) == len(traversal) == tree.size()
            for index, spec in enumerate(traversal):
                assert tree.preorder_index(spec) == index

    def test_large_width_arithmetic_only(self):
        # Works without materialising the (huge) tree.
        tree = DecompositionTree(1 << 12)
        deep = tree.node((0,) * tree.max_level)
        index = tree.preorder_index(deep)
        assert tree.from_preorder_index(index) == deep

    def test_out_of_range_index(self):
        tree = DecompositionTree(8)
        with pytest.raises(StructureError):
            tree.from_preorder_index(tree.size())
        with pytest.raises(StructureError):
            tree.from_preorder_index(-1)


class TestInputLeaves:
    def test_input_leaf_count_and_order(self):
        tree = DecompositionTree(16)
        leaves = [Wiring(tree).input_leaf(2 * pair) for pair in range(8)]
        assert len(leaves) == 8
        assert all(leaf.is_leaf for leaf in leaves)
        assert len({leaf.path for leaf in leaves}) == 8
        for pair, leaf in enumerate(leaves):  # both wires of a pair
            assert Wiring(tree).input_leaf(2 * pair + 1) == leaf

    def test_input_leaves_are_bitonic_chain(self):
        tree = DecompositionTree(16)
        for pair in range(8):
            leaf = Wiring(tree).input_leaf(2 * pair)
            assert all(i in (0, 1) for i in leaf.path)

    def test_input_leaf_out_of_range(self):
        tree = DecompositionTree(8)
        with pytest.raises(StructureError):
            Wiring(tree).input_leaf(2 * 4)

    def test_width2_tree_single_leaf(self):
        tree = DecompositionTree(2)
        assert Wiring(tree).input_leaf(0) == tree.root
        assert tree.root.is_leaf


class TestLevelFor:
    def test_level_for_matches_the_scan(self):
        """Both structures, on a grid through every phi boundary; the
        periodic phi is not monotone at widths 4 (1, 2, 6, 4) and 8
        (1, 3, 9, 24, 24)."""
        assert [periodic_tree(4).phi(k) for k in range(4)] == [1, 2, 6, 4]
        assert [periodic_tree(8).phi(k) for k in range(5)] == [1, 3, 9, 24, 24]
        trees = small_trees(max_bitonic=1024, max_periodic=64)
        for tree in trees:
            grid = [-1, 0, 0.5, 1, 1.5]
            for level in range(tree.max_level + 1):
                phi = tree.phi(level)
                grid += [phi - 1, phi - 0.5, phi, phi + 0.5, phi + 1]
            grid.append(10 * max(tree.phi(k) for k in range(tree.max_level + 1)))
            for x in grid:
                assert tree.level_for(x) == phi_scan(tree, x), (tree.root, x)


class TestPeriodicTree:
    """What the periodic structure's kinds declare (``repro.ext``)."""

    @pytest.fixture
    def tree(self):
        return periodic_tree(8)

    def test_root(self, tree):
        assert tree.root.kind is PeriodicKind.PERIODIC
        assert tree.root.kind.value == "P"
        assert tree.root.width == 8
        assert tree.root.path == ()
        assert tree.root.level == 0

    def test_children_kinds_and_widths(self, tree):
        blocks = tree.root.children()
        assert [c.kind.value for c in blocks] == ["B", "B", "B"]
        assert [c.width for c in blocks] == [8, 8, 8]
        assert [(c.kind.value, c.width) for c in blocks[0].children()] == [
            ("R", 8),
            ("B", 4),
            ("B", 4),
        ]

    def test_non_uniform_leaf_levels(self, tree):
        leaves = [s for s in tree.iter_preorder() if s.is_leaf]
        assert len({s.level for s in leaves}) > 1  # R[2] under R[8] vs B[2] under B[4]

    def test_child_index_validated(self, tree):
        with pytest.raises(StructureError):
            tree.root.child(3)  # three blocks

    def test_equality_ignores_structure_identity(self):
        a = periodic_tree(8).node((0, 1))
        b = periodic_tree(8).node((0, 1))
        assert a == b
        assert hash(a) == hash(b)
        assert a != DecompositionTree(8).node((0, 1))  # same path, other kind

    def test_label(self, tree):
        assert tree.node((0, 0)).label() == "R[8]@0,0"

    def test_parent_and_ancestors(self, tree):
        spec = tree.node((1, 0, 1))
        assert tree.parent(spec) == tree.node((1, 0))
        assert [a.path for a in tree.ancestors(spec)] == [(1, 0), (1,), ()]
        assert tree.parent(tree.root) is None

    def test_preorder_visits_everything_once(self, tree):
        seen = list(tree.iter_preorder())
        assert len(seen) == len(set(seen)) == tree.size()

    def test_preorder_index(self, tree):
        assert tree.preorder_index(tree.root) == 0
        spec = tree.node((0,))
        assert list(tree.iter_preorder())[tree.preorder_index(spec)] == spec
        alien = periodic_tree(16).node((0,))
        with pytest.raises(StructureError):
            tree.preorder_index(alien)

    def test_max_level(self, tree):
        # Deepest chain: P[8] -> B[8] -> R[8] -> R[4] -> R[2], level 4
        # (the B chain bottoms out one level earlier at B[2], level 3).
        assert tree.max_level == 4

    def test_invalid_width(self):
        with pytest.raises(StructureError):
            periodic_tree(6)

    def test_cut_machinery_works_generically(self, tree):
        singleton = Cut(tree, [()])
        assert len(singleton) == 1
        leaves = Cut.leaves(tree)
        assert all(tree.node(p).is_leaf for p in leaves.paths)
        assert {len(p) for p in leaves.paths} == {3, 4}
        assert len(singleton.split(())) == 3  # the three blocks
