"""Tests for cuts of the decomposition tree (paper Definition 2.1)."""

import random

import pytest

from repro.core.cut import Cut
from repro.core.decomposition import DecompositionTree
from repro.errors import InvalidCutError
from repro.ext.periodic_adaptive import periodic_tree


@pytest.fixture
def tree8():
    return DecompositionTree(8)


class TestCutValidation:
    def test_singleton(self, tree8):
        cut = Cut.singleton(tree8)
        assert len(cut) == 1
        assert () in cut

    def test_level_cuts(self, tree8):
        assert len(Cut.level(tree8, 0)) == 1
        assert len(Cut.level(tree8, 1)) == 6
        assert len(Cut.level(tree8, 2)) == 24

    def test_full_cut_is_deepest_level(self, tree8):
        full = Cut.leaves(tree8)
        assert full == Cut.level(tree8, tree8.max_level)
        assert all(tree8.node(p).is_leaf for p in full.paths)

    def test_empty_rejected(self, tree8):
        with pytest.raises(InvalidCutError):
            Cut(tree8, [])

    def test_overlapping_members_rejected(self, tree8):
        with pytest.raises(InvalidCutError):
            Cut(tree8, [(), (0,)])
        paths = {(i,) for i in range(6)} | {(0, 0)}
        with pytest.raises(InvalidCutError):
            Cut(tree8, paths)

    def test_uncovered_path_rejected(self, tree8):
        paths = [(i,) for i in range(5)]  # missing child 5
        with pytest.raises(InvalidCutError):
            Cut(tree8, paths)

    def test_partial_split_valid(self, tree8):
        paths = {(i,) for i in range(1, 6)} | {(0, j) for j in range(6)}
        cut = Cut(tree8, paths)
        assert len(cut) == 11

    def test_random_cuts_always_valid(self, tree8):
        rng = random.Random(7)
        for _ in range(100):
            cut = Cut.random(tree8, rng, 0.5)
            # construction validates; check level bounds too
            assert all(0 <= level <= tree8.max_level for level in cut.levels())

    def test_random_extremes(self, tree8):
        rng = random.Random(0)
        assert Cut.random(tree8, rng, 0.0) == Cut.singleton(tree8)
        assert Cut.random(tree8, rng, 1.0) == Cut.leaves(tree8)


class TestCutQueries:
    def test_members_sorted_preorder_by_path(self, tree8):
        cut = Cut.level(tree8, 1)
        paths = [m.path for m in cut.members()]
        assert paths == sorted(paths)

    def test_member_covering(self, tree8):
        cut = Cut.singleton(tree8).split(()).split((0,))
        assert cut.member_covering((0, 3)) == (0, 3)
        assert cut.member_covering((2,)) == (2,)
        assert cut.member_covering(()) is None

    def test_contains(self, tree8):
        cut = Cut.level(tree8, 1)
        assert (2,) in cut
        assert (2, 0) not in cut

    def test_equality_and_hash(self, tree8):
        a = Cut.level(tree8, 1)
        b = Cut(tree8, [(i,) for i in range(6)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Cut.singleton(tree8)

    def test_cuts_of_different_networks_differ(self, tree8):
        """Equal paths and width, but another network: unequal, and
        (here) differently hashed; two builds of one network agree."""
        bitonic, periodic = Cut(tree8, [()]), Cut(periodic_tree(8), [()])
        assert bitonic != periodic
        assert hash(bitonic) != hash(periodic)
        again = Cut(periodic_tree(8), [()])
        assert periodic == again
        assert hash(periodic) == hash(again)
        assert Cut.leaves(periodic_tree(8)) == Cut.leaves(periodic_tree(8))


class TestCutReconfiguration:
    def test_split_root(self, tree8):
        cut = Cut.singleton(tree8).split(())
        assert cut == Cut.level(tree8, 1)

    def test_merge_inverts_split(self, tree8):
        cut = Cut.level(tree8, 1)
        assert cut.merge(()) == Cut.singleton(tree8)

    def test_split_non_member_rejected(self, tree8):
        with pytest.raises(InvalidCutError):
            Cut.singleton(tree8).split((0,))

    def test_split_leaf_rejected(self, tree8):
        cut = Cut.leaves(tree8)
        with pytest.raises(InvalidCutError):
            cut.split(next(iter(cut.paths)))

    def test_merge_requires_all_children(self, tree8):
        cut = Cut.level(tree8, 1).split((0,))
        with pytest.raises(InvalidCutError):
            # (0,)'s children are present but ()'s are not all present
            cut.merge(())

    def test_random_walk_of_reconfigurations(self, tree8):
        rng = random.Random(3)
        cut = Cut.singleton(tree8)
        for _ in range(200):
            paths = sorted(cut.paths)
            path = paths[rng.randrange(len(paths))]
            if rng.random() < 0.5 and not tree8.node(path).is_leaf:
                cut = cut.split(path)
            elif path:
                try:
                    cut = cut.merge(path[:-1])
                except InvalidCutError:
                    pass
        # still a valid cut (constructor re-validates)
        Cut(tree8, cut.paths)

    def test_merge_leaf_rejected(self, tree8):
        cut = Cut.leaves(tree8)
        with pytest.raises(InvalidCutError, match="no children"):
            cut.merge(next(iter(cut.paths)))


@pytest.mark.parametrize("make_tree", [DecompositionTree, periodic_tree], ids=["bitonic", "periodic"])
@pytest.mark.parametrize("width", [4, 8, 16, 32])
def test_split_and_merge_results_are_validated_cuts(make_tree, width):
    """``split`` / ``merge`` skip the whole-cut walk: over a seeded random
    history, every result is the expected path set and equals a freshly
    validated ``Cut``, and every refused request raises and changes nothing."""
    tree = make_tree(width)
    rng = random.Random(1000 + width)
    cut = Cut.singleton(tree)
    seen = set()
    for _ in range(300):
        paths = sorted(cut.paths)
        path = rng.choice(paths)
        spec = tree.node(path)
        children = {child.path for child in spec.children()}
        if rng.random() < 0.5:
            if spec.is_leaf:
                with pytest.raises(InvalidCutError):
                    cut.split(path)
                seen.add("split refused")
                continue
            result = cut.split(path)
            expected = (set(cut.paths) - {path}) | children
            seen.add("split")
        else:
            target = path[:-1] if path and rng.random() < 0.8 else path
            siblings = {child.path for child in tree.node(target).children()}
            if not siblings or not siblings <= cut.paths:
                with pytest.raises(InvalidCutError):
                    cut.merge(target)
                seen.add("merge refused")
                continue
            result = cut.merge(target)
            expected = (set(cut.paths) - siblings) | {target}
            seen.add("merge")
        assert result.paths == expected
        assert result == Cut(tree, result.paths)
        cut = result
    assert seen == {"split", "split refused", "merge", "merge refused"}
