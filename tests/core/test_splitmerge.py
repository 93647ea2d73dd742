"""Tests for split/merge state transfer (paper Section 2.2)."""

import random

import pytest

from repro.core.components import ComponentState, balanced_counts
from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import ComponentKind, DecompositionTree
from repro.core.splitmerge import (
    merge_child_states,
    output_boundary_children,
    split_child_states,
    transfer_is_exact,
)
from repro.core.wiring import BoundaryRef, Wiring
from repro.errors import StructureError


@pytest.fixture
def tree16():
    return DecompositionTree(16)


@pytest.fixture
def wiring16(tree16):
    return Wiring(tree16)


class TestOutputBoundary:
    def test_bitonic_mix_children(self, tree16, wiring16):
        assert output_boundary_children(wiring16, tree16.root) == [4, 5]

    def test_merger_mix_children(self, tree16, wiring16):
        assert output_boundary_children(wiring16, tree16.node((2,))) == [2, 3]

    def test_mix_both_children(self, tree16, wiring16):
        assert output_boundary_children(wiring16, tree16.node((4,))) == [0, 1]


class TestSplitStates:
    def test_zero_state_splits_to_zero(self, tree16, wiring16):
        states = split_child_states(wiring16, tree16.root, {})
        assert all(s.total == 0 and s.arrivals == {} for s in states)
        assert [s.spec.path for s in states] == [(i,) for i in range(6)]

    def test_conservation(self, tree16, wiring16):
        """Tokens that entered equal tokens that exited the children."""
        rng = random.Random(1)
        for parent_path in [(), (2,), (4,)]:
            parent = tree16.node(parent_path)
            for _ in range(20):
                arrivals = {
                    port: rng.randint(0, 6)
                    for port in rng.sample(range(parent.width), 5)
                }
                arrivals = {p: c for p, c in arrivals.items() if c}
                states = split_child_states(wiring16, parent, arrivals)
                total = sum(arrivals.values())
                exited = sum(
                    states[i].total
                    for i in output_boundary_children(wiring16, parent)
                )
                assert exited == total
                # child arrivals are internally consistent
                for state in states:
                    assert state.arrived_total() == state.total

    def test_split_leaf_rejected(self, wiring16):
        tree4 = DecompositionTree(4)
        with pytest.raises(StructureError):
            split_child_states(Wiring(tree4), tree4.node((0,)), {})

    def test_negative_arrivals_rejected(self, tree16, wiring16):
        with pytest.raises(StructureError):
            split_child_states(wiring16, tree16.root, {0: -1})

    def test_matches_explicit_simulation(self, tree16, wiring16):
        """The closed-form replay equals literally feeding the tokens."""
        rng = random.Random(2)
        for _ in range(20):
            arrivals = {port: rng.randint(0, 4) for port in range(16)}
            arrivals = {p: c for p, c in arrivals.items() if c}
            states = split_child_states(wiring16, tree16.root, arrivals)
            # Feed the same per-port counts into a fresh level-1 network.
            net = CutNetwork(Cut.level(tree16, 1))
            net.feed_counts([arrivals.get(i, 0) for i in range(16)])
            for state in states:
                live = net.states[state.spec.path]
                assert live.total == state.total
                assert live.arrivals == state.arrivals


class TestMergeStates:
    def test_merge_inverts_split(self, tree16, wiring16):
        rng = random.Random(3)
        for parent_path in [(), (2,), (4,), (0,)]:
            parent = tree16.node(parent_path)
            for _ in range(20):
                arrivals = {
                    port: rng.randint(0, 5) for port in range(parent.width)
                }
                arrivals = {p: c for p, c in arrivals.items() if c}
                total = sum(arrivals.values())
                children = split_child_states(wiring16, parent, arrivals)
                merged = merge_child_states(wiring16, parent, children)
                assert merged.total == total
                assert merged.arrivals == arrivals

    def test_merge_wrong_child_count(self, tree16, wiring16):
        with pytest.raises(StructureError):
            merge_child_states(wiring16, tree16.root, [])

    def test_merge_wrong_child_specs(self, tree16, wiring16):
        children = [ComponentState(tree16.node((2,)).child(i)) for i in range(4)]
        with pytest.raises(StructureError):
            merge_child_states(wiring16, tree16.root, children + children[:2])

    def test_merge_non_quiescent_rejected(self, tree16, wiring16):
        """A child claiming departures without arrivals is detected."""
        parent = tree16.node((4,))  # MIX with two children
        children = [ComponentState(parent.child(0)), ComponentState(parent.child(1))]
        children[0].total = 3  # emitted 3 tokens that never arrived
        with pytest.raises(StructureError):
            merge_child_states(wiring16, parent, children)


def emitted_at_boundary(wiring, parent, child_states):
    """What ``child_states`` have emitted on each of ``parent``'s output
    ports, by the forward map: the predicate's oracle."""
    emitted = [0] * parent.width
    for index, state in enumerate(child_states):
        for port, count in enumerate(balanced_counts(0, state.total, state.width)):
            dest = wiring.child_output_dest(parent, index, port)
            if isinstance(dest, BoundaryRef):
                emitted[dest.port] += count
    return emitted


def random_arrivals(rng, parent):
    return {port: rng.randint(0, 9) for port in range(parent.width) if rng.random() < 0.7}


class TestTransferIsExact:
    def test_rejects_the_mix_split_of_the_crash_recipe(self):
        """The split that broke ROADMAP 1(c)'s seed 0: MIX[8] ``(1, 2,
        3)`` of ``T_64`` had received 94 tokens on each input half (24 on
        every odd port, 23 on every even one) and sent 96 and 92 out of
        its output halves; its replayed children sent 94 and 94. Folding
        those children back (a merge) is refused as well."""
        tree = DecompositionTree(64)
        wiring = Wiring(tree)
        mix = tree.node((1, 2, 3))
        assert (mix.kind, mix.width) == (ComponentKind.MIX, 8)
        arrivals = {port: 24 if port % 2 else 23 for port in range(8)}
        children = split_child_states(wiring, mix, arrivals)
        assert emitted_at_boundary(wiring, mix, children) == [24, 24, 23, 23] * 2
        assert not transfer_is_exact(wiring, mix, 188, children)
        merged = merge_child_states(wiring, mix, children)
        assert merged.total == 188
        assert not transfer_is_exact(wiring, mix, merged.total, children)

    def test_accepts_every_bitonic_split(self):
        """A BITONIC component's children are a counting network
        (Theorem 2.1), so its split is exact on any arrivals; a MIX[4]'s
        mostly is not."""
        rng = random.Random(4)
        for width in (4, 8, 16, 32):
            tree = DecompositionTree(width)
            wiring = Wiring(tree)
            bitonic = [
                spec
                for spec in tree.iter_preorder()
                if spec.kind is ComponentKind.BITONIC and not spec.is_leaf
            ]
            for _ in range(100):
                parent = rng.choice(bitonic)
                arrivals = random_arrivals(rng, parent)
                children = split_child_states(wiring, parent, arrivals)
                assert transfer_is_exact(wiring, parent, sum(arrivals.values()), children)
        tree = DecompositionTree(16)
        wiring = Wiring(tree)
        mix = tree.node((4, 0))
        assert (mix.kind, mix.width) == (ComponentKind.MIX, 4)
        inexact = 0
        for _ in range(100):
            arrivals = random_arrivals(rng, mix)
            children = split_child_states(wiring, mix, arrivals)
            inexact += not transfer_is_exact(wiring, mix, sum(arrivals.values()), children)
        assert inexact > 50

    @pytest.mark.parametrize("width", [8, 16])
    def test_agrees_with_the_forward_replay(self, width):
        """Exact means: what the children emitted on the parent's
        outputs, read through ``child_output_dest``, is the parent's
        balanced distribution — for every kind of parent."""
        rng = random.Random(width)
        tree = DecompositionTree(width)
        wiring = Wiring(tree)
        parents = [spec for spec in tree.iter_preorder() if not spec.is_leaf]
        verdicts = set()
        for _ in range(300):
            parent = rng.choice(parents)
            arrivals = random_arrivals(rng, parent)
            total = sum(arrivals.values())
            children = split_child_states(wiring, parent, arrivals)
            exact = emitted_at_boundary(wiring, parent, children) == balanced_counts(
                0, total, parent.width
            )
            assert transfer_is_exact(wiring, parent, total, children) == exact
            verdicts.add((parent.kind, exact))
        assert (ComponentKind.MERGER, False) in verdicts
        assert (ComponentKind.MIX, True) in verdicts
