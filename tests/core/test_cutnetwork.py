"""Tests for executable cut networks (paper Theorem 2.1 and Section 2.2)."""

import itertools
import random
from collections import Counter

import pytest

from repro.core.components import TokenTrace
from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import DecompositionTree
from repro.core.verification import counting_values_ok, has_step_property
from repro.core.wiring import MergerConvention
from repro.errors import StructureError


@pytest.fixture
def tree8():
    return DecompositionTree(8)


class TestStructure:
    def test_input_output_layers_singleton(self, tree8):
        net = CutNetwork(Cut.singleton(tree8))
        assert net.input_layer() == [()]
        assert net.output_layer() == [()]

    def test_input_output_layers_level1(self, tree8):
        net = CutNetwork(Cut.level(tree8, 1))
        assert net.input_layer() == [(0,), (1,)]
        assert net.output_layer() == [(4,), (5,)]

    def test_member_graph_level1(self, tree8):
        net = CutNetwork(Cut.level(tree8, 1))
        graph = net.member_graph()
        assert graph[(0,)] == {(2,), (3,)}
        assert graph[(1,)] == {(2,), (3,)}
        assert graph[(2,)] == {(4,), (5,)}
        assert graph[(4,)] == set()

    def test_topological_order_respects_edges(self, tree8):
        net = CutNetwork(Cut.random(tree8, random.Random(1), 0.6))
        order = net.topological_order()
        position = {path: i for i, path in enumerate(order)}
        for path, succs in net.member_graph().items():
            for succ in succs:
                assert position[path] < position[succ]

    def test_output_base(self, tree8):
        net = CutNetwork(Cut.level(tree8, 1))
        assert net.output_base((4,)) == 0
        assert net.output_base((5,)) == 4


class TestCountingTheorem21:
    """Theorem 2.1: the network formed by any cut counts."""

    def test_exhaustive_width4_all_cuts(self):
        tree = DecompositionTree(4)
        cuts = [Cut.singleton(tree), Cut.level(tree, 1)]
        # plus all partial splits of the level-1 cut are just level cuts
        for cut in cuts:
            for counts in itertools.product(range(3), repeat=4):
                net = CutNetwork(cut)
                net.feed_counts(list(counts))
                net.verify_step_property()

    def test_random_cuts_random_workloads_w8(self, tree8):
        rng = random.Random(11)
        for _ in range(150):
            net = CutNetwork(Cut.random(tree8, rng, 0.5))
            for _batch in range(3):
                net.feed_counts([rng.randint(0, 5) for _ in range(8)])
                net.verify_step_property()

    def test_random_cuts_w16_and_w32(self):
        rng = random.Random(13)
        for width in (16, 32):
            tree = DecompositionTree(width)
            for _ in range(25):
                net = CutNetwork(Cut.random(tree, rng, 0.5))
                net.feed_counts([rng.randint(0, 3) for _ in range(width)])
                net.verify_step_property()

    def test_paper_prose_convention_fails(self):
        """The ablation fact: the literal prose wiring does not count."""
        tree = DecompositionTree(4)
        net = CutNetwork(Cut.leaves(tree), MergerConvention.PAPER_PROSE)
        counts = [1, 0, 1, 0]
        net.feed_counts(counts)
        assert not has_step_property(net.output_counts)

    def test_counter_outputs_are_exactly_balanced(self, tree8):
        """Stronger than the step property: counter components make the
        quiescent outputs perfectly balanced starting at wire 0."""
        rng = random.Random(5)
        for _ in range(50):
            net = CutNetwork(Cut.random(tree8, rng, 0.5))
            counts = [rng.randint(0, 5) for _ in range(8)]
            net.feed_counts(counts)
            total = sum(counts)
            expected = [(total + 7 - i) // 8 for i in range(8)]
            assert net.output_counts == expected


class TestTokenSemantics:
    def test_token_values_are_gap_free(self, tree8):
        rng = random.Random(2)
        net = CutNetwork(Cut.random(tree8, rng, 0.5))
        values = [net.feed_token(rng.randrange(8))[1] for _ in range(64)]
        assert counting_values_ok(values)

    def test_token_batch_equivalence(self, tree8):
        rng = random.Random(4)
        cut = Cut.random(tree8, rng, 0.5)
        token_net, batch_net = CutNetwork(cut), CutNetwork(cut)
        wires = [rng.randrange(8) for _ in range(100)]
        for wire in wires:
            token_net.feed_token(wire)
        histogram = Counter(wires)
        batch_net.feed_counts([histogram.get(i, 0) for i in range(8)])
        assert token_net.output_counts == batch_net.output_counts
        for path in token_net.states:
            assert token_net.states[path].total == batch_net.states[path].total

    def test_trace_records_hops(self, tree8):
        net = CutNetwork(Cut.level(tree8, 1))
        trace = TokenTrace(input_wire=0)
        net.feed_token(0, trace)
        kinds = [spec.kind.value for spec in trace.hops]
        assert kinds == ["B", "M", "X"]
        assert trace.output_wire == trace.value == 0

    def test_invalid_wire_rejected(self, tree8):
        net = CutNetwork(Cut.singleton(tree8))
        with pytest.raises(StructureError):
            net.feed_token(8)
        with pytest.raises(StructureError):
            net.feed_counts([1] * 7)
        with pytest.raises(StructureError):
            net.feed_counts([-1] + [0] * 7)

    @pytest.mark.parametrize(
        "feed",
        [
            lambda net: net.feed_token(1.5),
            lambda net: net.feed_token("1"),
            lambda net: net.feed_token(None),
            lambda net: net.feed_counts([1] * 7 + [0.5]),
            lambda net: net.feed_counts([1] * 7 + [-1]),
        ],
        ids=["wire-1.5", "wire-str", "wire-None", "float-count-last", "negative-count-last"],
    )
    def test_bad_input_names_the_wire_and_moves_no_counter(self, tree8, feed):
        """``0 <= 1.5 < w`` passed and a fractional wire resolved; a float
        count died in ``balanced_counts`` after a member's counter moved."""
        net, twin = CutNetwork(Cut.leaves(tree8)), CutNetwork(Cut.leaves(tree8))
        for each in (net, twin):
            each.feed_counts([2] * 8)
        with pytest.raises(StructureError, match="wire"):
            feed(net)
        assert net.states == twin.states  # totals and arrivals of every member
        assert net.tokens_in == net.tokens_out == 16
        assert list(net.output_counts) == list(twin.output_counts)
        assert net.feed_token(True) == twin.feed_token(1)  # operator.index allows it

    def test_token_conservation(self, tree8):
        net = CutNetwork(Cut.level(tree8, 1))
        net.feed_counts([3] * 8)
        assert net.tokens_in == net.tokens_out == 24
        assert sum(net.output_counts) == 24


class TestReconfiguration:
    def test_split_preserves_quiescent_behaviour(self, tree8):
        rng = random.Random(6)
        for _ in range(30):
            reference = CutNetwork(Cut.singleton(tree8))
            splitting = CutNetwork(Cut.singleton(tree8))
            first = [rng.randint(0, 4) for _ in range(8)]
            reference.feed_counts(first)
            splitting.feed_counts(first)
            splitting.split_member(())
            second = [rng.randint(0, 4) for _ in range(8)]
            reference.feed_counts(second)
            splitting.feed_counts(second)
            assert splitting.output_counts == reference.output_counts

    def test_merge_restores_exact_state(self, tree8):
        net = CutNetwork(Cut.singleton(tree8))
        net.feed_counts([2, 0, 5, 1, 0, 0, 3, 1])
        before = net.states[()].copy()
        net.split_member(())
        net.merge_member(())
        after = net.states[()]
        assert after.total == before.total
        assert after.arrivals == before.arrivals

    def test_deep_split_merge_round_trip(self):
        tree = DecompositionTree(16)
        rng = random.Random(8)
        net = CutNetwork(Cut.singleton(tree))
        net.feed_counts([rng.randint(0, 3) for _ in range(16)])
        net.split_member(())
        net.feed_counts([rng.randint(0, 3) for _ in range(16)])
        net.split_member((2,))
        net.feed_counts([rng.randint(0, 3) for _ in range(16)])
        net.merge_member((2,))
        net.feed_counts([rng.randint(0, 3) for _ in range(16)])
        net.merge_member_recursive(())
        net.feed_counts([rng.randint(0, 3) for _ in range(16)])
        net.verify_step_property()
        assert len(net.states) == 1

    def test_interleaved_reconfig_stress(self, tree8):
        for seed in range(15):
            rng = random.Random(seed)
            net = CutNetwork(Cut.singleton(tree8))
            for _ in range(30):
                net.feed_counts([rng.randint(0, 3) for _ in range(8)])
                paths = sorted(net.states)
                path = paths[rng.randrange(len(paths))]
                if rng.random() < 0.5 and not net.states[path].spec.is_leaf:
                    net.split_member(path)
                elif path:
                    try:
                        net.merge_member(path[:-1])
                    except Exception:
                        pass
                net.feed_counts([rng.randint(0, 3) for _ in range(8)])
                net.verify_step_property()

    def test_split_errors(self, tree8):
        net = CutNetwork(Cut.leaves(tree8))
        from repro.errors import InvalidCutError

        with pytest.raises(InvalidCutError):
            net.split_member(())  # not a member
        leaf = sorted(net.states)[0]
        with pytest.raises(InvalidCutError):
            net.split_member(leaf)  # balancer

    def test_merge_errors(self, tree8):
        net = CutNetwork(Cut.singleton(tree8))
        from repro.errors import InvalidCutError

        with pytest.raises(InvalidCutError):
            net.merge_member(())  # children not live

    def test_merge_recursive_mixed_depths(self, tree8):
        net = CutNetwork(Cut.singleton(tree8))
        net.feed_counts([1] * 8)
        net.split_member(())
        net.split_member((0,))
        net.split_member((4,))
        net.feed_counts([1] * 8)
        net.merge_member_recursive(())
        assert sorted(net.states) == [()]
        assert net.states[()].total == 16
        net.feed_counts([1] * 8)
        net.verify_step_property()
