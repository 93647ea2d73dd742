"""Tests for effective width/depth (paper Definitions 1.1/1.2, Lemmas 2.2/2.3)."""

import random

import pytest

from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import DecompositionTree
from repro.core import metrics


@pytest.fixture
def tree8():
    return DecompositionTree(8)


class TestBasicMetrics:
    def test_singleton_is_width1_depth1(self, tree8):
        m = metrics.measure(CutNetwork(Cut.singleton(tree8)))
        assert m == metrics.NetworkMetrics(1, 1, 1)

    def test_level1_cut(self, tree8):
        m = metrics.measure(CutNetwork(Cut.level(tree8, 1)))
        assert m.num_components == 6
        assert m.effective_width == 2
        assert m.effective_depth == 3

    def test_full_cut_matches_bitonic_shape(self, tree8):
        m = metrics.measure(CutNetwork(Cut.leaves(tree8)))
        # BITONIC[8]: depth log w (log w + 1)/2 = 6 layers; width w/2 = 4.
        assert m.effective_depth == 6
        assert m.effective_width == 4

    def test_figure3_cut1(self, tree8):
        """Figure 3 of the paper: cut1 has width 2 and depth 5."""
        cut1 = Cut.singleton(tree8).split(()).split((0,))
        m = metrics.measure(CutNetwork(cut1))
        assert m.effective_width == 2
        assert m.effective_depth == 5
        assert m.num_components == 11


class TestLemma22Depth:
    """Effective depth <= (k+1)(k+2)/2 when all leaves at level <= k."""

    def test_uniform_cuts_meet_bound_exactly(self):
        for width in (4, 8, 16, 32):
            tree = DecompositionTree(width)
            for level in range(tree.max_level + 1):
                net = CutNetwork(Cut.level(tree, level))
                depth = metrics.effective_depth(net)
                assert depth == metrics.lemma22_bound(level)

    def test_random_cuts_respect_bound(self):
        rng = random.Random(5)
        for width in (8, 16):
            tree = DecompositionTree(width)
            for _ in range(40):
                cut = Cut.random(tree, rng, 0.5)
                max_level = max(cut.levels())
                depth = metrics.effective_depth(CutNetwork(cut))
                assert depth <= metrics.lemma22_bound(max_level)


class TestLemma23Width:
    """Effective width >= 2^k when all leaves at level >= k."""

    def test_uniform_cuts(self):
        for width in (4, 8, 16, 32):
            tree = DecompositionTree(width)
            for level in range(tree.max_level + 1):
                net = CutNetwork(Cut.level(tree, level))
                assert metrics.effective_width(net) >= metrics.lemma23_bound(level)

    def test_uniform_cut_width_exact(self):
        """Uniform level-k cuts have width exactly 2^k (the network is
        isomorphic to a bitonic network of width 2^(k+1))."""
        for width in (8, 16, 32):
            tree = DecompositionTree(width)
            for level in range(tree.max_level + 1):
                net = CutNetwork(Cut.level(tree, level))
                assert metrics.effective_width(net) == 2 ** level

    def test_random_cuts_respect_bound(self):
        rng = random.Random(6)
        for width in (8, 16):
            tree = DecompositionTree(width)
            for _ in range(40):
                cut = Cut.random(tree, rng, 0.7)
                min_level = min(cut.levels())
                width_measured = metrics.effective_width(CutNetwork(cut))
                assert width_measured >= metrics.lemma23_bound(min_level)

    def test_width_never_decreases_on_split(self):
        """The monotonicity argument inside Lemma 2.3's proof."""
        rng = random.Random(7)
        tree = DecompositionTree(16)
        for _ in range(20):
            cut = Cut.random(tree, rng, 0.4)
            net = CutNetwork(cut)
            before = metrics.effective_width(net)
            splittable = [
                p for p in net.states if not net.states[p].spec.is_leaf
            ]
            if not splittable:
                continue
            net.split_member(splittable[rng.randrange(len(splittable))])
            after = metrics.effective_width(net)
            assert after >= before


class TestCrossCheckNetworkx:
    def test_dinic_matches_networkx(self, tree8):
        networkx = pytest.importorskip("networkx")
        from repro.analysis.graphs import max_vertex_disjoint_paths

        rng = random.Random(8)
        for _ in range(15):
            net = CutNetwork(Cut.random(tree8, rng, 0.5))
            graph = net.member_graph()
            sources, sinks = net.input_layer(), net.output_layer()
            mine = max_vertex_disjoint_paths(graph, sources, sinks)
            # networkx equivalent via node-splitting max-flow
            g = networkx.DiGraph()
            for node, succs in graph.items():
                g.add_edge(("in", node), ("out", node), capacity=1)
                for succ in succs:
                    g.add_edge(("out", node), ("in", succ), capacity=1)
            g.add_node("S")
            g.add_node("T")
            for s in sources:
                g.add_edge("S", ("in", s), capacity=1)
            for t in sinks:
                g.add_edge(("out", t), "T", capacity=1)
            reference = networkx.maximum_flow_value(g, "S", "T")
            assert mine == reference
