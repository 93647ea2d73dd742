"""Tests for the classic bitonic counting network (paper Section 1.1/2)."""

import itertools
import random
from collections import Counter

import pytest

from repro.analysis.theory import static_balancer_count
from repro.core.bitonic import bitonic_depth, bitonic_network
from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import DecompositionTree
from repro.core.verification import has_step_property
from repro.errors import StructureError


class TestStructure:
    def test_depth_formula(self):
        for width in (2, 4, 8, 16, 32, 64):
            assert bitonic_network(width).depth == bitonic_depth(width)

    def test_balancer_count_formula(self):
        """Section 2: BITONIC[w] has w log w (log w + 1)/4 balancers."""
        for width in (2, 4, 8, 16, 32, 64):
            assert bitonic_network(width).num_balancers == static_balancer_count(width)

    def test_invalid_width(self):
        for width in (0, 1, 3, 6):
            with pytest.raises(StructureError):
                bitonic_network(width)


class TestCounting:
    def test_exhaustive_w4(self):
        for counts in itertools.product(range(4), repeat=4):
            net = bitonic_network(4)
            net.feed_counts(list(counts))
            assert has_step_property(net.output_counts)

    def test_random_w8_w16_multibatch(self):
        rng = random.Random(1)
        for width in (8, 16):
            net = bitonic_network(width)
            for _ in range(100):
                net.feed_counts([rng.randint(0, 4) for _ in range(width)])
                assert has_step_property(net.output_counts)

    def test_sorting_correspondence(self):
        """AHS94: a counting network's comparator isomorph sorts; by the
        0-1 principle it suffices to sort every 0-1 input."""
        for width in (4, 8):
            net = bitonic_network(width)
            for bits in itertools.product((0, 1), repeat=width):
                assert net.sorts_01(bits)

    def test_sorting_random_w32(self):
        rng = random.Random(2)
        net = bitonic_network(32)
        for _ in range(300):
            bits = [rng.randint(0, 1) for _ in range(32)]
            assert net.sorts_01(bits)


class TestCrossCheckAgainstCutMachinery:
    """The full-leaf cut of T_w must be behaviourally identical to the
    independently-constructed classic network."""

    def test_quiescent_equivalence(self):
        rng = random.Random(3)
        for width in (4, 8, 16):
            tree = DecompositionTree(width)
            for _ in range(30):
                counts = [rng.randint(0, 5) for _ in range(width)]
                classic = bitonic_network(width)
                classic.feed_counts(counts)
                cut_net = CutNetwork(Cut.leaves(tree))
                cut_net.feed_counts(counts)
                assert classic.output_counts == cut_net.output_counts

    def test_token_level_equivalence(self):
        rng = random.Random(4)
        width = 8
        classic = bitonic_network(width)
        cut_net = CutNetwork(Cut.leaves(DecompositionTree(width)))
        for _ in range(200):
            wire = rng.randrange(width)
            assert classic.feed_token(wire) == cut_net.feed_token(wire)[0]

    def test_balancer_count_matches_cut(self):
        for width in (4, 8, 16):
            tree = DecompositionTree(width)
            assert len(Cut.leaves(tree)) == static_balancer_count(width)
