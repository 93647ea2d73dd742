"""Tests for the counting-tree baseline (paper Section 1.3)."""

import pytest

from repro.core.diffracting import CountingTree
from repro.core.verification import counting_values_ok, has_step_property
from repro.errors import StructureError


class TestCountingTree:
    def test_depth_zero_is_a_counter(self):
        tree = CountingTree(0)
        assert tree.width == 1
        assert [tree.next_value() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_values_gap_free(self):
        tree = CountingTree(3)
        values = [tree.next_value() for _ in range(100)]
        assert counting_values_ok(values)

    def test_leaf_counts_step_property(self):
        tree = CountingTree(4)
        for _ in range(77):
            tree.next_value()
        assert has_step_property(tree.leaf_counts)
        assert sum(tree.leaf_counts) == 77

    def test_tokens_balanced_across_leaves(self):
        tree = CountingTree(2)
        for _ in range(8):
            tree.next_value()
        assert tree.leaf_counts == [2, 2, 2, 2]

    def test_negative_depth_rejected(self):
        with pytest.raises(StructureError):
            CountingTree(-1)
