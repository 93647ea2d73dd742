"""Tests for system-size estimation (paper Section 3.1, Lemmas 3.1-3.3)."""

import math
import random

import pytest

from repro.chord.estimation import LevelEstimator, SizeEstimator
from repro.chord.ring import ChordRing
from repro.errors import MembershipError, RingError
from repro.ext.periodic_adaptive import periodic_tree


def build_ring(n, seed):
    ring = ChordRing(seed=seed)
    for _ in range(n):
        ring.join()
    return ring


class TestSizeEstimator:
    def test_empty_ring_rejected(self):
        with pytest.raises(RingError):
            SizeEstimator(ChordRing(seed=0)).estimate(0)

    def test_single_node(self):
        ring = ChordRing(seed=1)
        node = ring.join()
        estimate = SizeEstimator(ring).estimate(node.node_id)
        assert estimate.size_estimate == 1.0

    def test_small_ring_exact(self):
        """When the walk wraps, the node counts exactly."""
        ring = build_ring(3, seed=2)
        estimator = SizeEstimator(ring)
        for node in ring.nodes():
            est = estimator.estimate(node.node_id)
            if est.steps == len(ring) - 1:
                assert est.size_estimate == 3.0

    def test_step_multiplier_validation(self):
        ring = build_ring(4, seed=3)
        with pytest.raises(RingError):
            SizeEstimator(ring, step_multiplier=0)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_lemma32_all_estimates_within_factor_10(self, n):
        """Lemma 3.2: w.h.p. every node's estimate is in [N/10, 10N]."""
        ring = build_ring(n, seed=n)
        estimator = SizeEstimator(ring)
        for node in ring.nodes():
            estimate = estimator.size_estimate(node.node_id)
            assert n / 10 <= estimate <= 10 * n

    def test_estimates_tighten_with_multiplier(self):
        """More successor steps give lower estimate spread (ablation)."""
        n = 512
        ring = build_ring(n, seed=77)
        spreads = []
        for multiplier in (1, 4, 16):
            estimator = SizeEstimator(ring, step_multiplier=multiplier)
            values = [estimator.size_estimate(v.node_id) for v in ring.nodes()]
            spreads.append(max(values) / min(values))
        assert spreads[2] < spreads[0]


class TestLevelEstimator:
    def test_ideal_level_matches_phi(self):
        ring = build_ring(100, seed=4)
        levels = LevelEstimator(1024, ring)
        # phi: 1, 6, 24, 80, 240, ... ; largest k with phi(k) < 100 is 3.
        assert levels.ideal_level(100) == 3
        assert levels.ideal_level(80) == 2
        assert levels.ideal_level(7) == 1
        assert levels.ideal_level(1) == 0

    def test_ideal_level_boundary(self):
        """phi(1) = 6, so N = 6 still yields ell* = 0 (strict <) and
        N = 7 is the first size with ell* = 1."""
        ring = build_ring(2, seed=5)
        levels = LevelEstimator(1024, ring)
        assert levels.ideal_level(6) == 0
        assert levels.ideal_level(7) == 1
        assert levels.ideal_level(24) == 1
        assert levels.ideal_level(25) == 2

    @pytest.mark.parametrize("n", [50, 300, 2000])
    def test_lemma33_levels_within_window(self, n):
        """Lemma 3.3: all level estimates in [ell*-4, ell*+4] w.h.p."""
        ring = build_ring(n, seed=n + 1)
        levels = LevelEstimator(1 << 14, ring)
        star = levels.ideal_level()
        for node in ring.nodes():
            level = levels.level_estimate(node.node_id)
            assert star - 4 <= level <= star + 4

    def test_levels_clamped_to_tree(self):
        """A huge system with a small width saturates at the max level."""
        ring = build_ring(2000, seed=6)
        levels = LevelEstimator(8, ring)  # T_8 has max level 2
        for node in ring.nodes()[:50]:
            assert levels.level_estimate(node.node_id) <= 2

    @pytest.mark.parametrize("width", [8, 64, 1024])
    def test_bisect_matches_phi_scan(self, width):
        """The tree's bisect is pinned to the full-level scan it
        replaced, across every phi boundary."""
        ring = build_ring(2, seed=7)
        tree = LevelEstimator(width, ring).tree
        probes = [0.0, 0.5, 1.0]
        for level in range(tree.max_level + 1):
            phi = tree.phi(level)
            probes.extend([phi - 0.5, float(phi), phi + 0.5, phi + 1.0])
        probes.append(10.0 * tree.phi(tree.max_level))
        for estimate in probes:
            assert tree.level_for(estimate) == phi_scan(tree, estimate), estimate

    def test_non_monotone_phi_falls_back_to_scan(self):
        """Another structure's phi need not be monotone (the periodic
        tree's is 1, 3, 9, 24, 24 at width 8): every node's level keeps
        the scan semantics. Rings of 1 to 30 nodes put estimates on both
        sides of every phi boundary."""
        tree = periodic_tree(8)
        for n in range(1, 31):
            ring = build_ring(n, seed=8)
            levels = LevelEstimator(8, ring, tree=tree)
            for node in ring.nodes():
                estimate = levels.sizes.size_estimate(node.node_id)
                assert levels.level_estimate(node.node_id) == phi_scan(tree, estimate)
            assert levels.ideal_level() == phi_scan(tree, n)


def phi_scan(tree, estimate):
    """The largest level with ``phi(level) < estimate``, by the full
    scan ``DecompositionTree.level_for`` replaced."""
    best = 0
    for level in range(tree.max_level + 1):
        if tree.phi(level) < estimate:
            best = level
    return best


def three_search_estimate(ring, step_multiplier, node_id):
    """``SizeEstimator.estimate`` as it was while each distance came
    from its own ring search, kept as the oracle; returns
    ``(e_v, k, n_v)``."""
    n = len(ring)
    if n == 1:
        return 0.0, 0, 1.0
    # Step 1: coarse log-size estimate from the successor gap.
    gap = ring.distance_fraction(node_id, ring.succ_k(node_id, 1).node_id)
    log_estimate = math.log2(1.0 / gap)
    # Step 2: walk k successors. Walking k >= n steps would lap the
    # ring; a real node stops upon seeing itself, knowing N exactly.
    steps = max(1, step_multiplier * math.ceil(log_estimate))
    if steps >= n:
        return log_estimate, n - 1, float(n)
    span = ring.distance_fraction(node_id, ring.succ_k(node_id, steps).node_id)
    return log_estimate, steps, steps / span


class TestOnePositionEstimate:
    @pytest.mark.parametrize("multiplier", [1, 4, 8])
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 1024])
    def test_bit_identical_to_the_three_search_formula(self, n, multiplier):
        """``==`` on floats: the same expression in the same order."""
        ring = build_ring(n, seed=n + multiplier)
        estimator = SizeEstimator(ring, step_multiplier=multiplier)
        for node in ring.nodes():
            expected = three_search_estimate(ring, multiplier, node.node_id)
            record = estimator.estimate(node.node_id)
            assert (record.log_estimate, record.steps, record.size_estimate) == expected
            assert record.node_id == node.node_id
            assert estimator.size_estimate(node.node_id) == expected[2]

    def test_absent_node_rejected(self):
        ring = build_ring(4, seed=9)
        absent = (ring.nodes()[0].node_id + 1) % ring.space.size
        with pytest.raises(MembershipError):
            SizeEstimator(ring).size_estimate(absent)


class TestLevelMemo:
    def test_no_level_outlives_its_ring_version(self):
        """Every membership change re-derives every level: after each
        join and each removal the memoising estimator agrees with one
        built afresh, for every node."""
        ring = build_ring(5, seed=10)
        levels = LevelEstimator(64, ring)
        rng = random.Random(10)
        moved = 0
        before = {}
        for step in range(120):
            if step < 80:
                ring.join()
            else:
                ring.remove(rng.choice(ring.nodes()).node_id)
            fresh = LevelEstimator(64, ring)
            after = {v.node_id: levels.level_estimate(v.node_id) for v in ring.nodes()}
            assert after == {
                v.node_id: fresh.level_estimate(v.node_id) for v in ring.nodes()
            }
            moved += sum(1 for v, level in after.items() if before.get(v, level) != level)
            before = after
        assert moved  # the memo had stale levels to serve, and did not
