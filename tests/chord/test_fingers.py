"""Tests for finger tables and greedy lookup (paper Section 1.4)."""

import math
import random

import pytest

from repro.chord.fingers import finger_table, lookup, lookup_name
from repro.chord.hashing import home_node, name_to_point
from repro.chord.ring import ChordRing
from repro.errors import MembershipError, RingError


@pytest.fixture
def ring():
    ring = ChordRing(seed=7)
    for _ in range(128):
        ring.join()
    return ring


class TestFingerTable:
    def test_finger_count(self, ring):
        node = ring.nodes()[0]
        assert len(finger_table(ring, node.node_id)) == ring.space.bits

    def test_first_finger_is_successor(self, ring):
        node = ring.nodes()[5]
        fingers = finger_table(ring, node.node_id)
        assert fingers[0] is ring.successor((node.node_id + 1) % ring.space.size)

    def test_fingers_are_successors_of_powers(self, ring):
        node = ring.nodes()[3]
        fingers = finger_table(ring, node.node_id)
        for i in (0, 10, 30, 63):
            point = (node.node_id + (1 << i)) % ring.space.size
            assert fingers[i] is ring.successor(point)


class TestLookup:
    def test_lookup_finds_owner(self, ring):
        rng = random.Random(1)
        nodes = ring.nodes()
        for i in range(200):
            start = rng.choice(nodes)
            name = "key-%d" % i
            owner, hops = lookup_name(ring, start.node_id, name)
            assert owner is home_node(ring, name)
            assert hops >= 0

    def test_lookup_own_key_zero_hops(self, ring):
        node = ring.nodes()[0]
        owner, hops = lookup(ring, node.node_id, node.node_id)
        assert owner is node
        assert hops == 0

    def test_hops_logarithmic(self, ring):
        rng = random.Random(2)
        nodes = ring.nodes()
        hops = []
        for i in range(300):
            start = rng.choice(nodes)
            _owner, h = lookup_name(ring, start.node_id, "key-%d" % i)
            hops.append(h)
        mean_hops = sum(hops) / len(hops)
        # Chord's expected ~ (1/2) log2 N; allow generous slack.
        assert mean_hops <= math.log2(len(ring)) + 1
        assert max(hops) <= 2 * math.log2(len(ring)) + 4

    def test_single_node_ring(self):
        ring = ChordRing(seed=9)
        node = ring.join()
        owner, hops = lookup_name(ring, node.node_id, "anything")
        assert owner is node
        assert hops == 0

    def test_two_node_ring(self):
        ring = ChordRing(seed=10)
        a = ring.join(node_id=100)
        b = ring.join(node_id=1 << 60)
        for key in ("x", "y", "z", "w"):
            owner, _ = lookup_name(ring, a.node_id, key)
            assert owner is home_node(ring, key)
            owner, _ = lookup_name(ring, b.node_id, key)
            assert owner is home_node(ring, key)

    def test_empty_ring_rejected(self):
        ring = ChordRing(seed=11)
        with pytest.raises(RingError):
            lookup(ring, 0, 0)


class TableScanRouting:
    """The routing this repository used until tables were dropped, kept
    as the oracle: per-node finger tables (``finger_table``), collapsed
    to their distinct entries furthest first, scanned by the greedy
    loop. One instance serves one ring state."""

    def __init__(self, ring):
        self.ring = ring
        self._scan_cache = {}

    def scan_fingers(self, node_id):
        cached = self._scan_cache.get(node_id)
        if cached is None:
            cached = []
            last = None
            for finger in reversed(finger_table(self.ring, node_id)):
                finger_id = finger.node_id
                if finger_id != last:
                    cached.append(finger)
                    last = finger_id
            self._scan_cache[node_id] = cached
        return cached

    def lookup(self, start_id, key_point):
        ring = self.ring
        if len(ring) == 0:
            raise RingError("lookup on an empty ring")
        current = ring.node(start_id)
        hops = 0
        # With a single node, that node owns everything.
        if len(ring) == 1:
            return current, hops
        size = ring.space.size
        scan_of = self.scan_fingers
        succ_of = ring.succ_k
        while True:
            current_id = current.node_id
            succ = succ_of(current_id, 1)
            succ_id = succ.node_id
            key_offset = (key_point - current_id) % size
            # The key is owned by current's successor if it lies in (current, succ].
            if (
                key_offset < (succ_id - current_id) % size and key_point != current_id
            ) or key_point == succ_id:
                if succ_id != current_id:
                    hops += 1
                return succ, hops
            if key_point == current_id:
                return current, hops
            # Forward to the closest preceding finger.
            next_node = succ
            for finger in scan_of(current_id):
                finger_id = finger.node_id
                if (finger_id - current_id) % size < key_offset and finger_id != current_id:
                    next_node = finger
                    break
            if next_node.node_id == current_id:
                return current, hops
            current = next_node
            hops += 1


def seeded_ring(n, seed):
    ring = ChordRing(seed=seed)
    for _ in range(n):
        ring.join()
    return ring


def probe_keys(ring, rng, count):
    """``(start id, key)`` pairs: uniform keys, and the places an
    interval test can be off by one — a node's own id and its two
    neighbours in the space, the start's, and both sides of point 0."""
    size = ring.space.size
    ids = [node.node_id for node in ring.nodes()]
    for _ in range(count):
        start = rng.choice(ids)
        other = rng.choice(ids)
        yield start, rng.choice(
            [
                rng.randrange(size),
                rng.randrange(size),
                other,
                (other + 1) % size,
                (other - 1) % size,
                start,
                (start + 1) % size,
                (start - 1) % size,
                rng.choice([0, 1, size - 1]),
                (ids[-1] + rng.randrange(1, 1 << 20)) % size,  # past the highest id
            ]
        )


def assert_routes_alike(ring, rng, count):
    oracle = TableScanRouting(ring)
    hops_seen = 0
    for start, key in probe_keys(ring, rng, count):
        owner, hops = lookup(ring, start, key)
        expected_owner, expected_hops = oracle.lookup(start, key)
        assert owner is expected_owner and hops == expected_hops, (start, key)
        hops_seen += hops
    return hops_seen


class TestLookupMatchesTableScan:
    """Routing without tables is the table scan, owner and hop count."""

    @pytest.mark.parametrize("n", [2, 3, 17, 128, 1024])
    def test_same_owner_and_hops(self, n):
        ring = seeded_ring(n, seed=n)
        hops = assert_routes_alike(ring, random.Random(n), 2000)
        assert hops > 2000 * (n > 3)  # multi-hop routes were compared

    @pytest.mark.parametrize("n", [3, 17, 128])
    def test_same_after_interleaved_joins_and_removals(self, n):
        ring = seeded_ring(n, seed=100 + n)
        rng = random.Random(n)
        for _ in range(40):
            if len(ring) > 2 and rng.random() < 0.5:
                ring.remove(rng.choice(ring.nodes()).node_id)
            else:
                ring.join()
            assert_routes_alike(ring, rng, 100)

    def test_start_must_be_on_the_ring(self):
        ring = seeded_ring(5, seed=12)
        absent = (ring.nodes()[0].node_id + 1) % ring.space.size
        with pytest.raises(MembershipError):
            lookup(ring, absent, 0)
