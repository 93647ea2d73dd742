"""The Chord ring: membership and successor structure.

The ring is the ground truth of the overlay: a sorted set of node
identifiers. Joins insert a node at its random identifier; graceful
leaves and crashes remove it (the difference — whether hosted state is
handed off or lost — is handled by the runtime layer on top,
Section 3.4 of the paper). ``successor``/``succ_k`` provide the
primitives the size estimator (Section 3.1) and the consistent hash are
built from.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, Iterator, List, Optional

from repro.chord.identifiers import IdentifierSpace
from repro.core.atomics import AtomicCounter
from repro.errors import MembershipError, RingError


class ChordNode:
    """One physical node: an identifier plus a human-readable name."""

    __slots__ = ("node_id", "name")

    def __init__(self, node_id: int, name: str):
        self.node_id = node_id
        self.name = name

    def __repr__(self):
        return "ChordNode(%s, id=%#x)" % (self.name, self.node_id)


class ChordRing:
    """The ring membership structure.

    Maintains the sorted identifier list so ``successor`` is a binary
    search; join/leave are O(N) list edits, which is fine at the scales
    the experiments run (N up to tens of thousands).
    """

    def __init__(self, space: Optional[IdentifierSpace] = None, seed: int = 0):
        self.space = space or IdentifierSpace()
        self.rng = random.Random(seed)
        self._ids: List[int] = []
        self._nodes: Dict[int, ChordNode] = {}
        self._join_counter = AtomicCounter()
        #: Bumped on every membership change; derived structures (the
        #: finger-table cache below, external memos) key off it.
        self._version = 0
        self._finger_cache: Dict[int, List[ChordNode]] = {}
        self._scan_cache: Dict[int, List[ChordNode]] = {}

    @property
    def version(self) -> int:
        """Monotonic membership-change counter (joins and removals)."""
        return self._version

    def _membership_changed(self) -> None:
        self._version += 1
        self._finger_cache = {}
        self._scan_cache = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[ChordNode]:
        return (self._nodes[node_id] for node_id in self._ids)

    def nodes(self) -> List[ChordNode]:
        """All nodes in identifier order."""
        return [self._nodes[node_id] for node_id in self._ids]

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node(self, node_id: int) -> ChordNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise MembershipError("no node with id %#x" % node_id) from None

    def join(self, name: Optional[str] = None, node_id: Optional[int] = None) -> ChordNode:
        """Add a node with a fresh random identifier (or a forced one)."""
        if node_id is None:
            node_id = self.space.random_id(self.rng)
            while node_id in self._nodes:  # vanishingly rare at 64 bits
                node_id = self.space.random_id(self.rng)
        else:
            self.space.check(node_id)
            if node_id in self._nodes:
                raise MembershipError("node id %#x already on the ring" % node_id)
        joined = self._join_counter.fetch_increment()
        if name is None:
            name = "node-%d" % joined
        node = ChordNode(node_id, name)
        bisect.insort(self._ids, node_id)
        self._nodes[node_id] = node
        self._membership_changed()
        return node

    def remove(self, node_id: int) -> ChordNode:
        """Remove a node (used for both graceful leaves and crashes)."""
        node = self.node(node_id)
        index = bisect.bisect_left(self._ids, node_id)
        del self._ids[index]
        del self._nodes[node_id]
        self._membership_changed()
        return node

    # ------------------------------------------------------------------
    # successor structure
    # ------------------------------------------------------------------
    def successor(self, point: int) -> ChordNode:
        """The first node at or clockwise-after ``point``."""
        if not self._ids:
            raise RingError("successor lookup on an empty ring")
        self.space.check(point)
        index = bisect.bisect_left(self._ids, point)
        if index == len(self._ids):
            index = 0
        return self._nodes[self._ids[index]]

    def finger_table(self, node_id: int) -> List[ChordNode]:
        """Chord fingers of a node: ``finger[i] = successor(n + 2^i)``.

        Memoised until the next membership change — greedy lookups ask
        for the same node's table O(log N) times per query, and the old
        rebuild-per-call behaviour dominated the token hot path (~190k
        ``successor`` bisects per 600 injections in the churn bench).
        """
        cached = self._finger_cache.get(node_id)
        if cached is None:
            if not self._ids:
                raise RingError("finger table on an empty ring")
            ids = self._ids
            nodes = self._nodes
            size = self.space.size
            length = len(ids)
            insert = bisect.bisect_left
            cached = []
            for i in range(self.space.bits):
                point = (node_id + (1 << i)) % size
                index = insert(ids, point)
                if index == length:
                    index = 0
                cached.append(nodes[ids[index]])
            self._finger_cache[node_id] = cached
        return cached

    def scan_fingers(self, node_id: int) -> List[ChordNode]:
        """The *distinct* fingers of a node, furthest offset first.

        Greedy lookup scans fingers from the largest power-of-two offset
        down for the closest preceding node; consecutive offsets often
        land on the same successor, so the full ``space.bits``-entry
        table collapses to ~log N candidates. Memoised until the next
        membership change, like :meth:`finger_table` (from which it is
        derived, preserving scan order exactly — duplicates in the full
        table form consecutive runs, so adjacent dedup is lossless).
        """
        cached = self._scan_cache.get(node_id)
        if cached is None:
            cached = []
            last = None
            for finger in reversed(self.finger_table(node_id)):
                finger_id = finger.node_id
                if finger_id != last:
                    cached.append(finger)
                    last = finger_id
            self._scan_cache[node_id] = cached
        return cached

    def succ_k(self, node_id: int, k: int) -> ChordNode:
        """The k-th clockwise successor of a node (``succ_1`` is the next
        node; ``k`` wraps modulo the ring size)."""
        if k < 1:
            raise RingError("succ_k requires k >= 1, got %d" % k)
        index = bisect.bisect_left(self._ids, node_id)
        if index >= len(self._ids) or self._ids[index] != node_id:
            raise MembershipError("no node with id %#x" % node_id)
        return self._nodes[self._ids[(index + k) % len(self._ids)]]

    def predecessor(self, node_id: int) -> ChordNode:
        """The node immediately counter-clockwise of ``node_id``."""
        index = bisect.bisect_left(self._ids, node_id)
        if index >= len(self._ids) or self._ids[index] != node_id:
            raise MembershipError("no node with id %#x" % node_id)
        return self._nodes[self._ids[(index - 1) % len(self._ids)]]

    def distance_fraction(self, from_id: int, to_id: int) -> float:
        """The paper's ``d(u, v)`` on the unit-circumference ring."""
        return self.space.distance_fraction(from_id, to_id)
