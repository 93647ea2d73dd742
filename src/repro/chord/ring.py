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

import random
from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Optional

from repro.chord.identifiers import IdentifierSpace
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
        self._join_counter = 0
        #: Bumped on every membership change (see :attr:`version`).
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic membership-change counter (joins and removals):
        the stamp a memo of anything derived from the membership keeps."""
        return self._version

    @property
    def ids(self) -> List[int]:
        """The node identifiers in ring order. The list is the ring's
        own, edited in place by joins and removals: read it, do not
        keep or mutate it."""
        return self._ids

    def position(self, node_id: int) -> int:
        """The index of a node in :attr:`ids` (one binary search)."""
        index = bisect_left(self._ids, node_id)
        if index >= len(self._ids) or self._ids[index] != node_id:
            raise MembershipError("no node with id %#x" % node_id)
        return index

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
        if name is None:
            name = "node-%d" % self._join_counter
        self._join_counter += 1
        node = ChordNode(node_id, name)
        insort(self._ids, node_id)
        self._nodes[node_id] = node
        self._version += 1
        return node

    def remove(self, node_id: int) -> ChordNode:
        """Remove a node (used for both graceful leaves and crashes)."""
        node = self.node(node_id)
        del self._ids[bisect_left(self._ids, node_id)]
        del self._nodes[node_id]
        self._version += 1
        return node

    # ------------------------------------------------------------------
    # successor structure
    # ------------------------------------------------------------------
    def successor(self, point: int) -> ChordNode:
        """The first node at or clockwise-after ``point``."""
        if not self._ids:
            raise RingError("successor lookup on an empty ring")
        self.space.check(point)
        index = bisect_left(self._ids, point)
        if index == len(self._ids):
            index = 0
        return self._nodes[self._ids[index]]

    def succ_k(self, node_id: int, k: int) -> ChordNode:
        """The k-th clockwise successor of a node (``succ_1`` is the next
        node; ``k`` wraps modulo the ring size)."""
        if k < 1:
            raise RingError("succ_k requires k >= 1, got %d" % k)
        index = self.position(node_id)
        return self._nodes[self._ids[(index + k) % len(self._ids)]]

    def predecessor(self, node_id: int) -> ChordNode:
        """The node immediately counter-clockwise of ``node_id``."""
        index = self.position(node_id)
        return self._nodes[self._ids[(index - 1) % len(self._ids)]]

    def distance_fraction(self, from_id: int, to_id: int) -> float:
        """The paper's ``d(u, v)`` on the unit-circumference ring."""
        return self.space.distance_fraction(from_id, to_id)
