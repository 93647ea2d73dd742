"""Greedy Chord lookup, with hop counting.

The paper assumes "an underlying routing service which provides
efficient routing to an object given the object's name". We implement
Chord's finger routing so experiments can report realistic hop counts
(O(log N)) for token forwarding and component lookup. Fingers are read
off the ground-truth ring — the paper does not study
stabilisation-protocol dynamics, so modelling stale fingers would add
noise without touching any claim — and since ``finger[i]`` is one binary
search on the sorted identifier list, routing keeps no table: a
membership change leaves nothing to rebuild.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Tuple

from repro.chord.hashing import name_to_point
from repro.chord.ring import ChordNode, ChordRing
from repro.errors import RingError


def finger_table(ring: ChordRing, node_id: int) -> List[ChordNode]:
    """Chord fingers of a node: ``finger[i] = successor(n + 2^i)``.

    The definition, computed afresh; :func:`lookup` never builds it.
    """
    size = ring.space.size
    return [
        ring.successor((node_id + (1 << i)) % size) for i in range(ring.space.bits)
    ]


def lookup(ring: ChordRing, start_id: int, key_point: int) -> Tuple[ChordNode, int]:
    """Greedy finger routing from ``start_id`` to ``successor(key_point)``.

    Returns ``(owner, hops)`` where ``hops`` counts node-to-node
    forwardings (0 when the start node already owns the key).

    A node ``n`` whose successor does not own the key forwards to its
    closest preceding finger: scanning ``i`` downward, the first
    ``finger[i]`` strictly between ``n`` and the key. Lemma: that finger
    is ``successor(n + 2^j)`` with ``j = reach.bit_length() - 1``, where
    ``reach`` is the clockwise offset from ``n`` of the last node before
    the key. A finger's offset from ``n`` is at least ``2^i``, or 0 when
    the search wraps all the way round to ``n`` itself, and it is taken
    iff ``0 < offset < key offset``, i.e. iff some node lies at an
    offset in ``[2^i, key offset)`` — iff ``2^i <= reach``. Every larger
    ``i`` is skipped unseen, ``j`` is the largest that passes, and the
    last node before the key is the same at every hop: one search per
    forwarding, on identifiers only.
    """
    ids = ring.ids
    count = len(ids)
    if count == 0:
        raise RingError("lookup on an empty ring")
    index = ring.position(start_id)
    hops = 0
    if count > 1:
        size = ring.space.size
        before_key = ids[bisect_left(ids, key_point) - 1]
        while True:
            current_id = ids[index]
            key_offset = (key_point - current_id) % size
            if key_offset == 0:
                break  # the current node owns its own identifier
            succ_index = index + 1 if index + 1 < count else 0
            hops += 1
            if key_offset <= (ids[succ_index] - current_id) % size:
                index = succ_index  # the key lies in (current, successor]
                break
            reach = (before_key - current_id) % size
            point = (current_id + (1 << (reach.bit_length() - 1))) % size
            index = bisect_left(ids, point)
            if index == count:
                index = 0
    return ring.node(ids[index]), hops


def lookup_name(ring: ChordRing, start_id: int, name: str) -> Tuple[ChordNode, int]:
    """Route to the home node of ``name``; returns ``(owner, hops)``."""
    return lookup(ring, start_id, name_to_point(name, ring.space))
