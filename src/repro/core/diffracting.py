"""A counting tree in the style of diffracting trees [SZ96] — a baseline.

The related-work baseline of Section 1.3: a binary tree of balancers
(toggles). A token entering the root follows toggles downward — each
toggle sends consecutive tokens alternately to its left and right child
— and reaches one of ``2^depth`` leaves. Leaf ``i`` is a local counter
handing out values ``i, i + L, i + 2L, ...`` (``L`` = number of leaves).
The sequence of leaf visit counts always satisfies the step property, so
the values handed out across all leaves form a gap-free prefix of the
naturals once quiescent.

We model the *structure* (tree of toggles + leaf counters); the shared
-memory "prism" optimisation of the original paper is a contention
optimisation with no analogue in our message-passing setting, which is
exactly the contrast the paper draws in Section 1.3.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.atomics import PerWireCounters
from repro.errors import StructureError


class CountingTree:
    """A balancer tree with ``2**depth`` leaf counters."""

    def __init__(self, depth: int):
        if depth < 0:
            raise StructureError("tree depth must be nonnegative, got %d" % depth)
        self.depth = depth
        self.num_leaves = 1 << depth
        # Toggles stored as a heap-shaped array: node 1 is the root,
        # node n has children 2n and 2n+1.
        self._toggles = [0] * self.num_leaves
        self.leaf_counts = PerWireCounters(self.num_leaves)

    def next_value(self) -> int:
        """Route one token from the root; return its counter value.

        Consecutive tokens reach the tree's leaf *positions* in
        bit-reversed order (the root toggle flips the most significant
        bit), so leaves are *labelled* by the bit-reversal of their
        position — making consecutive tokens hit labels 0, 1, 2, ... and
        the handed-out values ``label + L * visits`` gap-free.
        """
        node = 1
        for _ in range(self.depth):
            node = self.step(node)
        return self.leaf_value(node)[1]

    def step(self, node: int) -> int:
        """A token passes toggle ``node``: flip it and return the child
        (``2 * node`` or ``2 * node + 1``) the token goes to."""
        bit = self._toggles[node]
        self._toggles[node] = bit ^ 1
        return 2 * node + bit

    def leaf_value(self, node: int) -> Tuple[int, int]:
        """A token reaches leaf ``node`` (``num_leaves <= node <
        2 * num_leaves``): count it there and return the leaf's label
        and the value handed out."""
        position = node - self.num_leaves
        label = 0
        for _ in range(self.depth):
            label = (label << 1) | (position & 1)
            position >>= 1
        return label, self.leaf_counts.fetch_increment(label) * self.num_leaves + label

    @property
    def width(self) -> int:
        """The degree of parallelism: the number of leaves."""
        return self.num_leaves
