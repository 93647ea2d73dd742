"""Decentralised system-size estimation (Section 3.1 of the paper).

Each node ``v`` estimates the system size ``N`` locally, in two steps:

* **Step 1** — a coarse estimate of ``log N`` from the gap to the next
  node: ``e_v = log2(1 / d(v, succ_1(v)))``.
* **Step 2** — walk ``k = 4 * ceil(e_v)`` successors and estimate
  ``n_v = k / d(v, succ_k(v))``.

Lemma 3.1/3.2: with high probability every node's ``n_v`` lies within
``[N/10, 10N]``. The node then derives its *level estimate*
``ell_v`` — the largest level ``k`` of the decomposition tree with
``phi(k) < n_v`` — which Lemma 3.3 pins to ``[ell* - 4, ell* + 4]``.

The step-count multiplier (the paper's constant 4) is a parameter so the
ablation experiment can sweep it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.decomposition import DecompositionTree
from repro.chord.ring import ChordRing
from repro.errors import RingError


@dataclass
class SizeEstimate:
    """The intermediate and final quantities of one node's estimate."""

    node_id: int
    log_estimate: float  # e_v, the step-1 estimate of log2 N
    steps: int  # k, the number of successors walked in step 2
    size_estimate: float  # n_v


class SizeEstimator:
    """Runs the paper's two-step estimate against a ring."""

    def __init__(self, ring: ChordRing, step_multiplier: int = 4):
        if step_multiplier < 1:
            raise RingError("step multiplier must be >= 1, got %d" % step_multiplier)
        self.ring = ring
        self.step_multiplier = step_multiplier

    def _walk(self, node_id: int) -> Tuple[float, int, float]:
        """``(e_v, k, n_v)`` from the node's one ring position.

        A node that walks all the way around the ring (fewer nodes than
        ``k``) simply counts the nodes it saw — it then knows ``N``
        exactly, which only sharpens the estimate on tiny systems.
        """
        ring = self.ring
        ids = ring.ids
        n = len(ids)
        if n == 0:
            raise RingError("cannot estimate the size of an empty ring")
        if n == 1:
            return 0.0, 0, 1.0
        index = ring.position(node_id)
        size = ring.space.size
        # Step 1: coarse log-size estimate from the successor gap.
        gap = ((ids[(index + 1) % n] - node_id) % size) / size
        log_estimate = math.log2(1.0 / gap)
        # Step 2: walk k successors. Walking k >= n steps would lap the
        # ring; a real node stops upon seeing itself, knowing N exactly.
        steps = max(1, self.step_multiplier * math.ceil(log_estimate))
        if steps >= n:
            return log_estimate, n - 1, float(n)
        span = ((ids[(index + steps) % n] - node_id) % size) / size
        return log_estimate, steps, steps / span

    def estimate(self, node_id: int) -> SizeEstimate:
        """The estimate ``n_v`` computed by node ``node_id``, with the
        intermediate quantities."""
        return SizeEstimate(node_id, *self._walk(node_id))

    def size_estimate(self, node_id: int) -> float:
        """Just ``n_v``."""
        return self._walk(node_id)[2]


class LevelEstimator:
    """Derives level estimates ``ell_v`` from size estimates.

    ``ell_v`` is the largest tree level with ``phi(level) < n_v``,
    clamped to the levels that exist in the tree (a finite-width artefact
    the asymptotic paper does not need to handle):
    :meth:`~repro.core.decomposition.DecompositionTree.level_for`. By
    default the tree is ``T_w``; pass another
    :class:`~repro.core.decomposition.DecompositionTree` (such as
    :func:`repro.ext.periodic_adaptive.periodic_tree`) to drive the rules
    for another recursive structure.
    """

    def __init__(
        self, width: int, ring: ChordRing, step_multiplier: int = 4, tree=None
    ):
        self.tree = tree if tree is not None else DecompositionTree(width)
        self.sizes = SizeEstimator(ring, step_multiplier)
        # ``ell_v`` is a function of the successors the node walks, so it
        # cannot move between membership changes: one evaluation per
        # node per ring version serves every rules round until the next.
        self._levels: Dict[int, int] = {}
        self._levels_version = ring.version

    def level_estimate(self, node_id: int) -> int:
        """The node's ``ell_v``."""
        version = self.sizes.ring.version
        if version != self._levels_version:
            self._levels = {}
            self._levels_version = version
        level = self._levels.get(node_id)
        if level is None:
            level = self.tree.level_for(self.sizes.size_estimate(node_id))
            self._levels[node_id] = level
        return level

    def ideal_level(self, n: Optional[int] = None) -> int:
        """``ell*`` for the true system size (or a given ``n``)."""
        if n is None:
            n = len(self.sizes.ring)
        return self.tree.level_for(n)
