"""The paper's analytical predictions, as executable formulas.

Collects every closed-form quantity the paper derives so experiments can
print *predicted vs measured* side by side:

* ``phi(level)`` and Fact 1 (Section 3);
* ``ell_star(N)`` — the ideal level for system size ``N``;
* Lemma 2.2 / 2.3 depth and width bounds;
* Lemma 3.3's level-estimate window ``[ell* - 4, ell* + 4]``;
* Lemma 3.5's component-count window ``[N/6^5, 6^4 N]`` and the
  balls-and-bins maximum-load scale ``log N / log log N``;
* Theorem 3.6's asymptotic shapes ``O(log^2 N)`` and ``Omega(N/log^2 N)``;
* the static bitonic balancer count ``w log w (log w + 1) / 4``
  (Section 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.decomposition import DecompositionTree
from repro.errors import StructureError


def static_balancer_count(width: int) -> int:
    """Balancers in a static ``BITONIC[w]`` (Section 2):
    ``w * log w * (log w + 1) / 4``."""
    log_w = width.bit_length() - 1
    if 2 ** log_w != width:
        raise StructureError("width must be a power of two, got %d" % width)
    return width * log_w * (log_w + 1) // 4


def max_load_scale(n: int) -> float:
    """The balls-and-bins maximum-load scale ``ln n / ln ln n``.

    Lemma 3.5 bounds the maximum number of components per node by
    ``O(log N / log log N)`` w.h.p.; experiments report the measured
    maximum divided by this scale.
    """
    if n < 3:
        return 1.0
    return math.log(n) / math.log(math.log(n))


@dataclass
class TheoryModel:
    """Predictions of the paper, specialised to one network width."""

    width: int

    def __post_init__(self):
        self.tree = DecompositionTree(self.width)

    # ------------------------------------------------------------------
    # Section 3: phi and ell*
    # ------------------------------------------------------------------
    def phi(self, level: int) -> int:
        """Components at ``level`` of ``T_w``; 1, 6, 24, 108, ..."""
        return self.tree.phi(level)

    def check_fact1(self) -> bool:
        """Fact 1: ``2 phi(k) <= phi(k+1) <= 6 phi(k)`` for all levels."""
        for level in range(self.tree.max_level):
            lo, hi = 2 * self.phi(level), 6 * self.phi(level)
            if not lo <= self.phi(level + 1) <= hi:
                return False
        return True

    def ell_star(self, n: int) -> int:
        """The ideal level for system size ``n``: the largest ``k`` with
        ``phi(k) < n`` (clamped to the levels that exist in ``T_w``)."""
        if n < 1:
            raise StructureError("system size must be positive, got %d" % n)
        return self.tree.level_for(n)

    # ------------------------------------------------------------------
    # Section 2.3: depth and width bounds
    # ------------------------------------------------------------------
    def depth_bound(self, max_level: int) -> int:
        """Lemma 2.2: effective depth ``<= (k+1)(k+2)/2`` when every cut
        leaf is at level at most ``k``."""
        return (max_level + 1) * (max_level + 2) // 2

    def width_bound(self, min_level: int) -> int:
        """Lemma 2.3: effective width ``>= 2**k`` when every cut leaf is
        at level at least ``k``."""
        return 2 ** min_level

    # ------------------------------------------------------------------
    # Section 3.3: network-shape predictions
    # ------------------------------------------------------------------
    def level_window(self, n: int) -> range:
        """Lemma 3.3: all level estimates fall in ``[ell*-4, ell*+4]``
        w.h.p. (clamped to existing levels)."""
        star = self.ell_star(n)
        low = max(0, star - 4)
        high = min(self.tree.max_level, star + 4)
        return range(low, high + 1)

    def component_count_window(self, n: int):
        """Lemma 3.5: the total component count lies in
        ``[N/6^5, 6^4 N]`` w.h.p."""
        return (n / 6 ** 5, 6 ** 4 * n)

    def predicted_depth_scale(self, n: int) -> float:
        """Theorem 3.6 part 1: effective depth is ``O(log^2 N)``."""
        return math.log2(max(n, 2)) ** 2

    def predicted_width_scale(self, n: int) -> float:
        """Theorem 3.6 part 2: effective width is ``Omega(N / log^2 N)``."""
        return max(n, 2) / math.log2(max(n, 2)) ** 2

    def lookup_bound(self) -> int:
        """Section 3.5: a client needs at most ``log w - 1`` name lookups
        to find a live input component."""
        return self.width.bit_length() - 2
