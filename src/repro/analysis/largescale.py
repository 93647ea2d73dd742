"""Large-scale sampling of the converged network (asymptotics at scale).

The discrete-event runtime comfortably handles hundreds of nodes; the
paper's claims, however, are asymptotic ("with high probability",
``Omega(N/log^2 N)``). This module evaluates the *converged state* of
the rules directly — no messages, no event queue — so the Lemma 3.2/3.3
/3.5 and Theorem 3.6 experiments can run at ``N ~ 10^5``:

1. sample ``N`` random identifiers (the ring);
2. compute every node's Section 3.1 size and level estimate against the
   sorted ring (exactly the estimator the runtime uses);
3. derive the converged cut by the splitting rule's fixpoint: starting
   from the root, a component splits while its *hash home*'s level
   estimate exceeds its level. (From a fresh start merges never fire,
   so the fixpoint is exactly what the runtime's ``converge`` reaches —
   asserted against the real runtime in the test suite.)

The result records the cut's level histogram, per-node load, and the
Lemma 2.2/2.3 effective-width/depth bounds, which for uniform-ish cuts
are exact (see the metrics tests).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.chord.hashing import name_to_point
from repro.chord.identifiers import IdentifierSpace
from repro.core.decomposition import DecompositionTree
from repro.errors import StructureError

Path = Tuple[int, ...]


@dataclass
class SampledSystem:
    """A sampled ring plus every node's local estimates."""

    space: IdentifierSpace
    ids: List[int]  # sorted node identifiers
    size_estimates: List[float]  # n_v per node (ids order)
    level_estimates: List[int]  # ell_v per node (ids order)

    @property
    def n(self) -> int:
        return len(self.ids)

    def node_index_for_point(self, point: int) -> int:
        """Index of ``successor(point)`` in the sorted id list."""
        index = bisect.bisect_left(self.ids, point)
        return index % len(self.ids)


def sample_system(
    n: int,
    tree: DecompositionTree,
    seed: int = 0,
    step_multiplier: int = 4,
    space: IdentifierSpace = None,
) -> SampledSystem:
    """Sample a ring of ``n`` nodes and compute all local estimates.

    Identical mathematics to :class:`repro.chord.estimation` but
    vector-style over a sorted array, so it scales to ``n ~ 10^5``.
    """
    if n < 1:
        raise StructureError("need at least one node")
    space = space or IdentifierSpace()
    rng = random.Random(seed)
    ids = sorted({space.random_id(rng) for _ in range(n)})
    while len(ids) < n:  # vanishingly unlikely collisions
        ids.append(space.random_id(rng))
        ids = sorted(set(ids))
    size_estimates: List[float] = []
    level_estimates: List[int] = []
    circumference = float(space.size)
    for index in range(n):
        gap = (ids[(index + 1) % n] - ids[index]) % space.size
        if n == 1 or gap == 0:
            estimate = 1.0
        else:
            log_estimate = math.log2(circumference / gap)
            steps = max(1, step_multiplier * math.ceil(log_estimate))
            if steps >= n:
                estimate = float(n)
            else:
                span = (ids[(index + steps) % n] - ids[index]) % space.size
                estimate = steps / (span / circumference)
        size_estimates.append(estimate)
        level_estimates.append(tree.level_for(estimate))
    return SampledSystem(space, ids, size_estimates, level_estimates)


@dataclass
class ConvergedCut:
    """The converged cut of the splitting rule, with derived statistics."""

    paths_by_level: Dict[int, int]  # level -> component count
    loads: Dict[int, int] = field(default_factory=dict)  # node index -> components

    @property
    def num_components(self) -> int:
        return sum(self.paths_by_level.values())

    @property
    def min_level(self) -> int:
        return min(self.paths_by_level)

    @property
    def max_level(self) -> int:
        return max(self.paths_by_level)

    def width_bound(self) -> int:
        """Lemma 2.3: effective width >= 2^min_level (exact for uniform
        cuts, a lower bound otherwise)."""
        return 2 ** self.min_level

    def depth_bound(self) -> int:
        """Lemma 2.2: effective depth <= (k+1)(k+2)/2 for k = max level."""
        k = self.max_level
        return (k + 1) * (k + 2) // 2

    def max_load(self) -> int:
        return max(self.loads.values()) if self.loads else 0

    def mean_load(self, n: int) -> float:
        return self.num_components / n


def converge_cut(system: SampledSystem, tree: DecompositionTree) -> ConvergedCut:
    """The splitting-rule fixpoint: split every component whose hash
    home's level estimate exceeds the component's level."""
    result = ConvergedCut({})
    stack: List[Path] = [()]
    loads: Dict[int, int] = {}
    while stack:
        path = stack.pop()
        spec = tree.node(path)
        name = "cn/%d/%d" % (tree.width, tree.preorder_index(spec))
        home = system.node_index_for_point(name_to_point(name, system.space))
        home_level = system.level_estimates[home]
        if spec.level < home_level and not spec.is_leaf:
            stack.extend(child.path for child in spec.children())
            continue
        result.paths_by_level[spec.level] = result.paths_by_level.get(spec.level, 0) + 1
        loads[home] = loads.get(home, 0) + 1
    result.loads = loads
    return result


@dataclass
class ScaleReport:
    """One row of the large-scale asymptotics table."""

    n: int
    ell_star: int
    level_spread: Tuple[int, int]  # min/max node level estimate
    estimate_window_fraction: float  # inside [N/10, 10N]
    components: int
    components_per_node: float
    max_load: int
    max_load_normalised: float  # / (ln N / ln ln N)
    width_bound: int
    width_scale_ratio: float  # width_bound / (N / log^2 N)
    depth_bound: int
    depth_scale_ratio: float  # depth_bound / log^2 N


def measure_scale(n: int, tree: DecompositionTree, seed: int = 0) -> ScaleReport:
    """The full Lemma/Theorem measurement battery at size ``n``."""
    system = sample_system(n, tree, seed=seed)
    cut = converge_cut(system, tree)
    inside = sum(
        1 for estimate in system.size_estimates if n / 10 <= estimate <= 10 * n
    )
    log_sq = math.log2(max(n, 2)) ** 2
    log_scale = math.log(n) / math.log(math.log(n)) if n >= 3 else 1.0
    return ScaleReport(
        n=n,
        ell_star=tree.level_for(n),
        level_spread=(min(system.level_estimates), max(system.level_estimates)),
        estimate_window_fraction=inside / n,
        components=cut.num_components,
        components_per_node=cut.num_components / n,
        max_load=cut.max_load(),
        max_load_normalised=cut.max_load() / log_scale,
        width_bound=cut.width_bound(),
        width_scale_ratio=cut.width_bound() / (n / log_sq),
        depth_bound=cut.depth_bound(),
        depth_scale_ratio=cut.depth_bound() / log_sq,
    )
