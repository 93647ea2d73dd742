"""The recursive decomposition tree ``T_w`` of Section 2.1.

A bitonic network of width ``w`` decomposes recursively into
*components*:

* ``BITONIC[k]`` (``k >= 4``) splits into six width ``k/2`` components:
  top/bottom ``BITONIC[k/2]``, top/bottom ``MERGER[k/2]`` and top/bottom
  ``MIX[k/2]``.
* ``MERGER[k]`` splits into four width ``k/2`` components: top/bottom
  ``MERGER[k/2]`` and top/bottom ``MIX[k/2]``.
* ``MIX[k]`` splits into two width ``k/2`` components.
* Width-2 components are single balancers — the leaves of the tree.

The tree of all components rooted at ``BITONIC[w]`` is ``T_w``. Each
component is identified by its *path* — the tuple of child indices from
the root — and named by its position in a pre-order traversal of ``T_w``
(the paper's naming scheme). Both directions (path -> pre-order index
and back) are computed in ``O(depth)`` arithmetic without materialising
the tree.

Nothing below the kind enum is bitonic-specific: a structure is an enum
of component kinds whose ``children(width)`` lists each child's
``(kind, width)``, and :class:`DecompositionTree` takes its root kind.
:mod:`repro.ext.periodic_adaptive` builds the periodic network's tree
this way.
"""

from __future__ import annotations

import enum
import functools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import StructureError


class ComponentKind(enum.Enum):
    """The three component types of the recursive decomposition."""

    BITONIC = "B"
    MERGER = "M"
    MIX = "X"

    def __repr__(self):  # pragma: no cover - cosmetic
        return "ComponentKind.%s" % self.name

    @functools.lru_cache(maxsize=None)
    def children(self, width: int) -> Tuple[Tuple["ComponentKind", int], ...]:
        """``(kind, width)`` of each child of a ``self[width]`` component,
        in child-index order; a width-2 component (a balancer) has none."""
        if width == 2:
            return ()
        return tuple((kind, width // 2) for kind in _CHILD_KINDS[self])


#: Child kinds per parent kind, in child-index order. The order encodes
#: the orientation convention used throughout the package:
#: even child indices are "top", odd are "bottom".
_CHILD_KINDS = {
    ComponentKind.BITONIC: (
        ComponentKind.BITONIC,
        ComponentKind.BITONIC,
        ComponentKind.MERGER,
        ComponentKind.MERGER,
        ComponentKind.MIX,
        ComponentKind.MIX,
    ),
    ComponentKind.MERGER: (
        ComponentKind.MERGER,
        ComponentKind.MERGER,
        ComponentKind.MIX,
        ComponentKind.MIX,
    ),
    ComponentKind.MIX: (
        ComponentKind.MIX,
        ComponentKind.MIX,
    ),
}


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_width(width: int) -> None:
    if not _is_power_of_two(width) or width < 2:
        raise StructureError("component width must be a power of two >= 2, got %r" % (width,))


@dataclass(frozen=True)
class ComponentSpec:
    """A node of a decomposition tree: a component kind, width and position.

    ``path`` is the tuple of child indices leading from the root to this
    component; the root has the empty path. The component's *level*
    (Section 2.3) is ``len(path)``. In ``T_w`` its width is
    ``w / 2**level``; other structures set each child's width in their
    kind's ``children``.
    """

    kind: enum.Enum
    width: int
    path: Tuple[int, ...]

    def __post_init__(self):
        _check_width(self.width)

    @property
    def level(self) -> int:
        """Level of the component in its tree (root is level 0)."""
        return len(self.path)

    @property
    def is_leaf(self) -> bool:
        """Width-2 components are individual balancers, the tree leaves."""
        return self.width == 2

    def num_children(self) -> int:
        """Number of children (6 for BITONIC, 4 for MERGER, 2 for MIX)."""
        return len(self.kind.children(self.width))

    def child(self, index: int) -> "ComponentSpec":
        """The ``index``-th child component."""
        count = len(self.kind.children(self.width))
        if not 0 <= index < count:
            raise StructureError(
                "child index %d out of range for %s (%d children)" % (index, self, count)
            )
        return _child_spec(self.kind, self.width, self.path, index)

    def children(self) -> List["ComponentSpec"]:
        """All children, in child-index order."""
        return [self.child(i) for i in range(self.num_children())]

    def label(self) -> str:
        """Short human-readable label, e.g. ``B[8]@(0,2)``."""
        return "%s[%d]@%s" % (self.kind.value, self.width, ",".join(map(str, self.path)) or "root")

    def __str__(self):
        return self.label()


@functools.lru_cache(maxsize=None)
def _child_spec(
    kind: enum.Enum, width: int, path: Tuple[int, ...], index: int
) -> ComponentSpec:
    """Interned child specs: the token hot path re-derives the same
    parent->child steps constantly, and the tree is small enough to keep
    every spec alive. :meth:`DecompositionTree.node` keeps a path index
    over these same objects, so a lookup by path is one probe; the two
    hold identical specs and neither replaces the other."""
    child_kind, child_width = kind.children(width)[index]
    return ComponentSpec(child_kind, child_width, path + (index,))


@functools.lru_cache(maxsize=None)
def subtree_size(kind: enum.Enum, width: int) -> int:
    """Number of components in the subtree rooted at a ``kind[width]`` node.

    Used to convert between paths and pre-order indices in ``O(depth)``.
    """
    _check_width(width)
    return 1 + sum(subtree_size(k, w) for k, w in kind.children(width))


@functools.lru_cache(maxsize=None)
def _census(kind: enum.Enum, width: int) -> Tuple[Dict[enum.Enum, int], ...]:
    """Components per kind at each depth of the subtree rooted at a
    ``kind[width]`` node (the node itself is depth 0). Shared through
    the cache: callers copy before they change anything."""
    levels: List[Dict[enum.Enum, int]] = [{kind: 1}]
    for child_kind, child_width in kind.children(width):
        for depth, counts in enumerate(_census(child_kind, child_width), 1):
            if depth == len(levels):
                levels.append({})
            merged = levels[depth]
            for k, n in counts.items():
                merged[k] = merged.get(k, 0) + n
    return tuple(levels)


class DecompositionTree:
    """The full decomposition tree of the structure rooted at
    ``root_kind[width]`` — ``T_w`` by default.

    The tree is *virtual*: nodes are :class:`ComponentSpec` values
    constructed on demand, so arbitrarily large widths are cheap. The
    class provides navigation (parent/children/ancestors), the paper's
    pre-order naming scheme, and the level-population function
    ``phi(level)`` with its inverse :meth:`level_for`, which the
    splitting/merging rules of Section 3 consume.
    """

    def __init__(self, width: int, root_kind: enum.Enum = ComponentKind.BITONIC):
        if not _is_power_of_two(width) or width < 2:
            raise StructureError("network width must be a power of two >= 2, got %r" % (width,))
        self.width = width
        self.root = ComponentSpec(root_kind, width, ())
        #: path -> spec, for every node :meth:`node` has built (valid
        #: paths only): a lookup is one probe, not a walk from the root.
        self._specs: Dict[Tuple[int, ...], ComponentSpec] = {(): self.root}
        self._census = _census(root_kind, width)
        #: Deepest level of the tree (for ``T_w``, that of the balancer
        #: leaves; other structures may have leaves above it).
        self.max_level = len(self._census) - 1
        self._phi = [sum(counts.values()) for counts in self._census]
        #: ``_phi_floor[k]`` is the least ``phi`` at level ``k`` or below
        #: it: non-decreasing even where ``phi`` is not, so it bisects.
        self._phi_floor = list(self._phi)
        for level in range(self.max_level - 1, -1, -1):
            self._phi_floor[level] = min(self._phi[level], self._phi_floor[level + 1])

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def node(self, path: Tuple[int, ...]) -> ComponentSpec:
        """The component at ``path`` (a tuple, or any sequence of child
        indices); raises for invalid paths."""
        try:
            return self._specs[path]
        except (KeyError, TypeError):  # not built yet, or not a tuple
            path = tuple(path)
            spec = self._specs.get(path)
            if spec is None:
                spec = self.node(path[:-1]).child(path[-1])
                self._specs[path] = spec
            return spec

    def parent(self, spec: ComponentSpec) -> Optional[ComponentSpec]:
        """The parent component, or ``None`` for the root."""
        if not spec.path:
            return None
        return self.node(spec.path[:-1])

    def ancestors(self, spec: ComponentSpec) -> Iterator[ComponentSpec]:
        """All proper ancestors, nearest first (parent, ..., root)."""
        path = spec.path
        while path:
            path = path[:-1]
            yield self.node(path)

    def contains(self, spec: ComponentSpec) -> bool:
        """Whether ``spec`` denotes a real node of this tree."""
        try:
            return self.node(spec.path) == spec
        except StructureError:
            return False

    def iter_preorder(self) -> Iterator[ComponentSpec]:
        """Iterate all components of the tree in pre-order.

        Exponential in the depth — only for small widths (tests,
        figures). Large-width code should use the arithmetic
        ``preorder_index``/``from_preorder_index`` instead.
        """
        stack = [self.root]
        while stack:
            spec = stack.pop()
            yield spec
            if not spec.is_leaf:
                stack.extend(reversed(spec.children()))

    def iter_level(self, level: int) -> Iterator[ComponentSpec]:
        """Iterate all components at ``level`` (pre-order among them)."""
        self._check_level(level)
        for spec in self.iter_preorder():
            if spec.level == level:
                yield spec

    # ------------------------------------------------------------------
    # naming (pre-order indices)
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Total number of components in the tree."""
        return subtree_size(self.root.kind, self.root.width)

    def preorder_index(self, spec: ComponentSpec) -> int:
        """The paper's name of a component: its pre-order position in the tree."""
        index = 0
        current = self.root
        for child_index in spec.path:
            index += 1  # step past `current` itself
            for kind, width in current.kind.children(current.width)[:child_index]:
                index += subtree_size(kind, width)
            current = current.child(child_index)
        if current != spec:
            raise StructureError("%s is not a node of this width-%d tree" % (spec, self.width))
        return index

    def from_preorder_index(self, index: int) -> ComponentSpec:
        """Inverse of :meth:`preorder_index`."""
        if not 0 <= index < self.size():
            raise StructureError(
                "pre-order index %d out of range [0, %d)" % (index, self.size())
            )
        current = self.root
        remaining = index
        while remaining > 0:
            remaining -= 1  # step past `current`
            for child_index, (kind, width) in enumerate(current.kind.children(current.width)):
                size = subtree_size(kind, width)
                if remaining < size:
                    current = current.child(child_index)
                    break
                remaining -= size
        return current

    # ------------------------------------------------------------------
    # level populations (Section 3, "phi")
    # ------------------------------------------------------------------
    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.max_level:
            raise StructureError(
                "level %d out of range [0, %d] for width %d" % (level, self.max_level, self.width)
            )

    def level_census(self, level: int) -> Dict[enum.Enum, int]:
        """The number of components of each kind at ``level``, for every
        kind of the root's enum (zero where none sits at that level).

        In ``T_w`` these follow ``b' = 2b``, ``m' = 2b + 2m``,
        ``x' = 2b + 2m + 2x`` with ``(b, m, x) = (1, 0, 0)`` at level 0.
        """
        self._check_level(level)
        counts = self._census[level]
        return {kind: counts.get(kind, 0) for kind in type(self.root.kind)}

    def phi(self, level: int) -> int:
        """``phi(level)`` — the number of components at ``level``.

        In ``T_w``: ``phi(0) = 1``, ``phi(1) = 6``, ``phi(2) = 24``, ...
        and Fact 1 of the paper holds: ``2*phi(k) <= phi(k+1) <= 6*phi(k)``.
        """
        self._check_level(level)
        return self._phi[level]

    def level_for(self, x: float) -> int:
        """The largest level with ``phi(level) < x``, or 0 if none has:
        the level a size (or size estimate) ``x`` calls for (Section 3.1).

        Levels past the deepest one do not exist, so the answer is
        clamped there. ``phi`` need not be monotone (the periodic tree's
        is not): the bisect runs over its suffix minima.
        """
        return max(0, bisect_left(self._phi_floor, x) - 1)
