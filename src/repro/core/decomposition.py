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
"""

from __future__ import annotations

import enum
import functools
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
    """A node of ``T_w``: a component type, width and position.

    ``path`` is the tuple of child indices leading from the root
    ``BITONIC[w]`` to this component; the root has the empty path. The
    component's *level* (Section 2.3) is ``len(path)``, and its width is
    ``w / 2**level``.
    """

    kind: ComponentKind
    width: int
    path: Tuple[int, ...]

    def __post_init__(self):
        _check_width(self.width)

    @property
    def level(self) -> int:
        """Level of the component in ``T_w`` (root is level 0)."""
        return len(self.path)

    @property
    def is_leaf(self) -> bool:
        """Width-2 components are individual balancers, the tree leaves."""
        return self.width == 2

    def child_kinds(self) -> Tuple[ComponentKind, ...]:
        """Kinds of this component's children, in child-index order."""
        if self.is_leaf:
            raise StructureError("a width-2 component (balancer) has no children: %s" % (self,))
        return _CHILD_KINDS[self.kind]

    def num_children(self) -> int:
        """Number of children (6 for BITONIC, 4 for MERGER, 2 for MIX)."""
        return 0 if self.is_leaf else len(_CHILD_KINDS[self.kind])

    def child(self, index: int) -> "ComponentSpec":
        """The ``index``-th child component (width halves, level grows)."""
        kinds = self.child_kinds()
        if not 0 <= index < len(kinds):
            raise StructureError(
                "child index %d out of range for %s (%d children)"
                % (index, self, len(kinds))
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
    kind: ComponentKind, width: int, path: Tuple[int, ...], index: int
) -> ComponentSpec:
    """Interned child specs: the token hot path re-derives the same
    parent->child steps constantly, and the tree is small enough to keep
    every spec alive. :meth:`DecompositionTree.node` keeps a path index
    over these same objects, so a lookup by path is one probe; the two
    hold identical specs and neither replaces the other."""
    return ComponentSpec(_CHILD_KINDS[kind][index], width // 2, path + (index,))


@functools.lru_cache(maxsize=None)
def subtree_size(kind: ComponentKind, width: int) -> int:
    """Number of components in the subtree rooted at a ``kind[width]`` node.

    Used to convert between paths and pre-order indices in ``O(depth)``.
    """
    _check_width(width)
    if width == 2:
        return 1
    half = width // 2
    return 1 + sum(subtree_size(k, half) for k in _CHILD_KINDS[kind])


class DecompositionTree:
    """``T_w`` — the full decomposition tree of ``BITONIC[w]``.

    The tree is *virtual*: nodes are :class:`ComponentSpec` values
    constructed on demand, so arbitrarily large widths are cheap. The
    class provides navigation (parent/children/ancestors), the paper's
    pre-order naming scheme, and the level-population function
    ``phi(level)`` used by the splitting/merging rules of Section 3.
    """

    def __init__(self, width: int):
        if not _is_power_of_two(width) or width < 2:
            raise StructureError("network width must be a power of two >= 2, got %r" % (width,))
        self.width = width
        self.root = ComponentSpec(ComponentKind.BITONIC, width, ())
        #: path -> spec, for every node :meth:`node` has built (valid
        #: paths only): a lookup is one probe, not a walk from the root.
        self._specs: Dict[Tuple[int, ...], ComponentSpec] = {(): self.root}

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    @property
    def max_level(self) -> int:
        """Deepest level of ``T_w`` (the level of the balancer leaves)."""
        return self.width.bit_length() - 2  # log2(width) - 1

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
        """Iterate all components of ``T_w`` in pre-order.

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
        if not 0 <= level <= self.max_level:
            raise StructureError(
                "level %d out of range [0, %d] for width %d" % (level, self.max_level, self.width)
            )
        for spec in self.iter_preorder():
            if spec.level == level:
                yield spec

    # ------------------------------------------------------------------
    # naming (pre-order indices)
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Total number of components in ``T_w``."""
        return subtree_size(self.root.kind, self.root.width)

    def preorder_index(self, spec: ComponentSpec) -> int:
        """The paper's name of a component: its pre-order position in ``T_w``."""
        index = 0
        current = self.root
        for child_index in spec.path:
            index += 1  # step past `current` itself
            kinds = current.child_kinds()
            half = current.width // 2
            for earlier in range(child_index):
                index += subtree_size(kinds[earlier], half)
            current = current.child(child_index)
        if current != spec:
            raise StructureError("%s is not a node of T_%d" % (spec, self.width))
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
            half = current.width // 2
            for child_index, kind in enumerate(current.child_kinds()):
                size = subtree_size(kind, half)
                if remaining < size:
                    current = current.child(child_index)
                    break
                remaining -= size
        return current

    # ------------------------------------------------------------------
    # level populations (Section 3, "phi")
    # ------------------------------------------------------------------
    def level_census(self, level: int) -> Tuple[int, int, int]:
        """Counts of (BITONIC, MERGER, MIX) components at ``level``.

        Computed from the recurrence ``b' = 2b``, ``m' = 2b + 2m``,
        ``x' = 2b + 2m + 2x`` with ``(b, m, x) = (1, 0, 0)`` at level 0.
        """
        if not 0 <= level <= self.max_level:
            raise StructureError(
                "level %d out of range [0, %d] for width %d" % (level, self.max_level, self.width)
            )
        b, m, x = 1, 0, 0
        for _ in range(level):
            b, m, x = 2 * b, 2 * b + 2 * m, 2 * b + 2 * m + 2 * x
        return b, m, x

    def phi(self, level: int) -> int:
        """``phi(level)`` — the number of components at ``level`` of ``T_w``.

        ``phi(0) = 1``, ``phi(1) = 6``, ``phi(2) = 24``, ... and Fact 1
        of the paper holds: ``2*phi(k) <= phi(k+1) <= 6*phi(k)``.
        """
        return sum(self.level_census(level))

    def input_leaf(self, pair: int) -> ComponentSpec:
        """The input-balancer leaf handling network inputs ``2*pair, 2*pair+1``.

        Network inputs enter through the BITONIC children only: at a
        ``BITONIC[k]`` the top half of the inputs goes to child 0 and the
        bottom half to child 1 (Section 2.1). Descending accordingly
        reaches the width-2 leaf that would accept the pair in the
        fully-split network. These leaf names are where a client starts
        the input-component lookup of Section 3.5.
        """
        if not 0 <= pair < self.width // 2:
            raise StructureError(
                "input pair %d out of range [0, %d)" % (pair, self.width // 2)
            )
        spec = self.root
        while not spec.is_leaf:
            quarter = spec.width // 4  # input pairs under each half
            if pair < quarter:
                spec = spec.child(0)
            else:
                spec = spec.child(1)
                pair -= quarter
        return spec

    def input_leaf_names(self) -> List[ComponentSpec]:
        """All ``w/2`` input-balancer leaves, in top-to-bottom wire order."""
        return [self.input_leaf(pair) for pair in range(self.width // 2)]
