"""A generic recursive-decomposition framework (the paper's last claim).

The bitonic machinery in :mod:`repro.core` needs surprisingly little
from the bitonic network specifically: a tree of components with widths
and child lists, plus two local wiring maps per internal node. This
module packages exactly that contract:

* subclass :class:`RecursiveStructure` to declare the component kinds
  and their children;
* subclass :class:`~repro.core.wiring.WiringBase` to declare the local
  wiring (``parent_input_dest`` / ``child_output_dest``; their inverses
  are derived);
* everything else — :class:`~repro.core.cut.Cut` validation,
  :class:`~repro.core.cut.CutNetwork` execution with single-counter
  components, exact split/merge state transfer, and the effective
  width/depth metrics — is inherited unchanged.

Unlike the bitonic tree, generic trees may have children of arbitrary
widths (not only half the parent's) and leaves at non-uniform depths.
The only ordering requirement is that each node's child list is
topologically ordered with respect to its internal wiring (child ``i``
never feeds child ``j < i``), which the split replay relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.errors import StructureError

Path = Tuple[int, ...]


class RecursiveStructure:
    """Declares a recursively decomposable network structure."""

    #: The network width (input wires == output wires).
    width: int

    def root_kind(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError

    def child_kinds(self, kind: str, width: int) -> List[Tuple[str, int]]:
        """(kind, width) of each child; empty list for leaves.

        Must be topologically ordered w.r.t. the local wiring.
        """
        raise NotImplementedError  # pragma: no cover - interface


@dataclass(frozen=True)
class GenericSpec:
    """A node of a generic decomposition tree.

    Equality and hashing use (kind, width, path) only, so specs behave
    like :class:`~repro.core.decomposition.ComponentSpec` values.
    """

    kind: str
    width: int
    path: Path
    structure: RecursiveStructure = field(compare=False, repr=False)

    @property
    def level(self) -> int:
        return len(self.path)

    @property
    def is_leaf(self) -> bool:
        return not self.structure.child_kinds(self.kind, self.width)

    def num_children(self) -> int:
        return len(self.structure.child_kinds(self.kind, self.width))

    def child(self, index: int) -> "GenericSpec":
        kinds = self.structure.child_kinds(self.kind, self.width)
        if not 0 <= index < len(kinds):
            raise StructureError(
                "child index %d out of range for %s (%d children)"
                % (index, self, len(kinds))
            )
        kind, width = kinds[index]
        return GenericSpec(kind, width, self.path + (index,), self.structure)

    def children(self) -> List["GenericSpec"]:
        return [self.child(i) for i in range(self.num_children())]

    def label(self) -> str:
        return "%s[%d]@%s" % (
            self.kind,
            self.width,
            ",".join(map(str, self.path)) or "root",
        )

    def __str__(self):
        return self.label()


class GenericTree:
    """The virtual decomposition tree of a :class:`RecursiveStructure`.

    Duck-type compatible with
    :class:`~repro.core.decomposition.DecompositionTree` for everything
    :class:`~repro.core.cut.Cut` and
    :class:`~repro.core.cut.CutNetwork` need.
    """

    def __init__(self, structure: RecursiveStructure):
        self.structure = structure
        self.width = structure.width
        self.root = GenericSpec(structure.root_kind(), structure.width, (), structure)

    def node(self, path: Path) -> GenericSpec:
        spec = self.root
        for index in path:
            spec = spec.child(index)
        return spec

    def parent(self, spec: GenericSpec) -> Optional[GenericSpec]:
        if not spec.path:
            return None
        return self.node(spec.path[:-1])

    def ancestors(self, spec: GenericSpec) -> Iterator[GenericSpec]:
        path = spec.path
        while path:
            path = path[:-1]
            yield self.node(path)

    def iter_preorder(self) -> Iterator[GenericSpec]:
        stack = [self.root]
        while stack:
            spec = stack.pop()
            yield spec
            if not spec.is_leaf:
                stack.extend(reversed(spec.children()))

    def iter_level(self, level: int) -> Iterator[GenericSpec]:
        for spec in self.iter_preorder():
            if spec.level == level:
                yield spec

    @property
    def max_level(self) -> int:
        """Deepest leaf level (leaves may sit at different levels)."""
        return max(spec.level for spec in self.iter_preorder() if spec.is_leaf)

    def size(self) -> int:
        return sum(1 for _ in self.iter_preorder())

    def phi(self, level: int) -> int:
        """Number of components at ``level`` (by traversal, cached).

        The generic analogue of the bitonic ``phi`` the splitting and
        merging rules consume; computed lazily because generic trees are
        small enough to enumerate.
        """
        if not hasattr(self, "_phi_cache"):
            census: dict = {}
            for spec in self.iter_preorder():
                census[spec.level] = census.get(spec.level, 0) + 1
            self._phi_cache = census
        if level not in self._phi_cache:
            raise StructureError("level %d beyond the tree depth" % level)
        return self._phi_cache[level]

    def preorder_index(self, spec: GenericSpec) -> int:
        """Pre-order name of a component (by traversal; generic trees
        are small enough that arithmetic shortcuts are not needed)."""
        for index, candidate in enumerate(self.iter_preorder()):
            if candidate == spec:
                return index
        raise StructureError("%s is not a node of this tree" % (spec,))
