"""An adaptive *periodic* counting network, via the generic framework.

Structure
---------
``PERIODIC[w]`` is ``log w`` identical ``BLOCK[w]`` networks in series
(see :mod:`repro.core.periodic`). The recursive decomposition:

* ``P[w]`` (the whole network) -> ``log w`` ``BLOCK[w]`` children, wired
  in series;
* ``BLOCK[k]`` -> one reflection layer ``R[k]`` feeding a top and a
  bottom ``BLOCK[k/2]``; ``BLOCK[2]`` is a balancer leaf;
* ``R[k]`` (the layer pairing wire ``i`` with ``k-1-i``) -> two
  ``R[k/2]`` pieces: balancers ``0..k/4-1`` (outer quarter wires) and
  ``k/4..k/2-1`` (inner quarter wires); ``R[2]`` is a balancer leaf.

Unlike the bitonic tree, children are not always half the parent's
width (a block's reflection layer spans all ``k`` wires) and leaves sit
at non-uniform depths — both are exercised deliberately, since the
paper's closing claim is that the technique applies to *any* recursive
decomposition.

Empirical finding (validating the paper's claim)
------------------------------------------------
The analogue of Theorem 2.1 holds empirically for the periodic
decomposition too: *every* cut of the periodic tree, with
single-counter components, produced step-property (indeed perfectly
balanced) outputs in exhaustive enumeration at width 4 (all 10 cuts x
all workloads), randomised cut/workload sweeps at widths 8-32, skewed
single-wire loads, and random split/merge histories — zero violations.
The fully-split cut is wire-for-wire the classic periodic network of
:mod:`repro.core.periodic`. We emphasise this is an *empirical*
validation: the paper's Theorem 2.1 proof technique would need to be
redone per structure (the bench ``benchmarks/test_ext_periodic.py``
records the evidence).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.wiring import BoundaryRef, PortRef, WiringBase
from repro.errors import StructureError
from repro.ext.recursive import GenericSpec, GenericTree, RecursiveStructure

PERIODIC = "P"
BLOCK = "B"
REFLECT = "R"


class PeriodicStructure(RecursiveStructure):
    """The recursive decomposition of ``PERIODIC[w]``."""

    def __init__(self, width: int):
        if width < 2 or width & (width - 1):
            raise StructureError("width must be a power of two >= 2, got %d" % width)
        self.width = width

    def root_kind(self) -> str:
        return PERIODIC

    def child_kinds(self, kind: str, width: int) -> List[Tuple[str, int]]:
        if kind == PERIODIC:
            if width == 2:
                return []  # PERIODIC[2] is a single balancer
            blocks = width.bit_length() - 1
            return [(BLOCK, width)] * blocks
        if kind == BLOCK:
            if width == 2:
                return []
            return [(REFLECT, width), (BLOCK, width // 2), (BLOCK, width // 2)]
        if kind == REFLECT:
            if width == 2:
                return []
            return [(REFLECT, width // 2), (REFLECT, width // 2)]
        raise StructureError("unknown periodic component kind %r" % (kind,))


class PeriodicWiring(WiringBase):
    """Local wiring of the periodic decomposition."""

    def parent_input_dest(self, parent: GenericSpec, port: int) -> PortRef:
        k = parent.width
        if not 0 <= port < k:
            raise StructureError("input port %d out of range for %s" % (port, parent))
        if parent.kind == PERIODIC:
            return PortRef(child=0, port=port)  # into the first block
        if parent.kind == BLOCK:
            return PortRef(child=0, port=port)  # into the reflection layer
        # REFLECT[k]: outer quarter wires to child 0, inner to child 1.
        quarter = k // 4
        if port < quarter:
            return PortRef(child=0, port=port)
        if port < 2 * quarter:
            return PortRef(child=1, port=port - quarter)
        if port < 3 * quarter:
            return PortRef(child=1, port=port - quarter)
        return PortRef(child=0, port=port - k // 2)

    def child_output_dest(self, parent: GenericSpec, child_index: int, port: int):
        k = parent.width
        if parent.kind == PERIODIC:
            if not 0 <= port < k:
                raise StructureError("port %d out of range" % port)
            if child_index < parent.num_children() - 1:
                return PortRef(child=child_index + 1, port=port)
            return BoundaryRef(port=port)
        if parent.kind == BLOCK:
            if child_index == 0:  # the reflection layer, width k
                if not 0 <= port < k:
                    raise StructureError("port %d out of range" % port)
                if port < k // 2:
                    return PortRef(child=1, port=port)
                return PortRef(child=2, port=port - k // 2)
            if not 0 <= port < k // 2:
                raise StructureError("port %d out of range" % port)
            if child_index == 1:
                return BoundaryRef(port=port)
            if child_index == 2:
                return BoundaryRef(port=k // 2 + port)
        if parent.kind == REFLECT:
            half = k // 2
            if not 0 <= port < half:
                raise StructureError("port %d out of range" % port)
            if child_index == 0:  # outer wires: first and last quarters
                if port < half // 2:
                    return BoundaryRef(port=port)
                return BoundaryRef(port=port + half)
            if child_index == 1:  # inner wires: middle two quarters
                return BoundaryRef(port=half // 2 + port)
        raise StructureError("invalid child index %d for %s" % (child_index, parent))


def periodic_tree(width: int) -> GenericTree:
    """The decomposition tree of ``PERIODIC[width]``."""
    return GenericTree(PeriodicStructure(width))


def block_level_cut_paths(tree: GenericTree) -> List[Tuple[int, ...]]:
    """The cut deploying each ``BLOCK[w]`` as one component."""
    return [child.path for child in tree.root.children()]
