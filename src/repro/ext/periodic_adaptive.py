"""An adaptive *periodic* counting network: a second set of component
kinds on :class:`~repro.core.decomposition.DecompositionTree`.

Structure
---------
``PERIODIC[w]`` is ``log w`` identical ``BLOCK[w]`` networks in series
(see :mod:`repro.core.periodic`). The recursive decomposition, which
:class:`PeriodicKind` declares:

* ``P[w]`` (the whole network) -> ``log w`` ``BLOCK[w]`` children, wired
  in series;
* ``BLOCK[k]`` -> one reflection layer ``R[k]`` feeding a top and a
  bottom ``BLOCK[k/2]``; ``BLOCK[2]`` is a balancer leaf;
* ``R[k]`` (the layer pairing wire ``i`` with ``k-1-i``) -> two
  ``R[k/2]`` pieces: balancers ``0..k/4-1`` (outer quarter wires) and
  ``k/4..k/2-1`` (inner quarter wires); ``R[2]`` is a balancer leaf.

Unlike the bitonic tree, children are not always half the parent's
width (a block's reflection layer spans all ``k`` wires), leaves sit
at non-uniform depths and ``phi`` is not monotone (``1, 3, 9, 24, 24``
at width 8) — all exercised deliberately, since the
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

import enum
import functools
from typing import List, Tuple

from repro.core.decomposition import ComponentSpec, DecompositionTree
from repro.core.wiring import BoundaryRef, PortRef, WiringBase
from repro.errors import StructureError


class PeriodicKind(enum.Enum):
    """The component kinds of the recursive decomposition of ``PERIODIC[w]``."""

    PERIODIC = "P"
    BLOCK = "B"
    REFLECT = "R"

    @functools.lru_cache(maxsize=None)
    def children(self, width: int) -> Tuple[Tuple["PeriodicKind", int], ...]:
        """``(kind, width)`` of each child, in an order where no child
        feeds an earlier one (the split replay relies on it); a width-2
        component (a balancer) has none."""
        if width == 2:
            return ()
        if self is PeriodicKind.PERIODIC:
            return ((PeriodicKind.BLOCK, width),) * (width.bit_length() - 1)
        if self is PeriodicKind.BLOCK:
            half = (PeriodicKind.BLOCK, width // 2)
            return ((PeriodicKind.REFLECT, width), half, half)
        return ((PeriodicKind.REFLECT, width // 2),) * 2


class PeriodicWiring(WiringBase):
    """Local wiring of the periodic decomposition."""

    def parent_input_dest(self, parent: ComponentSpec, port: int) -> PortRef:
        k = parent.width
        if not 0 <= port < k:
            raise StructureError("input port %d out of range for %s" % (port, parent))
        if parent.kind is PeriodicKind.PERIODIC:
            return PortRef(child=0, port=port)  # into the first block
        if parent.kind is PeriodicKind.BLOCK:
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

    def child_output_dest(self, parent: ComponentSpec, child_index: int, port: int):
        k = parent.width
        if parent.kind is PeriodicKind.PERIODIC:
            if not 0 <= port < k:
                raise StructureError("port %d out of range" % port)
            if child_index < parent.num_children() - 1:
                return PortRef(child=child_index + 1, port=port)
            return BoundaryRef(port=port)
        if parent.kind is PeriodicKind.BLOCK:
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
        if parent.kind is PeriodicKind.REFLECT:
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


def periodic_tree(width: int) -> DecompositionTree:
    """The decomposition tree of ``PERIODIC[width]``."""
    return DecompositionTree(width, PeriodicKind.PERIODIC)


def block_level_cut_paths(tree: DecompositionTree) -> List[Tuple[int, ...]]:
    """The cut deploying each ``BLOCK[w]`` as one component."""
    return [child.path for child in tree.root.children()]
