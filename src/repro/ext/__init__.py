"""Extensions beyond the paper's core construction.

The paper closes its abstract with: *"our technique could be applied to
build an adaptive implementation of any distributed data structure
which can be decomposed in a recursive way."* This subpackage takes
that claim seriously. A structure is a kind enum whose
``children(width)`` lists each child's ``(kind, width)`` — the root of a
:class:`~repro.core.decomposition.DecompositionTree` — plus a
:class:`~repro.core.wiring.WiringBase` subclass declaring its local
wiring. Cuts, counter-component networks, exact split/merge state
transfer, the effective metrics and the adaptive runtime come with the
tree, unchanged.

:mod:`repro.ext.periodic_adaptive` does this for the *periodic*
counting network; every cut of it counted in our
(exhaustive-at-small-width) experiments, empirically extending
Theorem 2.1 beyond the bitonic case.
"""

from repro.ext.periodic_adaptive import PeriodicKind, PeriodicWiring, periodic_tree

__all__ = [
    "PeriodicKind",
    "PeriodicWiring",
    "periodic_tree",
]
