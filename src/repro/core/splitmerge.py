"""Split and merge state transfer (Section 2.2, DESIGN.md D2/D3).

Splitting
---------
When a component of width ``k`` splits, the children must be initialised
so the network behaves, from that point on, exactly as if the children
had implemented the component all along. Which child carried each past
token depends only on the *port* the token arrived on (the local wiring
routes parent input ports to fixed child ports, and every child is an
arrival-order-insensitive counter). The component tracks per-port
arrival tallies (:class:`~repro.core.components.ComponentState`), so the
children's exact states are obtained by replaying the tallies through
one level of local wiring in closed form: a child that received ``t``
tokens emitted the balanced distribution of ``t`` over its wires, which
feeds the next child, and so on in child-index order (topological for
every parent kind).

Merging
-------
The merged counter must equal the number of tokens that left the merged
subnetwork — the sum of the totals of the children on the subnetwork's
output boundary (the MIX children for BITONIC/MERGER parents, both
children for a MIX parent). The merged per-port tallies are read back
from the input-boundary children through the inverse of the local input
wiring.

Both directions conserve tokens and invert each other. Either one is
invisible at the network's outputs only when :func:`transfer_is_exact`
holds, which the runtime asks first.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.components import ComponentState, balanced_count_at, balanced_counts
from repro.core.decomposition import ComponentSpec
from repro.core.wiring import PortRef, Wiring
from repro.errors import StructureError

PortCounts = Dict[int, int]


def split_child_states(
    wiring: Wiring, parent: ComponentSpec, arrivals: Mapping[int, int]
) -> List[ComponentState]:
    """Child states for a split, replaying the parent's arrival tallies.

    ``arrivals`` maps the parent's input port -> tokens received there.
    Returns fully initialised :class:`ComponentState` objects (totals and
    per-port tallies) in child-index order.
    """
    if parent.is_leaf:
        raise StructureError("cannot split a width-2 component: %s" % (parent,))
    children = parent.children()
    child_arrivals: List[PortCounts] = [{} for _ in children]
    for port, count in arrivals.items():
        if count < 0:
            raise StructureError("negative arrival tally on port %d" % port)
        if count:
            ref = wiring.parent_input_dest(parent, port)
            child_arrivals[ref.child][ref.port] = (
                child_arrivals[ref.child].get(ref.port, 0) + count
            )
    states: List[ComponentState] = []
    for index, child in enumerate(children):
        total = sum(child_arrivals[index].values())
        states.append(ComponentState(child, total, dict(child_arrivals[index])))
        if total == 0:
            continue
        for port, count in enumerate(balanced_counts(0, total, child.width)):
            if count:
                dest = wiring.child_output_dest(parent, index, port)
                if isinstance(dest, PortRef):
                    child_arrivals[dest.child][dest.port] = (
                        child_arrivals[dest.child].get(dest.port, 0) + count
                    )
    return states


def output_boundary_children(wiring: Wiring, parent: ComponentSpec) -> List[int]:
    """Indices of the children whose outputs leave the parent.

    For BITONIC and MERGER parents these are the two MIX children; for a
    MIX parent, both children.
    """
    return sorted(
        {wiring.boundary_source(parent, port)[0] for port in range(parent.width)}
    )


def transfer_is_exact(
    wiring: Wiring, parent: ComponentSpec, total: int, child_states: List[ComponentState]
) -> bool:
    """Whether ``child_states`` have emitted on ``parent``'s output ports
    exactly what one counter of ``total`` tokens emitted there — the
    condition for a split or merge to move no token that has left.
    Always true of a BITONIC parent (Theorem 2.1); of a MERGER or MIX at
    quiescence, but in general not mid-stream."""
    width = parent.width
    for port in range(width):
        index, out_port = wiring.boundary_source(parent, port)
        child = child_states[index]
        if balanced_count_at(0, child.total, child.width, out_port) != balanced_count_at(
            0, total, width, port
        ):
            return False
    return True


def merge_child_states(
    wiring: Wiring, parent: ComponentSpec, child_states: List[ComponentState]
) -> ComponentState:
    """The merged component state from its children's states.

    ``child_states`` must be the children in child-index order, each in a
    quiescent state (every token that entered the subnetwork has left).
    """
    if len(child_states) != parent.num_children():
        raise StructureError(
            "expected %d child states for %s, got %d"
            % (parent.num_children(), parent, len(child_states))
        )
    for index, (state, child) in enumerate(zip(child_states, parent.children())):
        if state.spec != child:
            raise StructureError(
                "child state %d is %s, expected %s" % (index, state.spec, child)
            )
    total = sum(
        child_states[i].total for i in output_boundary_children(wiring, parent)
    )
    arrivals: PortCounts = {}
    for port in range(parent.width):
        ref = wiring.parent_input_dest(parent, port)
        count = child_states[ref.child].arrivals.get(ref.port, 0)
        if count:
            arrivals[port] = count
    merged = ComponentState(parent, total, arrivals)
    if merged.arrived_total() != total:
        raise StructureError(
            "merge of %s is not quiescent: %d arrivals vs %d departures"
            % (parent, merged.arrived_total(), total)
        )
    return merged
