"""Balancer-level balancing networks (Section 1.1).

A *balancer* is an asynchronous toggle with two input and two output
wires: the i-th token through it leaves on output ``i mod 2``. A
*balancing network* is an acyclic wiring of balancers. This module
models such networks in the "physical wire" representation: tokens live
on named wires, each layer applies disjoint balancers to wire pairs, and
an output permutation maps wires to network output positions.

The model supports token-level and quiescent batch semantics, and the
comparator-network view used by the counting <-> sorting correspondence
of Aspnes-Herlihy-Shavit (a balancing network counts only if replacing
every balancer by a max-up comparator yields a sorting network).

Topology construction is shared between execution backends through
:func:`compile_topology`: the layered wiring is validated once and
compiles into a flat ``table[layer][wire] -> (balancer, next_top,
next_bottom)`` array layout (the shape of cybozu's
``CountingNetwork4/8``). Both backends walk it as rows of the same
shape: :class:`BalancingNetwork` as ``hops[layer][wire] = (toggles,
index, (top, bottom))`` over its plain-int toggle lists, the
shared-memory backend (:mod:`repro.threads`) as ``(draw, (top,
bottom))`` over genuinely atomic drawers. Either way a layer is one row
read, one toggle step and ``pair[toggle & 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index as as_index
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.atomics import PerWireCounters
from repro.errors import StructureError

Layer = List[Tuple[int, int]]

#: One routing-table entry: ``(balancer_index, top_wire, bottom_wire)``,
#: the balancer index *layer-local* (it indexes that layer's toggle array).
RouteEntry = Tuple[int, int, int]

RoutingTable = List[Optional[RouteEntry]]

#: One hop row entry: ``(toggles, index, (top_wire, bottom_wire))``.
Hop = Tuple[List[int], int, Tuple[int, int]]


@dataclass(frozen=True)
class CompiledTopology:
    """One validated, compiled network topology.

    Both execution backends consume this: :class:`BalancingNetwork`
    builds its hop rows from the per-layer ``routing`` tables (layer-local
    balancer indices, matching its per-layer toggle arrays), while
    :mod:`repro.threads` builds the same rows from ``layers`` with each
    balancer's tick drawer in place of its index. Compiling is the *only*
    way topology state is produced, so the two backends can never
    disagree about the wiring.
    """

    width: int
    layers: Tuple[Tuple[Tuple[int, int], ...], ...]
    output_order: Tuple[int, ...]
    #: ``routing[layer][wire]`` -> layer-local :data:`RouteEntry` or None.
    routing: Tuple[Tuple[Optional[RouteEntry], ...], ...]
    num_balancers: int

    @property
    def depth(self) -> int:
        return len(self.layers)

    def position(self) -> Dict[int, int]:
        """``wire -> network output position`` mapping."""
        return {wire: j for j, wire in enumerate(self.output_order)}

    def mutable_layers(self) -> List[Layer]:
        """The layers as the nested lists :class:`BalancingNetwork`
        historically exposes (``net.layers``)."""
        return [[(top, bottom) for top, bottom in layer] for layer in self.layers]


def compile_topology(
    width: int, layers: Sequence[Layer], output_order: Sequence[int]
) -> CompiledTopology:
    """Validate a layered wiring and compile its routing tables.

    Raises :class:`StructureError` on an invalid topology *before*
    building anything, so callers can validate-then-swap atomically.
    """
    if sorted(output_order) != list(range(width)):
        raise StructureError("output_order must be a permutation of the wires")
    for layer in layers:
        used = [wire for pair in layer for wire in pair]
        if len(set(used)) != len(used):
            raise StructureError("a wire appears twice in one layer")
        if any(not 0 <= wire < width for wire in used):
            raise StructureError("wire id out of range in layer")
    routing: List[Tuple[Optional[RouteEntry], ...]] = []
    for layer in layers:
        table: RoutingTable = [None] * width
        for index, (top, bottom) in enumerate(layer):
            entry = (index, top, bottom)
            table[top] = entry
            table[bottom] = entry
        routing.append(tuple(table))
    return CompiledTopology(
        width=width,
        layers=tuple(tuple(pair for pair in layer) for layer in layers),
        output_order=tuple(output_order),
        routing=tuple(routing),
        num_balancers=sum(len(layer) for layer in layers),
    )


class BalancingNetwork:
    """An explicit layered balancing network over ``width`` wires.

    ``layers`` is a list of layers; each layer is a list of
    ``(top_wire, bottom_wire)`` pairs with all wires in a layer
    distinct. ``output_order`` lists the wire ids in network-output
    order (``output_order[j]`` is the wire feeding output ``j``).
    """

    def __init__(self, width: int, layers: Sequence[Layer], output_order: Sequence[int]):
        topology = compile_topology(width, layers, output_order)
        self.width = width
        self.output_counts = PerWireCounters(width)
        self._adopt(topology)

    def _adopt(self, topology: CompiledTopology) -> None:
        """Swap in a compiled topology and fresh toggles, together.

        The layer list, the output permutation, the balancer toggles and
        the hop rows :meth:`feed_token` walks are all derived from one
        another; replacing a subset (rebuilding routing after a
        split/merge while keeping the old toggle arrays, say) silently
        desynchronizes :meth:`feed_token` from :meth:`feed_counts`. This
        is the single point where any of them changes.
        """
        self.layers = topology.mutable_layers()
        self.output_order = list(topology.output_order)
        self.topology = topology
        position = topology.position()
        self._position = [position[wire] for wire in range(topology.width)]
        # One toggle per balancer: tokens seen so far.
        self._toggles = [[0] * len(layer) for layer in self.layers]
        self._hops: Optional[List[List[Hop]]] = None

    @property
    def depth(self) -> int:
        """Number of balancer layers."""
        return len(self.layers)

    @property
    def num_balancers(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def reset(self) -> None:
        """Return every toggle and counter to the initial state."""
        self._toggles = [[0] * len(layer) for layer in self.layers]
        self._hops = None  # the rows hold the old toggle lists
        self.output_counts.reset()

    def rebuild(self, layers: Sequence[Layer], output_order: Optional[Sequence[int]] = None) -> None:
        """Atomically replace the topology after a split/merge.

        Validates and compiles the new wiring first — an invalid
        topology raises :class:`StructureError` and leaves the network
        untouched — then swaps layers, hop rows, the output
        permutation, *and* fresh zeroed toggles in one step. Routing
        rebuilt over stale toggles still agrees with itself, so no check
        would see the drift; no piecemeal mutation path exists. The
        cumulative ``output_counts`` are preserved: the network keeps retiring
        into the same ``width`` output positions.
        """
        if output_order is None:
            output_order = list(range(self.width))
        self._adopt(compile_topology(self.width, layers, output_order))

    # ------------------------------------------------------------------
    # batch (quiescent) semantics
    # ------------------------------------------------------------------
    def feed_counts(self, input_counts: Sequence[int]) -> List[int]:
        """Inject ``input_counts[i]`` tokens on input ``i``; returns this
        batch's per-output counts (cumulative in ``output_counts``).
        A balancer's share is ``balanced_counts`` at width 2, inline: of
        its arrivals ``top`` takes the larger half on an even toggle, the
        smaller on an odd one, and ``bottom`` the rest."""
        if len(input_counts) != self.width:
            raise StructureError(
                "expected %d input counts, got %d" % (self.width, len(input_counts))
            )
        try:
            on_wire = list(map(as_index, input_counts))
        except TypeError:
            raise StructureError("input counts must be integers, got %r" % (input_counts,)) from None
        if min(on_wire, default=0) < 0:
            wire = next(wire for wire, count in enumerate(on_wire) if count < 0)
            raise StructureError(
                "negative input count %d on wire %d" % (on_wire[wire], wire)
            )
        for layer, toggles in zip(self.layers, self._toggles):
            for index, (top, bottom) in enumerate(layer):
                arriving = on_wire[top] + on_wire[bottom]
                if not arriving:
                    continue  # balancer untouched: state and wires unchanged
                toggle = toggles[index]
                toggles[index] = toggle + arriving
                on_wire[top] = up = (arriving + (~toggle & 1)) >> 1
                on_wire[bottom] = arriving - up
        batch = [on_wire[wire] for wire in self.output_order]
        for j, count in enumerate(batch):
            self.output_counts.increment(j, count)
        return batch

    # ------------------------------------------------------------------
    # token semantics
    # ------------------------------------------------------------------
    def _compile_hops(self) -> List[List[Hop]]:
        """``hops[layer][wire]``: the toggle list and index of the balancer
        on ``wire`` and its ``(top, bottom)``; an idle wire passes through
        on a spare counter no state reader sees."""
        spare = [0]
        self._hops = [
            [(spare, 0, (wire, wire)) if entry is None else (toggles, entry[0], entry[1:])
             for wire, entry in enumerate(table)]
            for toggles, table in zip(self._toggles, self.topology.routing)
        ]
        return self._hops

    def feed_token(self, wire: int) -> int:
        """Route a single token entering on input ``wire``; returns the
        network output position it leaves on.

        One hop row a layer: read the balancer's toggle, step it, and
        leave on ``(top, bottom)[toggle & 1]``.
        """
        try:
            if not 0 <= wire < self.width:
                raise StructureError("input wire %d out of range" % wire)
            # A non-integer wire fails its first list index, before any toggle moves.
            for row in self._hops or self._compile_hops():
                toggles, index, pair = row[wire]
                toggle = toggles[index]
                toggles[index] = toggle + 1
                wire = pair[toggle & 1]
            position = self._position[wire]
        except TypeError:
            raise StructureError("input wire %r is not an integer" % (wire,)) from None
        self.output_counts.increment(position)
        return position

    # ------------------------------------------------------------------
    # comparator view (counting <-> sorting correspondence)
    # ------------------------------------------------------------------
    def sorts_01(self, bits: Sequence[int]) -> bool:
        """Whether the max-up comparator isomorph sorts this 0/1 input
        into non-increasing order (1s at smaller output positions)."""
        if len(bits) != self.width:
            raise StructureError("expected %d bits" % self.width)
        on_wire = list(bits)
        for layer in self.layers:
            for top, bottom in layer:
                if on_wire[bottom] > on_wire[top]:
                    on_wire[top], on_wire[bottom] = on_wire[bottom], on_wire[top]
        out = [on_wire[wire] for wire in self.output_order]
        return all(out[i] >= out[i + 1] for i in range(len(out) - 1))


def parallel_layers(first: List[Layer], second: List[Layer]) -> List[Layer]:
    """Run two disjoint sub-networks side by side, padding the shorter."""
    depth = max(len(first), len(second))
    merged: List[Layer] = []
    for i in range(depth):
        layer: Layer = []
        if i < len(first):
            layer.extend(first[i])
        if i < len(second):
            layer.extend(second[i])
        merged.append(layer)
    return merged
