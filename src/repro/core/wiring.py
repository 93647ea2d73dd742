"""Wire connections between components (Section 2.1).

Each internal node of the decomposition tree induces a *local wiring*
among its children and its own boundary ports:

* ``parent_input_dest(parent, i)`` — which child input port a token
  entering the parent's input port ``i`` goes to;
* ``child_output_dest(parent, child_index, j)`` — where a token leaving
  child ``child_index`` on its output port ``j`` goes: either another
  child's input port, or the parent's output port ``j'``.

Composing these local maps up and down the tree resolves, for any cut,
the destination of every component output port — see
:func:`Wiring.resolve_output` — without ever materialising the
balancer-level network.

Merger input convention (paper typo)
------------------------------------

The local wiring of the two ``MERGER[k/2]`` children admits two
conventions, selected by :class:`MergerConvention`:

* ``AHS94`` (default, correct): the top merger receives the *even*
  outputs of the top half and the *odd* outputs of the bottom half; the
  bottom merger receives the rest. The full-leaf cut is then exactly the
  classic bitonic counting network of Aspnes-Herlihy-Shavit, and every
  cut counts (Theorem 2.1).
* ``PAPER_PROSE``: the literal wording of Section 2.1 (even outputs of
  *both* halves feed the top merger). This does **not** count — one
  token on input 0 plus one on input 2 of a width-4 network already
  yields output counts ``(1, 0, 1, 0)``. We keep the variant for the
  ablation benchmark that demonstrates the typo.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.core.decomposition import ComponentKind, ComponentSpec, DecompositionTree
from repro.errors import ProtocolError, StructureError

# Child-index constants, matching ComponentKind.children() order.
B_TOP, B_BOT = 0, 1
#: MERGER children of a BITONIC parent.
BM_TOP, BM_BOT = 2, 3
#: MIX children of a BITONIC parent.
BX_TOP, BX_BOT = 4, 5
#: MERGER children of a MERGER parent.
MM_TOP, MM_BOT = 0, 1
#: MIX children of a MERGER parent.
MX_TOP, MX_BOT = 2, 3
#: MIX children of a MIX parent.
XX_TOP, XX_BOT = 0, 1


class MergerConvention(enum.Enum):
    """How BITONIC (or MERGER) halves feed the two sub-mergers."""

    AHS94 = "ahs94"
    PAPER_PROSE = "paper_prose"


@dataclass(frozen=True)
class PortRef:
    """A (child index, port) pair inside one parent's local wiring."""

    child: int
    port: int


@dataclass(frozen=True)
class BoundaryRef:
    """A port on the parent's own boundary (``port`` is the parent port)."""

    port: int


LocalDest = Union[PortRef, BoundaryRef]


def _merger_input(local: int, is_top_half: bool, half: int, convention: MergerConvention) -> PortRef:
    """Route output ``local`` of a half (top/bottom) into a sub-merger.

    ``half`` is the width of each child; the sub-merger's first
    ``half/2`` inputs come from the top half, the last ``half/2`` from
    the bottom half. Which *parity* goes to which sub-merger is the
    convention under test.
    """
    even = local % 2 == 0
    slot = local // 2
    if is_top_half:
        # Top-half outputs occupy the first half/2 sub-merger inputs.
        to_top_merger = even  # both conventions agree on the top half
        return PortRef(child=0 if to_top_merger else 1, port=slot)
    if convention is MergerConvention.AHS94:
        to_top_merger = not even  # odd outputs of the bottom half
    else:
        to_top_merger = even  # the paper's literal (incorrect) wording
    return PortRef(child=0 if to_top_merger else 1, port=half // 2 + slot)


def _merger_to_mix(child: int, port: int, half: int) -> PortRef:
    """Route a sub-merger output into the two MIX children.

    Sub-merger outputs pair up positionally: output ``i`` of the top
    sub-merger and output ``i`` of the bottom sub-merger feed balancer
    ``i`` of the final MIX layer. The top MIX child covers balancers
    ``0..half/2-1`` (parent outputs ``0..half-1``), the bottom MIX child
    the rest.
    """
    from_top_merger = child == 0
    if port < half // 2:
        mix, slot = 0, port
    else:
        mix, slot = 1, port - half // 2
    return PortRef(child=mix, port=2 * slot + (0 if from_top_merger else 1))


class WiringBase:
    """Structure-independent port resolution over a decomposition tree.

    Subclasses provide the two *local* maps — ``parent_input_dest`` and
    ``child_output_dest`` — that describe one tree node's internal
    wiring; this base class derives their inverses and composes them up
    and down the tree to resolve global wires for any cut. The bitonic
    rules live in :class:`Wiring`; :mod:`repro.ext` reuses this base
    for other recursive structures (the paper's closing generalisation
    claim).
    """

    def __init__(self, tree):
        self.tree = tree
        #: (kind, width) -> the inverses of that parent's two local maps.
        #: Never invalidated: the wiring is a pure function of the tree.
        self._inverses: dict = {}

    # -- local maps (subclass responsibility) ---------------------------
    def parent_input_dest(self, parent, port: int) -> "PortRef":  # pragma: no cover
        raise NotImplementedError

    def child_output_dest(self, parent, child_index: int, port: int):  # pragma: no cover
        raise NotImplementedError

    # -- their inverses, derived -----------------------------------------
    def _inverse(self, parent):
        """``parent``'s two local maps read backwards, one scan of each
        per (kind, width): the three dicts the lookups below index."""
        key = (parent.kind, parent.width)
        inverse = self._inverses.get(key)
        if inverse is None:
            inputs, siblings, outputs = {}, {}, {}
            for port in range(parent.width):
                ref = self.parent_input_dest(parent, port)
                inputs[ref.child, ref.port] = port
            for index, child in enumerate(parent.children()):
                for out_port in range(child.width):
                    dest = self.child_output_dest(parent, index, out_port)
                    if isinstance(dest, PortRef):
                        siblings[dest.child, dest.port] = (index, out_port)
                    else:
                        outputs[dest.port] = (index, out_port)
            inverse = self._inverses[key] = (inputs, siblings, outputs)
        return inverse

    def parent_input_source(self, parent, child_index: int, port: int):
        """The parent input port that feeds (``child_index``, ``port``),
        or ``None`` if a sibling feeds it instead."""
        return self._inverse(parent)[0].get((child_index, port))

    def sibling_source(self, parent, child_index: int, port: int):
        """The (sibling index, output port) that feeds (``child_index``,
        input ``port``) inside ``parent``; ``KeyError`` if none does."""
        return self._inverse(parent)[1][child_index, port]

    def boundary_source(self, parent, port: int):
        """The (child index, output port) that is ``parent``'s output
        ``port``; ``KeyError`` for a port out of range."""
        return self._inverse(parent)[2][port]

    # -- global resolution ----------------------------------------------
    def descend_input(self, spec, port: int, member_paths):
        """Descend from (``spec``, input ``port``) to the cut member below.

        ``member_paths`` is a set of component paths (the cut). ``spec``
        itself may be a member, in which case it is returned directly.
        """
        while spec.path not in member_paths:
            if spec.is_leaf:
                raise StructureError(
                    "input resolution fell through a leaf: no cut member on the path of %s"
                    % (spec,)
                )
            ref = self.parent_input_dest(spec, port)
            spec = spec.child(ref.child)
            port = ref.port
        return spec, port

    def ascend_input(self, spec, port: int, ancestor):
        """Climb from (``spec``, input ``port``) toward the ancestor at
        path ``ancestor`` while the port is one of the parent's own
        inputs. Returns where the climb stopped: at the ancestor (and
        its port), or below it at the first port a sibling feeds."""
        while spec.path != ancestor:
            parent = self.tree.parent(spec)
            source = self.parent_input_source(parent, spec.path[-1], port)
            if source is None:
                break
            spec, port = parent, source
        return spec, port

    def resolve_input(self, spec, port: int, member_paths):
        """Where (``spec``, input ``port``) lives under the cut
        ``member_paths`` — every stale-address question is this one.

        Returns ``("member", spec2, port2)``: ``spec`` itself, the
        member it was merged into (the port climbs through the input
        wiring) or the member it was split into (the port descends).
        Returns ``("missing", spec, port)`` when no member is on that
        path — a crash hole, whole or partial, awaiting stabilisation;
        callers defer and retry rather than treating that as a
        structural error. A port inside a merged subtree that a sibling
        feeds has no address in the merged member: no token can be on
        that wire (the merge drained it), so finding one raises.
        """
        try:
            member, in_port = self.descend_input(spec, port, member_paths)
        except StructureError:
            pass  # nothing live at or below ``spec``: merged, or a hole
        else:
            return ("member", member, in_port)
        path = spec.path
        for depth in range(len(path)):
            covering = path[:depth]
            if covering in member_paths:
                member, in_port = self.ascend_input(spec, port, covering)
                if member.path != covering:
                    raise ProtocolError(
                        "%s input %d is an internal wire of the merged "
                        "subtree %r" % (spec, port, covering)
                    )
                return ("member", member, in_port)
        return ("missing", spec, port)

    def is_input_boundary(self, spec, ancestor=()) -> bool:
        """Whether some input port of ``spec`` is one of the inputs of
        the ancestor at path ``ancestor`` (by default the network's)."""
        return any(
            self.ascend_input(spec, port, ancestor)[0].path == ancestor
            for port in range(spec.width)
        )

    def resolve_output(self, spec, port: int, member_paths):
        """Destination of (cut member ``spec``, output ``port``).

        Returns ``("out", j)`` when the wire is network output ``j``,
        else what :meth:`resolve_input` says of the sibling input the
        wire enters. Walks up through ancestors while the port maps to
        the parent boundary.
        """
        current, p = spec, port
        while True:
            parent = self.tree.parent(current)
            if parent is None:
                return ("out", p)
            dest = self.child_output_dest(parent, current.path[-1], p)
            if isinstance(dest, BoundaryRef):
                current, p = parent, dest.port
                continue
            return self.resolve_input(parent.child(dest.child), dest.port, member_paths)

    def input_leaf(self, wire: int):
        """The leaf that accepts network input ``wire`` when every
        member is a leaf — the name a client's input lookup starts from
        (Section 3.5). Found by descending the input wiring."""
        if not 0 <= wire < self.tree.width:
            raise StructureError("network input %d out of range" % wire)
        spec = self.tree.root
        while not spec.is_leaf:
            ref = self.parent_input_dest(spec, wire)
            spec, wire = spec.child(ref.child), ref.port
        return spec

    def resolve_network_input(self, wire: int, member_paths):
        """The cut member (and its port) receiving network input ``wire``."""
        if not 0 <= wire < self.tree.width:
            raise StructureError("network input %d out of range" % wire)
        return self.descend_input(self.tree.root, wire, member_paths)

    def network_output_index(self, spec, port: int) -> int:
        """The network output wire fed by (``spec``, output ``port``).

        Only valid for output-boundary components — those whose output
        ports all map to the network boundary (checked; raises
        :class:`StructureError` otherwise).
        """
        current, p = spec, port
        while True:
            parent = self.tree.parent(current)
            if parent is None:
                return p
            dest = self.child_output_dest(parent, current.path[-1], p)
            if not isinstance(dest, BoundaryRef):
                raise StructureError(
                    "%s output %d is an internal wire, not a network output" % (spec, port)
                )
            current, p = parent, dest.port

    def is_output_boundary(self, spec) -> bool:
        """Whether every output port of ``spec`` is a network output."""
        try:
            self.network_output_index(spec, 0)
        except StructureError:
            return False
        return True


class Wiring(WiringBase):
    """The bitonic wiring rules of Section 2.1.

    All methods are pure functions of the structure; the class only
    carries the tree and the merger convention.
    """

    def __init__(self, tree: DecompositionTree, convention: MergerConvention = MergerConvention.AHS94):
        super().__init__(tree)
        self.convention = convention

    # ------------------------------------------------------------------
    # local wiring, one tree node at a time
    # ------------------------------------------------------------------
    def parent_input_dest(self, parent: ComponentSpec, port: int) -> PortRef:
        """Which child input port receives the parent's input ``port``."""
        k = parent.width
        if not 0 <= port < k:
            raise StructureError("input port %d out of range for %s" % (port, parent))
        half = k // 2
        if parent.kind in (ComponentKind.BITONIC, ComponentKind.MIX):
            # Top half of the inputs to the top child, bottom half to the
            # bottom child (BITONIC children 0/1, MIX children 0/1).
            child = 0 if port < half else 1
            return PortRef(child=child, port=port % half)
        # MERGER[k]: first half is the x-sequence, second half the
        # y-sequence; route by parity into the two sub-mergers.
        if port < half:
            ref = _merger_input(port, True, half, self.convention)
        else:
            ref = _merger_input(port - half, False, half, self.convention)
        return PortRef(child=MM_TOP if ref.child == 0 else MM_BOT, port=ref.port)

    def child_output_dest(self, parent: ComponentSpec, child_index: int, port: int) -> LocalDest:
        """Where child ``child_index``'s output ``port`` leads, locally."""
        k = parent.width
        half = k // 2
        if not 0 <= port < half:
            raise StructureError(
                "output port %d out of range for child %d of %s" % (port, child_index, parent)
            )
        kind = parent.kind
        if kind is ComponentKind.BITONIC:
            if child_index in (B_TOP, B_BOT):
                ref = _merger_input(port, child_index == B_TOP, half, self.convention)
                return PortRef(child=BM_TOP if ref.child == 0 else BM_BOT, port=ref.port)
            if child_index in (BM_TOP, BM_BOT):
                ref = _merger_to_mix(0 if child_index == BM_TOP else 1, port, half)
                return PortRef(child=BX_TOP if ref.child == 0 else BX_BOT, port=ref.port)
            if child_index == BX_TOP:
                return BoundaryRef(port=port)
            if child_index == BX_BOT:
                return BoundaryRef(port=half + port)
        elif kind is ComponentKind.MERGER:
            if child_index in (MM_TOP, MM_BOT):
                ref = _merger_to_mix(0 if child_index == MM_TOP else 1, port, half)
                return PortRef(child=MX_TOP if ref.child == 0 else MX_BOT, port=ref.port)
            if child_index == MX_TOP:
                return BoundaryRef(port=port)
            if child_index == MX_BOT:
                return BoundaryRef(port=half + port)
        elif kind is ComponentKind.MIX:
            if child_index == XX_TOP:
                return BoundaryRef(port=port)
            if child_index == XX_BOT:
                return BoundaryRef(port=half + port)
        raise StructureError("invalid child index %d for %s" % (child_index, parent))
