"""Pass 1 — network structure analysis (codes ``RSC1xx``).

Statically verifies well-formedness of the two network representations
the package executes:

* balancer-level :class:`~repro.core.network.BalancingNetwork` wirings
  (bitonic, periodic, anything hand-built): every wire id in range, no
  wire used twice within a layer, the output order a permutation — and
  the step property *certified* for small widths by the 0-1 principle,
  pushing every 0/1 vector through the isomorphic comparator network
  and reusing :func:`repro.core.verification.is_sorted_01`;
* cut networks (any cut of the recursive tree ``T_w``, bitonic or
  generic): every internal wire has exactly one producer and one
  consumer, the member graph is acyclic with a consistent layer
  assignment, fan-in/fan-out match the component specs, measured
  effective width/depth respect the Lemma 2.2/2.3 bounds, and the
  quiescent step property is certified over exhaustive 0/1 input-count
  vectors plus single-wire bursts.

The diffracting-tree baseline gets its own small certifier,
:func:`check_counting_tree`.

All checkers return a :class:`~repro.staticcheck.diagnostics.Report`
and never raise on malformed input — that is the point: they accept
raw wiring data (:func:`check_wiring`) that the runtime constructors
would reject, and turn every violation into a diagnostic.

Error codes
-----------
``RSC101``
    Malformed wire topology (id out of range, duplicate use in a layer,
    an internal wire without exactly one producer and one consumer).
``RSC102``
    Output order is not a permutation of the wires.
``RSC103``
    The balancer/member graph is cyclic or has no consistent layer
    assignment.
``RSC104``
    Fan-in/fan-out mismatch against the component specs (a port fed
    never or twice, a component off every input-to-output path).
``RSC105``
    Step-property certification failed (0-1 principle or quiescent
    batch counterexample).
``RSC106``
    Measured depth exceeds the Lemma 2.2 bound (or the closed form).
``RSC107``
    Measured width below the Lemma 2.3 bound.
``RSC108``
    Width too large to certify exhaustively (warning; structural checks
    still ran).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import ComponentKind
from repro.core.metrics import lemma22_bound, lemma23_bound, measure
from repro.core.network import BalancingNetwork
from repro.core.verification import has_step_property, is_sorted_01
from repro.core.wiring import MergerConvention
from repro.staticcheck.diagnostics import Report, Severity

Path = Tuple[int, ...]

#: Largest width certified exhaustively via the 0-1 principle
#: (``2**width`` vectors) unless the caller overrides it.
MAX_CERTIFY_WIDTH = 16

#: Largest width for exhaustive 0/1 *batch* certification of a cut
#: network (each vector rebuilds the network, so the default is lower).
MAX_CERTIFY_CUT_WIDTH = 8


# ----------------------------------------------------------------------
# balancer-level networks
# ----------------------------------------------------------------------
def check_wiring(
    width: int,
    layers: Sequence[Sequence[Tuple[int, int]]],
    output_order: Sequence[int],
    source: str = "wiring",
) -> Report:
    """Well-formedness of raw balancer-level wiring data.

    Unlike the :class:`~repro.core.network.BalancingNetwork`
    constructor, this accepts arbitrarily broken data and reports every
    violation instead of raising on the first.
    """
    report = Report()
    if width < 2 or width & (width - 1):
        report.add("RSC101", "width must be a power of two >= 2, got %r" % (width,), source)
    if sorted(output_order) != list(range(width)):
        report.add(
            "RSC102",
            "output order %r is not a permutation of 0..%d" % (list(output_order), width - 1),
            source,
        )
    for depth, layer in enumerate(layers):
        seen: Dict[int, int] = {}
        for index, pair in enumerate(layer):
            if len(pair) != 2 or pair[0] == pair[1]:
                report.add(
                    "RSC101",
                    "balancer %d of layer %d must join two distinct wires, got %r"
                    % (index, depth, tuple(pair)),
                    source,
                    component="layer %d" % depth,
                )
                continue
            for wire in pair:
                if not 0 <= wire < width:
                    report.add(
                        "RSC101",
                        "wire %d out of range [0, %d) in layer %d" % (wire, width, depth),
                        source,
                        component="layer %d" % depth,
                    )
                elif wire in seen:
                    report.add(
                        "RSC101",
                        "wire %d used by balancers %d and %d of layer %d "
                        "(two producers for one wire)" % (wire, seen[wire], index, depth),
                        source,
                        component="layer %d" % depth,
                    )
                else:
                    seen[wire] = index
    return report


def certify_01_principle(
    network: BalancingNetwork,
    source: str = "network",
    max_width: int = MAX_CERTIFY_WIDTH,
) -> Report:
    """Certify the step property via the 0-1 principle.

    Pushes every 0/1 vector through the isomorphic max-up comparator
    network; by Aspnes-Herlihy-Shavit the balancing network counts iff
    the comparator network sorts, and by the 0-1 principle it sorts iff
    it sorts all ``2**width`` 0/1 inputs.
    """
    report = Report()
    width = network.width
    if width > max_width:
        report.add(
            "RSC108",
            "width %d exceeds the exhaustive certification limit %d; "
            "step property not certified" % (width, max_width),
            source,
            severity=Severity.WARNING,
        )
        return report
    for bits in itertools.product((0, 1), repeat=width):
        on_wire = list(bits)
        for layer in network.layers:
            for top, bottom in layer:
                hi = max(on_wire[top], on_wire[bottom])
                lo = min(on_wire[top], on_wire[bottom])
                on_wire[top], on_wire[bottom] = hi, lo
        out = [on_wire[wire] for wire in network.output_order]
        if not is_sorted_01(out):
            report.add(
                "RSC105",
                "0-1 principle violated: input %r sorts to %r" % (list(bits), out),
                source,
            )
            return report
    return report


def check_balancing_network(
    network: BalancingNetwork,
    source: str = "network",
    expected_depth: Optional[int] = None,
    certify: bool = True,
    max_certify_width: int = MAX_CERTIFY_WIDTH,
) -> Report:
    """All structural checks for one balancer-level network."""
    report = check_wiring(network.width, network.layers, network.output_order, source)
    if expected_depth is not None and network.depth != expected_depth:
        report.add(
            "RSC106",
            "depth %d does not match the closed form %d" % (network.depth, expected_depth),
            source,
        )
    if report.ok and certify:
        report.extend(certify_01_principle(network, source, max_certify_width))
    return report


# ----------------------------------------------------------------------
# cut networks
# ----------------------------------------------------------------------
def _wire_audit(network: CutNetwork, source: str, report: Report) -> None:
    """One producer and one consumer per wire; fan-in/out per spec."""
    producers: Dict[Tuple[Path, int], int] = {}
    output_producers: Dict[int, int] = {}
    width = network.width
    for wire in range(width):
        try:
            path, port = network._input(wire)
        except Exception as exc:  # malformed member set
            report.add("RSC101", "network input %d unroutable: %s" % (wire, exc), source)
            continue
        producers[(path, port)] = producers.get((path, port), 0) + 1
    for path in sorted(network.states):
        state = network.states[path]
        for port in range(state.width):
            dest = network._edge(path, port)
            if dest[0] == "out":
                output_producers[dest[1]] = output_producers.get(dest[1], 0) + 1
            elif dest[0] == "member":
                key = (dest[1], dest[2])
                producers[key] = producers.get(key, 0) + 1
            else:  # "missing": the receiving subtree has no live member
                report.add(
                    "RSC101",
                    "output %d dangles: receiving subtree %s has no member"
                    % (port, dest[1]),
                    source,
                    component=str(state.spec),
                )
    for path in sorted(network.states):
        spec = network.states[path].spec
        for port in range(spec.width):
            fed = producers.get((path, port), 0)
            if fed != 1:
                report.add(
                    "RSC104",
                    "input port %d has %d producers (want exactly 1)" % (port, fed),
                    source,
                    component=str(spec),
                )
    for wire in range(width):
        fed = output_producers.get(wire, 0)
        if fed != 1:
            report.add(
                "RSC104",
                "network output %d has %d producers (want exactly 1)" % (wire, fed),
                source,
            )
    stray = set(producers) - {
        (path, port)
        for path in network.states
        for port in range(network.states[path].spec.width)
    }
    for path, port in sorted(stray):
        report.add(
            "RSC104",
            "wire feeds port %d of %r, which is not a live member port" % (port, path),
            source,
        )


def _layer_audit(network: CutNetwork, source: str, report: Report) -> None:
    """Acyclicity + a consistent layer assignment of the member graph."""
    graph = network.member_graph()
    indegree = {path: 0 for path in graph}
    for succs in graph.values():
        for succ in succs:
            indegree[succ] += 1
    layer = {path: 0 for path, deg in indegree.items() if deg == 0}
    ready = sorted(layer)
    order: List[Path] = []
    while ready:
        path = ready.pop()
        order.append(path)
        for succ in sorted(graph[path]):
            layer[succ] = max(layer.get(succ, 0), layer[path] + 1)
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(graph):
        cyclic = sorted(set(graph) - set(order))
        report.add(
            "RSC103",
            "member graph is cyclic; no layer assignment exists "
            "(members on cycles: %s)" % ", ".join(map(repr, cyclic[:4])),
            source,
        )
        return
    for path, succs in graph.items():
        for succ in succs:
            if layer[succ] <= layer[path]:
                report.add(
                    "RSC103",
                    "layer assignment inconsistent: %r (layer %d) feeds %r (layer %d)"
                    % (path, layer[path], succ, layer[succ]),
                    source,
                )


def _certify_cut(
    network: CutNetwork,
    source: str,
    report: Report,
    max_width: int,
    build,
) -> None:
    """Quiescent step-property certification of a cut network.

    Exhaustive 0/1 input-count vectors (the batch analogue of the 0-1
    principle — each vector through a fresh network) plus single-wire
    bursts of up to ``2*width`` tokens, which exercise every counter
    offset.
    """
    width = network.width
    if width > max_width:
        report.add(
            "RSC108",
            "width %d exceeds the exhaustive cut-certification limit %d; "
            "step property not certified" % (width, max_width),
            source,
            severity=Severity.WARNING,
        )
        return
    for bits in itertools.product((0, 1), repeat=width):
        fresh = build()
        out = fresh.feed_counts(list(bits))
        if not has_step_property(out):
            report.add(
                "RSC105",
                "quiescent step property violated: 0/1 input %r yields %r"
                % (list(bits), out),
                source,
            )
            return
    for wire in range(width):
        for burst in (1, width, 2 * width - 1):
            fresh = build()
            counts = [0] * width
            counts[wire] = burst
            out = fresh.feed_counts(counts)
            if not has_step_property(out):
                report.add(
                    "RSC105",
                    "quiescent step property violated: burst of %d tokens on "
                    "wire %d yields %r" % (burst, wire, out),
                    source,
                )
                return


def check_cut_network(
    cut: Cut,
    convention: MergerConvention = MergerConvention.AHS94,
    wiring=None,
    source: Optional[str] = None,
    certify: bool = True,
    max_certify_width: int = MAX_CERTIFY_CUT_WIDTH,
    check_bounds: bool = True,
) -> Report:
    """All structural checks for the network induced by one cut.

    ``wiring`` may be passed for the trees of other structures
    (:mod:`repro.ext`); the Lemma 2.2/2.3 bound checks apply only to
    ``T_w`` (a ``BITONIC`` root) and are skipped otherwise.
    """
    if source is None:
        source = "cut(w=%d, members=%d)" % (cut.tree.width, len(cut))
    report = Report()

    def build() -> CutNetwork:
        return CutNetwork(cut, convention=convention, wiring=wiring)

    try:
        network = build()
    except Exception as exc:
        report.add("RSC101", "cut network cannot be built: %s" % exc, source)
        return report
    _wire_audit(network, source, report)
    _layer_audit(network, source, report)
    if not report.ok:
        return report
    if check_bounds and cut.tree.root.kind is ComponentKind.BITONIC:
        levels = cut.levels()
        metrics = measure(network)
        depth_bound = lemma22_bound(max(levels))
        width_bound = lemma23_bound(min(levels))
        if metrics.effective_depth > depth_bound:
            report.add(
                "RSC106",
                "effective depth %d exceeds the Lemma 2.2 bound %d for max level %d"
                % (metrics.effective_depth, depth_bound, max(levels)),
                source,
            )
        if metrics.effective_width < width_bound:
            report.add(
                "RSC107",
                "effective width %d below the Lemma 2.3 bound %d for min level %d"
                % (metrics.effective_width, width_bound, min(levels)),
                source,
            )
    if certify:
        _certify_cut(network, source, report, max_certify_width, build)
    return report


# ----------------------------------------------------------------------
# diffracting-tree baseline
# ----------------------------------------------------------------------
def check_counting_tree(depth: int, source: Optional[str] = None, tokens: Optional[int] = None) -> Report:
    """Certify the diffracting-style counting tree of a given depth.

    Routes ``tokens`` tokens (default ``4 * leaves``) and checks, at
    every quiescent point, that the leaf visit counts satisfy the step
    property and the handed-out values are a gap-free prefix of the
    naturals.
    """
    from repro.core.diffracting import CountingTree

    if source is None:
        source = "DIFFRACTING[depth=%d]" % depth
    report = Report()
    try:
        tree = CountingTree(depth)
    except Exception as exc:
        report.add("RSC101", "counting tree cannot be built: %s" % exc, source)
        return report
    total = tokens if tokens is not None else 4 * tree.num_leaves
    values: List[int] = []
    for step in range(total):
        values.append(tree.next_value())
        ordered = sorted(tree.leaf_counts, reverse=True)
        if not has_step_property(ordered):
            report.add(
                "RSC105",
                "leaf counts %r violate the step property after %d tokens"
                % (tree.leaf_counts, step + 1),
                source,
            )
            return report
    if sorted(values) != list(range(total)):
        report.add(
            "RSC105",
            "values are not a gap-free prefix of the naturals: %r" % (sorted(values)[:8],),
            source,
        )
    return report
