"""A static token costs its walker's frame and a counter call — as counts.

Theorem 3.6 fixes a ``CutNetwork`` token's hop count (21 through the leaf
cut of ``T_64``), and ``BITONIC[64]`` is 21 layers deep, so what a hop
costs is the whole cost model. Both walkers run every hop in their own
loop: a ``CutNetwork`` hop is the mod-``k`` step and the ``arrivals``
tally on a ``(state, width, row)`` tuple, a ``BalancingNetwork`` layer a
``(toggles, index, (top, bottom))`` row, a toggle step and
``pair[toggle & 1]``. Neither makes a Python call a hop: a token is
``feed_token`` plus the output counter's call, however many hops it
takes. ``sys.setprofile`` event counts repeat exactly on any runner
(``tests/runtime/test_hop_cost.py`` holds the simulated hop the same
way). Before the hop table a leaf-cut token made 89 Python and 43 C
calls for its 21 hops (mixed cut, 10.3 hops: 46.4 and 21.7); with the
table and a ``ComponentState.route_token`` frame a hop, 23 and 22 (12.7
and 11.7 for 10.7 hops); now 2 and 22 (2 and 11.7), the C calls being
``arrivals.get`` a hop and ``operator.index`` a token.
"""

import random
import sys

import pytest

from repro.core.bitonic import bitonic_network
from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import DecompositionTree
from repro.core.wiring import WiringBase

WIDTH = 64
TOKENS = 2000
WIRING_CODE = {
    WiringBase.resolve_output.__code__,
    WiringBase.resolve_network_input.__code__,
}


def mixed_cut(tree):
    """``perf``'s mixed shape: the level-1 cut with ``(0,)`` split down to
    balancers and ``(2,)`` split once — wide members beside width-2 ones."""
    cut = Cut.level(tree, 1)
    frontier = [(0,)]
    while frontier:
        path = frontier.pop()
        spec = tree.node(path)
        if not spec.is_leaf:
            cut = cut.split(path)
            frontier.extend(child.path for child in spec.children())
    return cut.split((2,))


@pytest.mark.parametrize(
    "shape, least_hops, most_hops",
    [(Cut.leaves, 21, 21), (mixed_cut, 10, 11)],
    ids=["leaf", "mixed"],
)
def test_calls_per_token(shape, least_hops, most_hops):
    network = CutNetwork(shape(DecompositionTree(WIDTH)))
    network.feed_counts([1] * WIDTH)  # warm: the topological order fills every edge
    hops_before = sum(state.total for state in network.states.values())
    counts = {"call": 0, "c_call": 0, "wiring": 0}

    def profiler(frame, event, _arg):
        if event in counts:
            counts[event] += 1
            if event == "call" and frame.f_code in WIRING_CODE:
                counts["wiring"] += 1

    wires = random.Random(7).choices(range(WIDTH), k=TOKENS)
    feed_token = network.feed_token
    sys.setprofile(profiler)
    try:
        for wire in wires:
            feed_token(wire)
    finally:
        sys.setprofile(None)
    hops = (sum(state.total for state in network.states.values()) - hops_before) / TOKENS
    assert least_hops <= hops <= most_hops
    # feed_token and output_counts.fetch_increment a token, none a hop.
    assert counts["call"] / TOKENS <= 3
    # arrivals.get a hop; operator.index a token.
    assert counts["c_call"] / TOKENS <= hops + 3
    assert counts["wiring"] == 0  # a warm edge is never resolved again
    network.verify_step_property()


def test_network_calls_per_token():
    network = bitonic_network(WIDTH)
    network.feed_token(0)  # warm: compiles the hop rows
    counts = {"call": 0, "c_call": 0}

    def profiler(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    wires = random.Random(7).choices(range(WIDTH), k=TOKENS)
    feed_token = network.feed_token
    sys.setprofile(profiler)
    try:
        for wire in wires:
            feed_token(wire)
    finally:
        sys.setprofile(None)
    assert network.depth == 21
    # feed_token and output_counts.increment a token, none of 21 layers.
    assert counts["call"] / TOKENS <= 2
    assert counts["c_call"] <= 1  # sys.setprofile(None) itself
    assert sum(network.output_counts) == TOKENS + 1
