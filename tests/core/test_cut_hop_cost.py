"""A ``CutNetwork`` hop costs a counter step and a list read — as counts.

Theorem 3.6 fixes the hop count (21 through the leaf cut of ``T_64``),
so calls per hop are the whole cost model. Once every edge a token
needs is in the hop table, a hop is ``ComponentState.route_token`` — the
one place the mod-``k`` step is written, and the only Python frame —
plus two list reads; ``feed_token`` and the three per-token counters are
paid once a token. ``sys.setprofile`` event counts repeat exactly on any
runner (``tests/runtime/test_hop_cost.py`` holds the simulated hop the
same way). Before the table a leaf-cut token made 89 Python and 43 C
calls for its 21 hops (mixed cut, 10.3 hops: 46.4 and 21.7); it makes 25
and 22 (14.3 and 11.3).
"""

import random
import sys

import pytest

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
    # route_token a hop; feed_token, tokens_in, output_counts, tokens_out a token.
    assert counts["call"] / TOKENS <= hops + 6
    # arrivals.get a hop; operator.index a token.
    assert counts["c_call"] / TOKENS <= hops + 3
    assert counts["wiring"] == 0  # a warm edge is never resolved again
    network.verify_step_property()
