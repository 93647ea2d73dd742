"""A quiescent batch costs arithmetic in the frame that owns the loop — as counts.

``feed_counts`` is how Theorem 2.1 is checked (cut certification, the
static oracle), so its cost is calls per batch at ``w`` = 64:
``BalancingNetwork.feed_counts`` splits every balancer's arrivals inline
(its own frame, a list comprehension before 3.12, and one
``PerWireCounters.increment`` per output: 66 Python calls where
``balanced_counts`` per balancer made 738); ``CutNetwork.feed_counts``
steps every member inline over its slot plan, so it too is its own frame
and one ``PerWireCounters.increment`` per output: 65 calls through the
672-member leaf cut and through the 248-member mixed one. Before the
plan it was 740 and 316, one ``ComponentState.route_counts`` frame per
touched member; before that, 5 434 through the leaf cut, when every
member got a dict, a ``route_batch`` walking it twice, a ``_check_port``
per port and ``balanced_counts``. ``sys.setprofile`` event counts repeat
exactly on any runner, as in ``test_cut_hop_cost.py``.
"""

import random
import sys

import pytest

from repro.core.bitonic import bitonic_network
from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import DecompositionTree
from repro.core.verification import has_step_property
from tests.core.test_cut_hop_cost import WIRING_CODE, mixed_cut

WIDTH = 64
BATCHES = 20


def calls_per_batch(network):
    """(Python calls, wiring calls) per warm ``perf``-shaped batch: up
    to 16 tokens a wire, every wire drawn independently."""
    network.feed_counts([1] * WIDTH)  # warm: every edge a batch can need is resolved
    counts = {"call": 0, "wiring": 0}

    def profiler(frame, event, _arg):
        if event == "call":
            counts["call"] += 1
            if frame.f_code in WIRING_CODE:
                counts["wiring"] += 1

    rng = random.Random(7)
    batches = [rng.choices(range(17), k=WIDTH) for _ in range(BATCHES)]
    feed_counts = network.feed_counts
    sys.setprofile(profiler)
    try:
        for batch in batches:
            feed_counts(batch)
    finally:
        sys.setprofile(None)
    assert has_step_property(list(network.output_counts))
    return counts["call"] / BATCHES, counts["wiring"]


def test_balancer_network_batch():
    calls, _ = calls_per_batch(bitonic_network(WIDTH))
    assert calls <= 80  # feed_counts, and output_counts.increment an output


@pytest.mark.parametrize(
    "shape, members", [(Cut.leaves, 672), (mixed_cut, 248)], ids=["leaf", "mixed"]
)
def test_cut_batch(shape, members):
    network = CutNetwork(shape(DecompositionTree(WIDTH)))
    assert len(network.states) == members
    calls, wiring = calls_per_batch(network)
    # feed_counts, and output_counts.increment an output; none a member:
    # 65 on either cut (740 and 316 with a route_counts frame a member).
    assert calls <= WIDTH + 4
    assert wiring == 0  # a warm edge is never resolved again
