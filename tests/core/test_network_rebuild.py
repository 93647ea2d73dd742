"""Atomic topology rebuild: routing, toggles and layers never drift.

The bug class this pins (ISSUE 8): after a split/merge the network's
layers were conceptually replaceable, but routing tables, the position
map and the toggle arrays are *derived* state — rebuilding one while
preserving another lets ``feed_token`` (row-driven) and
``feed_token_scan`` (the scanning oracle) route the same token
differently. ``BalancingNetwork.rebuild`` is the only mutation path:
it validates first (a bad topology leaves the network untouched) and
swaps everything, including fresh toggles, in one step.
"""

import random
from functools import partial

import pytest

from repro.core.bitonic import bitonic_network
from repro.core.network import (
    BalancingNetwork,
    compile_topology,
    parallel_layers,
)
from repro.errors import StructureError
from tests.core.test_network_routing import feed_token_scan


def shifted(layers, offset):
    """The same wiring displaced ``offset`` wires down."""
    return [
        [(top + offset, bottom + offset) for top, bottom in layer]
        for layer in layers
    ]


def split_topology(width):
    """Two independent bitonic halves side by side (the post-split
    shape): layers plus the matching output order."""
    half = bitonic_network(width // 2)
    layers = parallel_layers(half.layers, shifted(half.layers, width // 2))
    output_order = list(half.output_order) + [
        wire + width // 2 for wire in half.output_order
    ]
    return layers, output_order


def drain(network, feed, wires):
    """Feed each entry wire through ``feed``; return the exit list."""
    return [feed(wire) for wire in wires]


class TestRebuildKeepsTableAndScanInLockstep:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_randomized_split_merge_cycle(self, seed):
        width = 8
        rng = random.Random(seed)
        merged = bitonic_network(width)
        tabled = BalancingNetwork(width, merged.layers, merged.output_order)
        scanned = BalancingNetwork(width, merged.layers, merged.output_order)

        def burst():
            wires = [rng.randrange(width) for _ in range(rng.randrange(40, 120))]
            table_out = drain(tabled, tabled.feed_token, wires)
            scan_out = drain(scanned, partial(feed_token_scan, scanned), wires)
            assert table_out == scan_out
            assert tabled.output_counts == scanned.output_counts

        burst()  # merged
        split_layers, split_order = split_topology(width)
        tabled.rebuild(split_layers, split_order)
        scanned.rebuild(split_layers, split_order)
        burst()  # split halves
        tabled.rebuild(merged.layers, merged.output_order)
        scanned.rebuild(merged.layers, merged.output_order)
        burst()  # merged again

    def test_rebuild_resets_toggles(self):
        network = BalancingNetwork(2, [[(0, 1)]], [0, 1])
        assert network.feed_token(0) == 0  # toggle now points bottom
        network.rebuild([[(0, 1)]], [0, 1])
        # A stale toggle would send this token bottom; the rebuild's
        # fresh toggle sends it top again.
        assert network.feed_token(0) == 0

    def test_rebuild_preserves_cumulative_output_counts(self):
        network = BalancingNetwork(2, [[(0, 1)]], [0, 1])
        network.feed_token(0)
        network.feed_token(0)
        assert network.output_counts == [1, 1]
        network.rebuild([[(0, 1)]], [0, 1])
        network.feed_token(0)
        assert network.output_counts == [2, 1]


class TestRebuildValidatesBeforeSwapping:
    @pytest.mark.parametrize(
        "layers,order,message",
        [
            ([[(0, 1)], [(2, 2)]], None, "a wire appears twice"),
            ([[(0, 9)]], None, "wire id out of range"),
            ([[(0, 1)]], [0, 0, 1, 1, 2, 3, 4, 5], "must be a permutation"),
        ],
    )
    def test_failed_rebuild_leaves_the_network_untouched(
        self, layers, order, message
    ):
        width = 8
        base = bitonic_network(width)
        network = BalancingNetwork(width, base.layers, base.output_order)
        twin = BalancingNetwork(width, base.layers, base.output_order)
        network.feed_token(3)
        twin.feed_token(3)
        with pytest.raises(StructureError, match=message):
            network.rebuild(layers, order)
        # Same layers, same routing, same (unreset) toggles: the failed
        # rebuild must not have swapped anything — including toggles.
        wires = [wire % width for wire in range(37)]
        assert drain(network, network.feed_token, wires) == drain(
            twin, twin.feed_token, wires
        )
        assert network.layers == twin.layers
        assert network.output_counts == twin.output_counts


class TestCompiledTopology:
    def test_network_and_topology_agree(self):
        base = bitonic_network(16)
        assert base.topology.depth == base.depth
        assert base.topology.num_balancers == base.num_balancers
        assert list(base.topology.output_order) == base.output_order

    def test_compile_is_pure_validation_first(self):
        with pytest.raises(StructureError, match="must be a permutation"):
            compile_topology(4, [[(0, 1)]], [0, 1, 2, 2])
