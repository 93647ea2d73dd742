"""Property tests pinning the hop-row fast path to the old balancer-scan
semantics (:func:`feed_token_scan`, the oracle), and the ``feed_counts``
input validation."""

import random

import pytest

from repro.core.bitonic import bitonic_network
from repro.core.components import balanced_counts
from repro.core.network import BalancingNetwork
from repro.core.periodic import periodic_network
from repro.errors import StructureError


def random_network(rng, width):
    """A builder of one random layered network (:func:`random_topology`)."""
    layers, order = random_topology(rng, width)
    return lambda: BalancingNetwork(width, layers, order)


def random_topology(rng, width):
    """Random ``(layers, output_order)``: each layer pairs up a random
    subset of wires (including layers that leave some wires untouched)."""
    layers = []
    for _ in range(rng.randrange(1, 8)):
        wires = list(range(width))
        rng.shuffle(wires)
        keep = rng.randrange(0, width // 2 + 1)
        layer = []
        for i in range(keep):
            a, b = wires[2 * i], wires[2 * i + 1]
            layer.append((min(a, b), max(a, b)))
        layers.append(layer)
    order = list(range(width))
    rng.shuffle(order)
    return layers, order


def feed_token_scan(net, wire):
    """``BalancingNetwork.feed_token`` by scanning every balancer of every
    layer for the one touching the current wire (O(width * depth) a
    token), on the same toggles and counters: the oracle the hop rows
    must match bit for bit."""
    if not 0 <= wire < net.width:
        raise StructureError("input wire %d out of range" % wire)
    current = wire
    for layer, toggles in zip(net.layers, net._toggles):
        for index, (top, bottom) in enumerate(layer):
            if current in (top, bottom):
                exit_top = toggles[index] % 2 == 0
                toggles[index] += 1
                current = top if exit_top else bottom
                break
    position = net.output_order.index(current)
    net.output_counts.increment(position)
    return position


def reference_feed_counts(net, input_counts):
    """The pre-routing-table ``feed_counts`` loop, verbatim (no zero
    skip), run against the same layers/toggles representation."""
    on_wire = list(input_counts)
    for layer, toggles in zip(net.layers, net._toggles):
        for index, (top, bottom) in enumerate(layer):
            arriving = on_wire[top] + on_wire[bottom]
            out_top, out_bottom = balanced_counts(toggles[index] % 2, arriving, 2)
            toggles[index] += arriving
            on_wire[top], on_wire[bottom] = out_top, out_bottom
    batch = [on_wire[wire] for wire in net.output_order]
    for j, count in enumerate(batch):
        net.output_counts[j] += count
    return batch


class TestRoutingTableEquivalence:
    @pytest.mark.parametrize("width", [2, 8, 16, 64])
    def test_bitonic_feed_token_matches_scan(self, width):
        fast = bitonic_network(width)
        scan = bitonic_network(width)
        rng = random.Random(width)
        wires = [rng.randrange(width) for _ in range(20 * width)]
        assert [fast.feed_token(w) for w in wires] == [
            feed_token_scan(scan, w) for w in wires
        ]
        assert fast._toggles == scan._toggles
        assert fast.output_counts == scan.output_counts

    def test_random_networks_feed_token_matches_scan(self):
        rng = random.Random(7)
        for trial in range(50):
            width = rng.choice([4, 6, 8, 16])
            build = random_network(rng, width)
            fast, scan = build(), build()
            wires = [rng.randrange(width) for _ in range(100)]
            assert [fast.feed_token(w) for w in wires] == [
                feed_token_scan(scan, w) for w in wires
            ], "trial %d diverged" % trial
            assert fast._toggles == scan._toggles
            assert fast.output_counts == scan.output_counts

    def test_random_networks_feed_counts_matches_reference(self):
        rng = random.Random(11)
        for trial in range(50):
            width = rng.choice([4, 6, 8, 16])
            build = random_network(rng, width)
            new, old = build(), build()
            for _ in range(5):
                batch = [rng.randrange(6) for _ in range(width)]
                assert new.feed_counts(batch) == reference_feed_counts(old, batch), (
                    "trial %d diverged" % trial
                )
            assert new._toggles == old._toggles
            assert new.output_counts == old.output_counts

    def test_token_and_scan_paths_interleave(self):
        """The two entry points share the toggles, so they can be mixed
        mid-stream and still agree with a pure-scan run."""
        mixed = bitonic_network(8)
        pure = bitonic_network(8)
        rng = random.Random(3)
        for i in range(200):
            wire = rng.randrange(8)
            routed = (
                mixed.feed_token(wire) if i % 2 else feed_token_scan(mixed, wire)
            )
            assert routed == feed_token_scan(pure, wire)

    def test_periodic_network_equivalence(self):
        fast = periodic_network(8)
        scan = periodic_network(8)
        for wire in list(range(8)) * 10:
            assert fast.feed_token(wire) == feed_token_scan(scan, wire)

    def test_rows_follow_feed_counts_reset_and_rebuild(self):
        """The hop rows hold the toggle lists themselves, so batches step
        the state tokens read, and ``reset`` / ``rebuild`` (which rebind
        them) drop the rows. Against the scan oracle after every step:
        the outputs, every toggle, and no trace of the idle wires' spare
        counter in ``_toggles``."""
        rng = random.Random(27)
        seen = set()

        def topology(width):
            layers, order = random_topology(rng, width)
            return layers + [[(0, 1)]], order  # the last layer leaves wires 2.. idle

        for trial in range(40):
            width = rng.choice([4, 6, 8, 16])
            layers, order = topology(width)
            fast = BalancingNetwork(width, layers, order)
            scan = BalancingNetwork(width, layers, order)
            for _ in range(12):
                roll = rng.random()
                if roll < 0.45:
                    wires = [rng.randrange(width) for _ in range(rng.randrange(1, 30))]
                    assert [fast.feed_token(w) for w in wires] == [
                        feed_token_scan(scan, w) for w in wires
                    ], "trial %d diverged" % trial
                    seen.add("tokens")
                elif roll < 0.65:
                    batch = [rng.randrange(4) for _ in range(width)]
                    assert fast.feed_counts(batch) == scan.feed_counts(batch)
                    seen.add("counts")
                elif roll < 0.8:
                    fast.reset()
                    scan.reset()
                    seen.add("reset")
                else:
                    layers, order = topology(width)
                    fast.rebuild(layers, order)
                    scan.rebuild(layers, order)
                    seen.add("rebuild")
                assert fast._toggles == scan._toggles
                assert [len(toggles) for toggles in fast._toggles] == [len(layer) for layer in layers]
                assert fast.output_counts == scan.output_counts
        assert seen == {"tokens", "counts", "reset", "rebuild"}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: periodic_network(8),
            lambda: bitonic_network(16),
            # Wires 4 and 5 idle in the first layer, 0 and 1 in the second.
            lambda: BalancingNetwork(6, [[(0, 1), (2, 3)], [(2, 4), (3, 5)], [(0, 5)]], [5, 3, 1, 0, 2, 4]),
        ],
        ids=["periodic8", "bitonic16", "idle-wires"],
    )
    @pytest.mark.parametrize("tokens_first", [0, 1], ids=["even-toggles", "odd-toggles"])
    def test_inline_batch_kernel_matches_the_balanced_counts_reference(self, build, tokens_first):
        """The inline split against ``balanced_counts(toggle % 2, n, 2)``
        per balancer: dense, sparse and huge batches, from even and from
        odd toggles; outputs, every toggle and the cumulative counts."""
        new, old = build(), build()
        width = new.width
        rng = random.Random(width + tokens_first)
        if tokens_first:  # one token a wire leaves the first layer's toggles odd
            for net in (new, old):
                for wire in range(0, width, 2):
                    net.feed_token(wire)
            assert any(toggle % 2 for layer in new._toggles for toggle in layer)
        batches = [[rng.randrange(6) for _ in range(width)] for _ in range(10)]
        for _ in range(10):  # sparse: most wires 0
            sparse = [0] * width
            sparse[rng.randrange(width)] = rng.randrange(1, 4)
            batches.append(sparse)
        batches.append([2**40 + rng.randrange(3) for _ in range(width)])
        batches.append([2**41 + 1] + [0] * (width - 1))
        batches.extend([rng.randrange(4) for _ in range(width)] for _ in range(5))
        for batch in batches:
            assert new.feed_counts(batch) == reference_feed_counts(old, batch)
            assert new._toggles == old._toggles
            assert new.output_counts == old.output_counts


class TestFeedCountsValidation:
    def test_negative_count_rejected(self):
        net = bitonic_network(4)
        with pytest.raises(StructureError, match="negative input count"):
            net.feed_counts([1, -1, 0, 0])

    def test_rejected_batch_leaves_state_untouched(self):
        """A float count used to die of ``range()``'s ``TypeError`` inside
        ``balanced_counts``, a ``str`` of ``'<' not supported``; the inline
        kernel would have moved a toggle before a fraction failed."""
        net = bitonic_network(4)
        net.feed_counts([1, 2, 3, 4])
        toggles = [list(t) for t in net._toggles]
        counts = list(net.output_counts)
        for batch in (
            [5, 6, -7, 8],
            [2.0, 0, 0, 0],
            [1, 1, 1, 0.5],
            ["a", 0, 0, 0],
            [1, None, 0, 0],
            [1, 2, 3],
        ):
            with pytest.raises(StructureError):
                net.feed_counts(batch)
            assert net._toggles == toggles, batch
            assert net.output_counts == counts, batch

    def test_bool_counts_like_the_int_it_is(self):
        """``operator.index`` allows it, as ``CutNetwork.feed_counts`` does."""
        net, twin = bitonic_network(4), bitonic_network(4)
        assert net.feed_counts([True, False, 2, True]) == twin.feed_counts([1, 0, 2, 1])
        assert net._toggles == twin._toggles
        assert net.output_counts == twin.output_counts

    def test_zero_batch_is_noop(self):
        net = bitonic_network(4)
        assert net.feed_counts([0, 0, 0, 0]) == [0, 0, 0, 0]
        assert net.output_counts == [0, 0, 0, 0]


class TestFeedTokenValidation:
    """A non-integer wire is refused as ``CutNetwork.feed_token`` refuses
    it — with ``StructureError``, not the ``TypeError`` of ``row[1.5]`` or
    ``0 <= "3"`` — before any toggle moves."""

    @pytest.mark.parametrize("wire", [1.5, 3.0, "3", None, [1]], ids=repr)
    def test_non_integer_wire_rejected(self, wire):
        net = bitonic_network(8)
        for token in range(11):
            net.feed_token(token % 8)
        toggles = [list(t) for t in net._toggles]
        counts = list(net.output_counts)
        with pytest.raises(StructureError, match="is not an integer"):
            net.feed_token(wire)
        assert net._toggles == toggles
        assert net.output_counts == counts

    def test_non_integer_wire_rejected_without_layers(self):
        """With no layer to index, the output position lookup refuses it."""
        net = BalancingNetwork(2, [], [1, 0])
        for wire in (1.0, 0.5):
            with pytest.raises(StructureError, match="is not an integer"):
                net.feed_token(wire)
        assert net.output_counts == [0, 0]
        assert net.feed_token(1) == 0

    @pytest.mark.parametrize("wire", [-1, 8])
    def test_out_of_range_wire_rejected(self, wire):
        net = bitonic_network(8)
        with pytest.raises(StructureError, match="out of range"):
            net.feed_token(wire)
        assert net._toggles == [[0] * len(layer) for layer in net.layers]
        assert net.output_counts == [0] * 8

    def test_bool_wire_is_the_int_it_is(self):
        net, twin = bitonic_network(8), bitonic_network(8)
        assert net.feed_token(True) == twin.feed_token(1)
        assert net._toggles == twin._toggles
