"""The threaded counting network: conservation and the step property.

The hammer tests here are the satellite-4 certification: N real OS
threads through the flat-array network, then exact accounting at
quiescence — every token retired, every rank unique, per-output counts
forming the exact staircase. A sequential cross-check pins the threads
backend to the simulator backend token for token (same compiled
topology, same balancer semantics, same exits).
"""

import threading

import pytest

from repro.core import atomics
from repro.core.bitonic import bitonic_network
from repro.core.network import BalancingNetwork
from repro.errors import StructureError
from repro.threads.network import (
    LockedCounterBaseline,
    ThreadedCountingNetwork,
    values_form_range,
)

THREADS = 8
OPS = 2000


def hammer(target, threads, ops, entry_wires):
    """Drive ``target.fetch_and_inc`` from real threads; return all
    handed-out ranks."""
    collected = [[] for _ in range(threads)]
    gate = threading.Barrier(threads)

    def work(tid):
        record = collected[tid].append
        wire = entry_wires[tid]
        gate.wait()
        for _ in range(ops):
            record(target.fetch_and_inc(wire))

    workers = [
        threading.Thread(target=work, args=(tid,)) for tid in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return [rank for ranks in collected for rank in ranks]


class TestSequentialSemantics:
    def test_ranks_count_from_zero_without_gaps(self):
        network = ThreadedCountingNetwork(bitonic_network(8).topology)
        ranks = [network.fetch_and_inc(i % 8) for i in range(200)]
        assert values_form_range(ranks, 200)
        report = network.verify(200)
        assert report.ok
        assert report.lost_tokens == 0
        assert report.step_ok

    def test_matches_the_simulator_backend_token_for_token(self):
        base = bitonic_network(8)
        threaded = ThreadedCountingNetwork(base.topology)
        simulated = BalancingNetwork(8, base.layers, base.output_order)
        for index in range(300):
            wire = (index * 5) % 8
            rank = threaded.fetch_and_inc(wire)
            position = simulated.feed_token(wire)
            # Output j hands out ranks j, j+width, ...: the rank mod
            # width IS the output position the simulator reports.
            assert rank % 8 == position
        assert threaded.counts() == simulated.output_counts.snapshot()

    def test_out_of_range_wire_is_an_error(self):
        network = ThreadedCountingNetwork(bitonic_network(4).topology)
        with pytest.raises(StructureError, match="out of range"):
            network.fetch_and_inc(4)


class TestHammer:
    @pytest.mark.parametrize("width", [4, 8, 16])
    def test_conservation_and_step_property_at_quiescence(self, width):
        network = ThreadedCountingNetwork(bitonic_network(width).topology)
        total = THREADS * OPS
        ranks = hammer(
            network, THREADS, OPS, [tid % width for tid in range(THREADS)]
        )
        # Zero lost tokens, no duplicated or skipped rank:
        assert values_form_range(ranks, total)
        report = network.verify(total)
        assert report.ok, report
        assert report.total_retired == total
        # The staircase, spelled out:
        expected = [(total + width - 1 - j) // width for j in range(width)]
        assert list(report.per_output) == expected

    def test_single_entry_wire_still_counts_exactly(self):
        # All threads piling onto one input wire is the worst skew the
        # balancers must still spread into a legal step.
        network = ThreadedCountingNetwork(bitonic_network(8).topology)
        total = THREADS * OPS
        ranks = hammer(network, THREADS, OPS, [0] * THREADS)
        assert values_form_range(ranks, total)
        assert network.verify(total).ok

    @pytest.mark.parametrize("gil", [True, False], ids=["native", "forced-lock"])
    def test_four_threads_through_the_compiled_rows(self, monkeypatch, gil):
        """The rows hold each balancer's tick drawer: ``count.__next__``
        under the GIL, the toggle's locked ``flip`` on a free-threaded
        build (forced here, since no GIL build takes it by itself)."""
        if not gil:
            monkeypatch.setattr(atomics, "_gil_enabled", lambda: False)
        network = ThreadedCountingNetwork(bitonic_network(8).topology)
        for row, layer in zip(network._rows, network.topology.layers):
            # Both wires of a balancer read the one entry; an idle wire reads None.
            assert [entry and entry[1:] for entry in row] == [
                next((pair for pair in layer if wire in pair), None) for wire in range(8)
            ]
        draws = {entry[0] for row in network._rows for entry in row if entry}
        assert len(draws) == network.topology.num_balancers  # a toggle each
        assert all((type(draw).__name__ == "method-wrapper") == gil for draw in draws)
        ranks = hammer(network, 4, OPS, [0, 3, 3, 6])
        assert values_form_range(ranks, 4 * OPS)
        assert network.verify(4 * OPS).ok

    def test_locked_counter_baseline_counts_exactly(self):
        baseline = LockedCounterBaseline()
        total = THREADS * OPS
        ranks = hammer(baseline, THREADS, OPS, [0] * THREADS)
        assert values_form_range(ranks, total)
        assert baseline.verify(total).ok


class TestVerifyReport:
    def test_detects_lost_tokens(self):
        network = ThreadedCountingNetwork(bitonic_network(4).topology)
        for index in range(10):
            network.fetch_and_inc(index % 4)
        report = network.verify(13)  # 3 tokens never arrived
        assert not report.ok
        assert report.lost_tokens == 3
        assert not report.step_ok

    def test_values_form_range_rejects_duplicates_and_gaps(self):
        assert values_form_range([0, 1, 2, 3], 4)
        assert not values_form_range([0, 1, 1, 3], 4)  # duplicate
        assert not values_form_range([0, 1, 2, 4], 4)  # gap
        assert not values_form_range([0, 1, 2], 4)  # short

    @pytest.mark.parametrize(
        "values, total",
        [
            ([3, 0, 2, 1], 4),
            (iter([1, 0]), 2),
            ([], 0),
        ],
        ids=["unordered", "iterator", "empty"],
    )
    def test_values_form_range_accepts_exactly_the_range(self, values, total):
        assert values_form_range(values, total)

    @pytest.mark.parametrize(
        "values, total",
        [
            ([0, 1, 2, 2], 4),
            ([0, 0, 1, 2, 3], 4),
            ([0, 1, 3, 4], 4),
            ([1, 2, 3, 4], 4),
            ([-1, 0, 1, 2], 4),
            ([0, 1, 2, 3, 4], 4),
            ([0, 1, 2, 3], 5),
            ([0], 0),
            ([0, 1.5, 2, 3], 4),
            ([0, 1, None, 3], 4),
            ([0, "1", 2, 3], 4),
        ],
        ids=[
            "duplicate-last", "duplicate-extra", "gap", "gap-at-zero", "below-range",
            "above-range-long", "short", "total-zero", "fraction", "None", "str",
        ],
    )
    def test_values_form_range_rejects(self, values, total):
        assert not values_form_range(values, total)
