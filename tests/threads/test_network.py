"""The threaded counting network: conservation and the step property.

The hammer tests here are the satellite-4 certification: N real OS
threads through the flat-array network, then exact accounting at
quiescence — every token retired, every rank unique, per-output counts
forming the exact staircase. A sequential cross-check pins the threads
backend to the simulator backend token for token (same compiled
topology, same balancer semantics, same exits).
"""

import itertools
import sys
import threading

import pytest

from repro.core import atomics
from repro.core.bitonic import bitonic_network
from repro.core.network import BalancingNetwork, compile_topology
from repro.errors import StructureError
from repro.threads.network import (
    LockedCounterBaseline,
    ThreadedCountingNetwork,
    values_form_range,
)

THREADS = 8
OPS = 2000
LOCK_TYPE = type(threading.Lock())


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
        """Each row entry is a balancer's tick drawer and its wire pair,
        and each output wire has a rank drawer of its own: the C-level
        ``count.__next__`` under the GIL, a ``TickCounter``'s locked
        ``draw`` on a free-threaded build (forced here, since no GIL
        build takes it by itself)."""
        if not gil:
            monkeypatch.setattr(atomics, "_gil_enabled", lambda: False)
        network = ThreadedCountingNetwork(bitonic_network(8).topology)
        for row, layer in zip(network._rows, network.topology.layers):
            # Both wires of a balancer read the one pair; BITONIC has no idle wire.
            assert [pair for _, pair in row] == [
                next(pair for pair in layer if wire in pair) for wire in range(8)
            ]
        toggles = {draw for row in network._rows for draw, _ in row}
        assert len(toggles) == network.topology.num_balancers  # a toggle each
        drawers = list(toggles) + network._outputs
        owners = [draw.__self__ for draw in drawers]
        if gil:
            assert all(type(owner) is itertools.count for owner in owners)
        else:
            # Every drawer locks — the outputs, not only the toggles — and
            # each takes a lock of its own (striped, never one lock).
            assert all(type(draw).__name__ == "method" for draw in drawers)
            locks = [owner._lock for owner in owners]
            assert all(isinstance(lock, LOCK_TYPE) for lock in locks)
            assert len({id(lock) for lock in locks}) == len(drawers)
        assert len(set(map(id, owners))) == len(drawers)
        ranks = hammer(network, 4, OPS, [0, 3, 3, 6])
        assert values_form_range(ranks, 4 * OPS)
        assert network.verify(4 * OPS).ok

    def test_eight_threads_with_every_drawer_locked(self, monkeypatch):
        """The free-threaded construction path, forced, under the 8-thread hammer."""
        monkeypatch.setattr(atomics, "_gil_enabled", lambda: False)
        network = ThreadedCountingNetwork(bitonic_network(16).topology)
        total = THREADS * OPS
        ranks = hammer(network, THREADS, OPS, [tid * 2 for tid in range(THREADS)])
        assert values_form_range(ranks, total)
        assert network.verify(total).ok

    def test_an_idle_wire_passes_straight_through(self):
        # Not a counting network: one balancer a layer, so each layer
        # leaves two wires idle.
        network = ThreadedCountingNetwork(
            compile_topology(4, [[(0, 1)], [(2, 3)]], [0, 1, 2, 3])
        )
        assert network._rows[0][2] == (int, (2, 2))
        assert network._rows[1][0] == (int, (0, 0))
        assert [network.fetch_and_inc(wire) for wire in (2, 0, 0, 3)] == [2, 0, 1, 3]

    def test_locked_counter_baseline_counts_exactly(self):
        baseline = LockedCounterBaseline()
        total = THREADS * OPS
        ranks = hammer(baseline, THREADS, OPS, [0] * THREADS)
        assert values_form_range(ranks, total)
        assert baseline.verify(total).ok


@pytest.mark.skipif(not atomics._gil_enabled(), reason="the drawers lock without a GIL")
def test_a_token_is_one_python_frame():
    """Under the GIL, a ``fetch_and_inc`` on BITONIC[16] is its own frame
    and nothing else: every toggle and the output counter are C-level
    ``count.__next__``, which the profiler does not report. Counts, not
    seconds, so the gate holds on any runner (before the output counter
    became a ticker too: 2 Python calls and 1 C call a token)."""
    network = ThreadedCountingNetwork(bitonic_network(16).topology)
    fetch = network.fetch_and_inc
    counts = {"call": 0, "c_call": 0}

    def profiler(_frame, event, arg):
        if event in counts and arg is not sys.setprofile:
            counts[event] += 1

    sys.setprofile(profiler)
    try:
        for index in range(160):
            fetch(index % 16)
    finally:
        sys.setprofile(None)
    assert counts == {"call": 160, "c_call": 0}
    assert network.verify(160).ok


class TestQuiescentRead:
    """``counts()`` draws each output's next rank and re-seeds the output
    there, since a C ticker has no other non-deprecated read: reading must
    change nothing a client can see."""

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    @pytest.mark.parametrize("gil", [True, False], ids=["native", "forced-lock"])
    @pytest.mark.parametrize(
        "wires", [[0, 3, 5, 6], [4] * 4], ids=["spread", "skewed"]
    )
    def test_reading_twice_agrees_and_the_ranks_continue(self, monkeypatch, gil, wires):
        if not gil:
            monkeypatch.setattr(atomics, "_gil_enabled", lambda: False)
        network = ThreadedCountingNetwork(bitonic_network(8).topology)
        total = 4 * OPS
        ranks = hammer(network, 4, OPS, wires)
        counts, report = network.counts(), network.verify(total)
        assert network.counts() == counts
        assert network.verify(total) == report
        assert report.ok
        # Ranks handed out after the reads continue the sequence: no gap
        # where a read drew, no repeat of a rank handed out before.
        ranks += hammer(network, 4, OPS // 4, wires)
        assert values_form_range(ranks, total + OPS)
        assert network.verify(total + OPS).ok


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
