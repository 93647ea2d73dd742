"""Tests for the single-counter component model (paper Section 2.2)."""

from types import SimpleNamespace

import pytest

from repro.core.components import (
    ComponentState,
    balanced_count_at,
    balanced_counts,
    balanced_sum,
)
from repro.core.decomposition import DecompositionTree
from repro.errors import StructureError


@pytest.fixture
def spec8():
    return DecompositionTree(8).root


def loop_balanced_counts(start, count, width):
    """``balanced_counts`` as it stood until the batch step was written
    in closed form: one ``+= 1`` per extra token. The reference the
    rotation, the dense step and ``feed_counts`` are held to."""
    base, rem = divmod(count, width)
    counts = [base] * width
    start %= width
    for offset in range(rem):
        counts[(start + offset) % width] += 1
    return counts


class TestBalancedCounts:
    def test_zero_tokens(self):
        assert balanced_counts(0, 0, 4) == [0, 0, 0, 0]

    def test_round_robin_from_zero(self):
        assert balanced_counts(0, 6, 4) == [2, 2, 1, 1]

    def test_round_robin_from_offset(self):
        assert balanced_counts(2, 3, 4) == [1, 0, 1, 1]

    def test_start_wraps(self):
        assert balanced_counts(5, 2, 4) == [0, 1, 1, 0]

    def test_negative_count_rejected(self):
        with pytest.raises(StructureError):
            balanced_counts(0, -1, 4)

    def test_count_at_matches_list(self):
        for start in range(5):
            for count in range(13):
                full = balanced_counts(start, count, 5)
                for wire in range(5):
                    assert balanced_count_at(start, count, 5, wire) == full[wire]

    def test_closed_form_and_dense_step_equal_the_loop(self):
        """Every ``start < width <= 8`` and ``count <= 3 * width``, and the
        same cases shifted by whole laps of 2**40 tokens."""
        for width in range(1, 9):
            for start in range(width):
                for small in range(3 * width + 1):
                    for count in (small, small + 2**40 * width):
                        expected = loop_balanced_counts(start, count, width)
                        assert balanced_counts(start, count, width) == expected
                        assert balanced_counts(start + 3 * width, count, width) == expected
                        # The dense step from counter value ``start``, the
                        # tokens spread over the ports from the last one on.
                        arrived = loop_balanced_counts(width - 1, count, width)
                        state = ComponentState(
                            SimpleNamespace(width=width), start + 5 * width, {width - 1: 7}
                        )
                        assert state.route_counts(arrived) == expected
                        assert state.total == start + 5 * width + count
                        tally = {port: n for port, n in enumerate(arrived) if n}
                        tally[width - 1] = tally.get(width - 1, 0) + 7
                        assert state.arrivals == tally

    def test_balanced_sum(self):
        for total in range(20):
            full = balanced_counts(0, total, 8)
            assert balanced_sum(total, 8, range(4)) == sum(full[:4])
            assert balanced_sum(total, 8, [0, 2, 4, 6]) == sum(full[::2])


class TestComponentState:
    def test_initial_state(self, spec8):
        state = ComponentState(spec8)
        assert state.total == 0
        assert state.x == 0
        assert state.width == 8
        assert state.arrivals == {}

    def test_route_token_round_robin(self, spec8):
        state = ComponentState(spec8)
        exits = [state.route_token(0) for _ in range(10)]
        assert exits == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]
        assert state.total == 10
        assert state.x == 2

    def test_route_ignores_input_port_for_exit(self, spec8):
        a, b = ComponentState(spec8), ComponentState(spec8)
        exits_a = [a.route_token(0) for _ in range(5)]
        exits_b = [b.route_token(port) for port in (3, 1, 7, 0, 5)]
        assert exits_a == exits_b

    def test_arrival_tallies(self, spec8):
        state = ComponentState(spec8)
        for port in (3, 3, 1, 0, 3):
            state.route_token(port)
        assert state.arrivals == {3: 3, 1: 1, 0: 1}
        assert state.arrived_total() == state.total == 5

    def test_port_range_checked(self, spec8):
        state = ComponentState(spec8)
        with pytest.raises(StructureError):
            state.route_token(8)
        with pytest.raises(StructureError):
            state.route_batch({-1: 2})

    def test_route_batch_equals_tokens(self, spec8):
        tokens = ComponentState(spec8)
        batch = ComponentState(spec8)
        sequence = [0, 3, 3, 5, 1, 0, 7, 7, 7, 2]
        per_wire = [0] * 8
        for port in sequence:
            per_wire[tokens.route_token(port)] += 1
        port_counts = {}
        for port in sequence:
            port_counts[port] = port_counts.get(port, 0) + 1
        batch_out = batch.route_batch(port_counts)
        assert batch_out == per_wire
        assert batch.total == tokens.total
        assert batch.arrivals == tokens.arrivals

    def test_route_batch_from_nonzero_state(self, spec8):
        state = ComponentState(spec8, total=5, arrivals={0: 5})
        out = state.route_batch({2: 4})
        assert out == balanced_counts(5, 4, 8)
        assert state.total == 9

    def test_negative_batch_rejected(self, spec8):
        state = ComponentState(spec8)
        with pytest.raises(StructureError):
            state.route_batch({0: -2})

    def test_copy_is_deep_enough(self, spec8):
        state = ComponentState(spec8)
        state.route_token(1)
        clone = state.copy()
        clone.route_token(2)
        assert state.total == 1
        assert clone.total == 2
        assert state.arrivals == {1: 1}
