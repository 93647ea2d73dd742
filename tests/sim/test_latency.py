"""Tests for latency models."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.latency import (
    ConstantLatency,
    DiscreteLatency,
    ExponentialLatency,
    UniformLatency,
)


class TestConstantLatency:
    def test_samples_are_constant(self):
        model = ConstantLatency(2.5)
        assert [model.sample() for _ in range(5)] == [2.5] * 5

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            ConstantLatency(-1.0)


class TestUniformLatency:
    def test_in_range_and_seeded(self):
        a = UniformLatency(1.0, 3.0, random.Random(1))
        b = UniformLatency(1.0, 3.0, random.Random(1))
        samples_a = [a.sample() for _ in range(100)]
        samples_b = [b.sample() for _ in range(100)]
        assert samples_a == samples_b
        assert all(1.0 <= s <= 3.0 for s in samples_a)

    def test_invalid_range(self):
        with pytest.raises(SimulationError):
            UniformLatency(3.0, 1.0, random.Random(0))
        with pytest.raises(SimulationError):
            UniformLatency(-1.0, 1.0, random.Random(0))


class TestDiscreteLatency:
    def test_samples_drawn_from_the_value_set(self):
        values = [0.5, 1.0, 2.0]
        model = DiscreteLatency(values, random.Random(1))
        samples = [model.sample() for _ in range(200)]
        assert set(samples) <= set(values)
        # All three path classes show up in a run this long.
        assert set(samples) == set(values)

    @pytest.mark.parametrize("count", range(1, 10))
    @pytest.mark.parametrize("seed", [0, 1, 17, 2024])
    def test_draws_what_random_choice_draws(self, count, seed):
        """The unweighted draw restates ``Random.choice``: the same
        value every draw, and the rng left in the same state."""
        values = [0.25 * (index + 1) for index in range(count)]
        ours, theirs = random.Random(seed), random.Random(seed)
        model = DiscreteLatency(values, ours)
        assert [model.sample() for _ in range(300)] == [
            theirs.choice(values) for _ in range(300)
        ]
        assert ours.getstate() == theirs.getstate()

    def test_seeded_reproducible(self):
        a = DiscreteLatency([1.0, 3.0], random.Random(4))
        b = DiscreteLatency([1.0, 3.0], random.Random(4))
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_weights_bias_the_draw(self):
        model = DiscreteLatency(
            [1.0, 9.0], random.Random(2), weights=[99.0, 1.0]
        )
        samples = [model.sample() for _ in range(1000)]
        assert samples.count(1.0) > 950

    def test_single_value_degenerates_to_constant(self):
        model = DiscreteLatency([2.5], random.Random(0))
        assert [model.sample() for _ in range(5)] == [2.5] * 5

    def test_empty_values_rejected(self):
        with pytest.raises(SimulationError):
            DiscreteLatency([], random.Random(0))

    def test_negative_value_rejected(self):
        with pytest.raises(SimulationError):
            DiscreteLatency([1.0, -0.5], random.Random(0))

    def test_weights_must_match_values_one_to_one(self):
        with pytest.raises(SimulationError):
            DiscreteLatency([1.0, 2.0], random.Random(0), weights=[1.0])

    def test_all_zero_or_negative_weights_rejected(self):
        with pytest.raises(SimulationError):
            DiscreteLatency([1.0, 2.0], random.Random(0), weights=[0.0, 0.0])
        with pytest.raises(SimulationError):
            DiscreteLatency([1.0, 2.0], random.Random(0), weights=[-1.0, 2.0])


class TestExponentialLatency:
    def test_mean_approximately_right(self):
        model = ExponentialLatency(2.0, random.Random(2))
        samples = [model.sample() for _ in range(5000)]
        mean = sum(samples) / len(samples)
        assert 1.8 < mean < 2.2
        assert all(s >= 0 for s in samples)

    def test_invalid_mean(self):
        with pytest.raises(SimulationError):
            ExponentialLatency(0.0, random.Random(0))
