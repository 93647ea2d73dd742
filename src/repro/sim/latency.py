"""Message latency models.

The adaptive network's claims are about *shape* (hops, parallelism), not
absolute delay, so latency models are pluggable: constant for
deterministic tests, uniform/exponential for realism in benches.
"""

from __future__ import annotations

import random

from repro.errors import SimulationError


class LatencyModel:
    """Base class: one ``sample()`` per message."""

    def sample(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float = 1.0):
        if value < 0:
            raise SimulationError("latency cannot be negative")
        self.value = value

    def sample(self) -> float:
        return self.value


class UniformLatency(LatencyModel):
    """Latency uniform in ``[low, high]``."""

    def __init__(self, low: float, high: float, rng: random.Random):
        if not 0 <= low <= high:
            raise SimulationError("need 0 <= low <= high")
        self.low = low
        self.high = high
        self.rng = rng

    def sample(self) -> float:
        return self.rng.uniform(self.low, self.high)


class DiscreteLatency(LatencyModel):
    """Latency drawn from a small finite set of values.

    Models a network with a handful of distinct path classes (same rack,
    same site, cross-site) instead of a continuum. Besides realism, the
    small value set is what makes the simulator's calendar queue earn
    its keep at scale: messages sent at the same instant with the same
    path class arrive at the same timestamp, so events share buckets
    instead of degenerating into one bucket per event the way continuous
    latency does.

    ``weights`` (optional) biases the draw; by default all values are
    equally likely. An unweighted draw is ``rng.choice(values)`` restated
    in this frame: ``getrandbits`` of the value count's bit length,
    redrawn while out of range, so it consumes the rng exactly as
    ``Random.choice`` does and the stream is the same.
    """

    def __init__(self, values, rng: random.Random, weights=None):
        values = list(values)
        if not values:
            raise SimulationError("need at least one latency value")
        for value in values:
            if value < 0:
                raise SimulationError("latency cannot be negative")
        if weights is not None:
            weights = list(weights)
            if len(weights) != len(values):
                raise SimulationError("weights must match values one-to-one")
            if any(weight < 0 for weight in weights) or not sum(weights):
                raise SimulationError("weights must be nonnegative, not all zero")
        self.values = values
        self.weights = weights
        self.rng = rng
        self._count = len(values)
        self._bits = self._count.bit_length()

    def sample(self) -> float:
        if self.weights is not None:
            return self.rng.choices(self.values, weights=self.weights, k=1)[0]
        getrandbits = self.rng.getrandbits
        count = self._count
        bits = self._bits
        index = getrandbits(bits)
        while index >= count:
            index = getrandbits(bits)
        return self.values[index]


class ExponentialLatency(LatencyModel):
    """Exponentially distributed latency with the given mean."""

    def __init__(self, mean: float, rng: random.Random):
        if mean <= 0:
            raise SimulationError("mean latency must be positive")
        self.mean = mean
        self.rng = rng

    def sample(self) -> float:
        return self.rng.expovariate(1.0 / self.mean)
