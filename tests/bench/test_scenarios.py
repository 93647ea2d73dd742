"""Scenario-level bench tests: the large_churn workload.

The heavier scenarios are exercised through the harness elsewhere;
``large_churn`` gets its own file because its contract is stronger —
everything it reports except the wall-clock rate must be a pure
function of the seed, and the run must end verify-green.
"""

from repro.bench import run_bench
from repro.bench.result import WALL_CLOCK_METRIC_KEYS
from repro.bench.scenarios import bench_huge_churn, bench_large_churn

TINY = {
    "width": 8,
    "nodes": 12,
    "tokens": 120,
    "duration": 60.0,
    "join_rate": 0.1,
    "crash_rate": 0.1,
    "min_nodes": 4,
}


def strip_wall_clock(result):
    """Everything in a ScenarioResult except the timing-derived rate
    and the wall-clock metrics (schema 3 adds events_per_sec and
    peak_rss_kb to the end-to-end scenarios)."""
    metrics = {
        key: value
        for key, value in result.metrics.items()
        if key not in WALL_CLOCK_METRIC_KEYS
    }
    return (result.name, result.events, metrics)


class TestLargeChurn:
    def test_reports_churn_and_full_token_accounting(self):
        result = bench_large_churn(dict(TINY), seed=7)
        assert result.name == "large_churn"
        assert result.ops_per_sec > 0
        metrics = result.metrics
        assert metrics["joins"] + metrics["crashes"] > 0  # trace applied
        assert metrics["retired"] + metrics["dropped"] == TINY["tokens"]
        assert metrics["sim_time"] >= TINY["duration"]

    def test_same_seed_runs_are_identical(self):
        """Two same-seed runs must emit identical ``events`` and
        ``metrics`` — only ``ops_per_sec`` is wall-clock."""
        first = bench_large_churn(dict(TINY), seed=0)
        second = bench_large_churn(dict(TINY), seed=0)
        assert strip_wall_clock(first) == strip_wall_clock(second)

    def test_smoke_profile_deterministic_through_harness(self):
        """The determinism contract holds for the committed profile
        parameters, end to end through ``run_bench``."""
        first, = run_bench("smoke", seed=0, only=["large_churn"])
        second, = run_bench("smoke", seed=0, only=["large_churn"])
        assert strip_wall_clock(first) == strip_wall_clock(second)

    def test_different_seeds_diverge(self):
        # Guards against the scenario quietly ignoring its seed, which
        # would make the determinism test vacuous.
        a = bench_large_churn(dict(TINY), seed=1)
        b = bench_large_churn(dict(TINY), seed=2)
        assert strip_wall_clock(a) != strip_wall_clock(b)


TINY_HUGE = {
    "width": 8,
    "nodes": 12,
    "tokens": 120,
    "burst": 4,
    "duration": 60.0,
    "join_rate": 0.05,
    "crash_rate": 0.05,
    "min_nodes": 6,
}


class TestHugeChurnLatencyPercentiles:
    """``huge_churn`` must report simulated-latency percentiles as
    seed-pure metrics (the schema-3 contract this suite pins)."""

    def test_percentiles_reported_and_ordered(self):
        result = bench_huge_churn(dict(TINY_HUGE), seed=5)
        metrics = result.metrics
        assert metrics["latency_p50"] > 0
        assert metrics["latency_p99"] >= metrics["latency_p50"]

    def test_percentiles_are_pure_functions_of_the_seed(self):
        first = bench_huge_churn(dict(TINY_HUGE), seed=3)
        second = bench_huge_churn(dict(TINY_HUGE), seed=3)
        assert strip_wall_clock(first) == strip_wall_clock(second)
        assert (
            first.metrics["latency_p50"] == second.metrics["latency_p50"]
        )
        assert (
            first.metrics["latency_p99"] == second.metrics["latency_p99"]
        )

    def test_percentiles_are_not_wall_clock_metrics(self):
        # Fingerprint safety: the percentiles are sim-time values, so
        # they must NOT be excluded from determinism comparisons.
        assert "latency_p50" not in WALL_CLOCK_METRIC_KEYS
        assert "latency_p99" not in WALL_CLOCK_METRIC_KEYS
