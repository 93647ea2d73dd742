"""Tests for the scenario compiler: lowering and deterministic runs."""

import random

from repro.scenarios.compile import (
    build_arrivals,
    build_churn,
    build_latency,
    run_scenario,
)
from repro.scenarios.spec import parse_spec
from repro.sim.latency import (
    ConstantLatency,
    DiscreteLatency,
    ExponentialLatency,
    UniformLatency,
)


def make_spec(name="inline", **overrides):
    data = {
        "network": {"width": 8},
        "system": {"initial_nodes": 4},
        "arrivals": {"kind": "uniform", "tokens": 60, "duration": 30.0},
    }
    data.update(overrides)
    return parse_spec(data, name)


class TestLowering:
    def test_latency_kinds_map_to_models(self):
        cases = {
            "constant": ConstantLatency,
            "uniform": UniformLatency,
            "discrete": DiscreteLatency,
            "exponential": ExponentialLatency,
        }
        for kind, cls in cases.items():
            spec = make_spec(latency={"kind": kind})
            model = build_latency(spec.latency, random.Random(0))
            assert isinstance(model, cls), kind

    def test_arrival_kinds_produce_budgeted_schedules(self):
        kinds = [
            {"kind": "uniform", "tokens": 40, "duration": 20.0},
            {"kind": "poisson", "tokens": 40, "rate": 2.0},
            {"kind": "burst", "tokens": 40, "bursts": 4, "spacing": 1.0},
            {
                "kind": "onoff",
                "tokens": 40,
                "phases": [[10.0, 2.0], [10.0, 6.0]],
                "cycles": 2,
            },
        ]
        for arrivals in kinds:
            spec = make_spec(arrivals=arrivals)
            times = build_arrivals(spec.arrivals, random.Random(3))
            assert times == sorted(times), arrivals["kind"]
            assert len(times) <= 40
            assert len(times) > 0

    def test_partition_lowering_is_crash_then_heal(self):
        spec = make_spec(
            system={"initial_nodes": 10},
            churn={"kind": "partition", "at": 50.0, "fraction": 0.4,
                   "heal_after": 25.0},
        )
        events = build_churn(spec.churn, random.Random(1), spec.initial_nodes)
        crashes = [e for e in events if e.action == "crash"]
        joins = [e for e in events if e.action == "join"]
        assert len(crashes) == 4 and len(joins) == 4
        assert all(e.time == 50.0 for e in crashes)
        assert all(e.time == 75.0 for e in joins)

    def test_none_churn_is_empty(self):
        spec = make_spec()
        assert build_churn(spec.churn, random.Random(1), 4) == []


class TestRunScenario:
    def test_verify_green_with_full_token_accounting(self):
        run = run_scenario(make_spec())
        tokens = run.summary["systems"][0]["tokens"]
        assert tokens["issued"] == 60
        assert tokens["unaccounted"] == 0
        assert tokens["dropped"] == 0
        assert run.summary["injected"] == 60

    def test_same_spec_same_summary(self):
        spec = make_spec(churn={"kind": "poisson", "crash_rate": 0.05})
        assert run_scenario(spec).summary == run_scenario(spec).summary

    def test_different_seed_different_summary(self):
        spec = make_spec(
            latency={"kind": "uniform", "low": 0.5, "high": 2.0},
            record=["tokens", "latency", "messages"],
        )
        a = run_scenario(spec).summary
        b = run_scenario(spec.with_seed(5)).summary
        assert a != b

    def test_record_groups_gate_summary_sections(self):
        bare = run_scenario(make_spec()).summary["systems"][0]
        assert "latency" not in bare and "pools" not in bare
        full = run_scenario(
            make_spec(record=["tokens", "latency", "messages",
                              "adaptation", "pools"])
        ).summary["systems"][0]
        assert set(full["latency"]) == {"p50", "p90", "p99"}
        assert "messages_sent" in full
        assert "splits" in full["adaptation"]
        assert set(full["pools"]) == {"envelopes", "handles"}

    def test_counter_app_yields_gap_free_values(self):
        run = run_scenario(
            make_spec(app={"kind": "counter"}, record=["tokens", "app"])
        )
        counter = run.summary["app"]["counter"]
        assert counter["values"] == 60
        assert counter["gap_free"] is True
        assert counter["outstanding"] == 0

    def test_load_balancer_app_balances_skewed_input(self):
        run = run_scenario(
            make_spec(
                arrivals={
                    "kind": "uniform",
                    "tokens": 64,
                    "duration": 32.0,
                    "wires": {"kind": "hot", "hot_wires": 1,
                              "hot_fraction": 0.9},
                },
                app={"kind": "load_balancer", "servers": 8},
                record=["tokens", "app"],
            )
        )
        balancer = run.summary["app"]["load_balancer"]
        assert sum(balancer["server_loads"]) == 64
        # 64 tokens over 8 servers through the step property: perfectly
        # divisible, so a quiescent network balances exactly.
        assert balancer["imbalance"] <= 1

    def test_producer_consumer_app_matches_supply_and_demand(self):
        run = run_scenario(
            make_spec(
                app={"kind": "producer_consumer"},
                record=["tokens", "app"],
            )
        )
        assert run.request_system is not None
        matched = run.summary["app"]["producer_consumer"]
        # 60 arrivals alternate offer/request: 30 of each, all matched.
        assert matched["matches"] == 30
        assert matched["unmatched_supply"] == 0
        assert matched["unmatched_requests"] == 0
        assert len(run.summary["systems"]) == 2

    def test_mixed_app_runs_both_counter_and_balancer(self):
        run = run_scenario(
            make_spec(
                app={"kind": "mixed", "servers": 4},
                record=["tokens", "app"],
            )
        )
        app = run.summary["app"]
        assert app["counter"]["values"] == 30
        assert sum(app["load_balancer"]["server_loads"]) == 30

    def test_churn_floor_respected(self):
        spec = make_spec(
            system={"initial_nodes": 4, "min_nodes": 3},
            churn={"kind": "poisson", "crash_rate": 0.5, "duration": 30.0},
        )
        run = run_scenario(spec)
        assert run.summary["systems"][0]["nodes"] >= 3
        assert run.summary["churn"]["skipped"] >= 0
