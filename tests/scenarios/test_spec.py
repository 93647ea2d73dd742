"""Tests for the scenario spec schema and its validation."""

import json

import pytest

from repro.scenarios.spec import (
    ScenarioSpecError,
    load_spec,
    parse_spec,
    spec_file_problems,
    spec_name_for_path,
    validate_spec_data,
)

try:
    import tomllib  # noqa: F401 - availability probe only
    HAVE_TOMLLIB = True
except ImportError:  # pragma: no cover - depends on interpreter
    HAVE_TOMLLIB = False


MINIMAL = {"arrivals": {"kind": "uniform", "tokens": 50}}


class TestValidation:
    def test_minimal_spec_with_defaults(self):
        spec = parse_spec(MINIMAL, "minimal")
        assert spec.name == "minimal"
        assert spec.width == 16
        assert spec.convention == "ahs94"
        assert spec.initial_nodes == 8
        assert spec.arrivals.tokens == 50
        assert spec.churn.kind == "none"
        assert spec.app.kind == "tokens"
        assert spec.record == ("tokens",)

    def test_all_problems_reported_at_once(self):
        data = {
            "network": {"width": 48},
            "system": {"coalesce": True, "recycle_tokens": True},
            "arrivals": {"kind": "bursty", "tokens": 0},
            "churn": {"kind": "poisson"},
            "nonsense": True,
        }
        spec, problems = validate_spec_data(data, "bad")
        assert spec is None
        text = "\n".join(problems)
        assert "network.width" in text
        assert "arrivals.kind" in text
        assert "arrivals.tokens" in text
        assert "churn" in text
        assert "nonsense" in text
        # Unknown keys are rejected by dotted path, naming the valid set.
        valid = "hysteresis, initial_nodes, min_nodes, seed, step_multiplier"
        for key in ("system.coalesce", "system.recycle_tokens"):
            assert "%s: unknown field (valid: %s)" % (key, valid) in text
        # More than one problem per pass — the checker accumulates.
        assert len(problems) >= 4

    def test_problem_messages_name_the_valid_set(self):
        _, problems = validate_spec_data(
            {"arrivals": {"kind": "nope", "tokens": 1}}, "x"
        )
        assert any(
            "uniform" in p and "poisson" in p and "burst" in p and "onoff" in p
            for p in problems
        )

    def test_parse_spec_raises_with_every_problem(self):
        with pytest.raises(ScenarioSpecError) as excinfo:
            parse_spec({"arrivals": {"kind": "nope", "tokens": -1}}, "x")
        assert excinfo.value.name == "x"
        assert len(excinfo.value.problems) >= 2
        assert "arrivals.kind" in str(excinfo.value)

    def test_declared_name_must_match_registry_name(self):
        data = dict(MINIMAL, name="other")
        spec, problems = validate_spec_data(data, "this")
        assert spec is None
        assert any("does not match" in p for p in problems)

    def test_arrivals_table_required(self):
        spec, problems = validate_spec_data({}, "empty")
        assert spec is None
        assert any(p.startswith("arrivals") for p in problems)

    def test_tokens_budget_required_and_capped(self):
        _, problems = validate_spec_data({"arrivals": {"kind": "uniform"}}, "x")
        assert any("injection budget" in p for p in problems)
        _, problems = validate_spec_data(
            {"arrivals": {"kind": "uniform", "tokens": 10_000_000}}, "x"
        )
        assert any("arrivals.tokens" in p for p in problems)

    def test_onoff_requires_phases(self):
        _, problems = validate_spec_data(
            {"arrivals": {"kind": "onoff", "tokens": 10}}, "x"
        )
        assert any("arrivals.phases" in p for p in problems)

    def test_onoff_phase_shape_validated(self):
        _, problems = validate_spec_data(
            {
                "arrivals": {
                    "kind": "onoff",
                    "tokens": 10,
                    "phases": [[10.0], [5.0, -1.0]],
                }
            },
            "x",
        )
        assert any("arrivals.phases" in p for p in problems)

    def test_width_must_be_power_of_two(self):
        for width in (3, 48, 1025):
            _, problems = validate_spec_data(
                {"network": {"width": width}, "arrivals": dict(MINIMAL["arrivals"])},
                "x",
            )
            assert any("network.width" in p for p in problems), width

    def test_min_nodes_cannot_exceed_initial_nodes(self):
        data = {
            "system": {"initial_nodes": 4, "min_nodes": 8},
            "arrivals": dict(MINIMAL["arrivals"]),
        }
        _, problems = validate_spec_data(data, "x")
        assert any("system.min_nodes" in p for p in problems)

    def test_latency_weights_must_match_values(self):
        data = {
            "latency": {"kind": "discrete", "values": [1.0, 2.0], "weights": [1.0]},
            "arrivals": dict(MINIMAL["arrivals"]),
        }
        _, problems = validate_spec_data(data, "x")
        assert any("latency.weights" in p for p in problems)

    def test_a_key_outside_its_kind_is_one_problem(self):
        data = {
            "latency": {"kind": "constant", "mean": 7, "low": 3},
            "churn": {"kind": "none", "join_rate": 5},
            "arrivals": dict(MINIMAL["arrivals"]),
        }
        _, problems = validate_spec_data(data, "x")
        assert sorted(problems) == [
            "churn.join_rate: only for kind poisson (churn.kind is 'none')",
            "latency.low: only for kind uniform (latency.kind is 'constant')",
            "latency.mean: only for kind exponential (latency.kind is 'constant')",
        ]
        # An invalid kind is reported alone: which keys it takes is unknown.
        data["latency"]["kind"] = "bogus"
        _, problems = validate_spec_data(data, "x")
        assert [p for p in problems if p.startswith("latency")] == [
            "latency.kind: got 'bogus', valid choices: "
            "constant, uniform, discrete, exponential"
        ]

    def test_record_groups_validated_and_tokens_always_on(self):
        _, problems = validate_spec_data(
            {"arrivals": dict(MINIMAL["arrivals"]), "record": ["latencies"]}, "x"
        )
        assert any("record" in p for p in problems)
        spec = parse_spec(
            {"arrivals": dict(MINIMAL["arrivals"]), "record": ["latency"]}, "x"
        )
        assert spec.record == ("tokens", "latency")

    def test_non_mapping_top_level(self):
        spec, problems = validate_spec_data([1, 2], "x")
        assert spec is None
        assert problems

    def test_with_seed_returns_reseeded_copy(self):
        spec = parse_spec(MINIMAL, "x")
        other = spec.with_seed(99)
        assert other.seed == 99
        assert spec.seed == 0
        assert other.width == spec.width


class TestLoading:
    def test_load_json_spec(self, tmp_path):
        path = tmp_path / "my_scenario.json"
        path.write_text(json.dumps(dict(MINIMAL, name="my_scenario")))
        spec = load_spec(str(path))
        assert spec.name == "my_scenario"

    def test_spec_name_for_path(self):
        assert spec_name_for_path("/a/b/flash_crowd.json") == "flash_crowd"

    def test_invalid_json_is_a_file_problem(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        problems = spec_file_problems(str(path))
        assert problems and "invalid JSON" in problems[0]
        with pytest.raises(ScenarioSpecError):
            load_spec(str(path))

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("{}")
        problems = spec_file_problems(str(path))
        assert problems and "unsupported suffix" in problems[0]

    def test_spec_file_problems_empty_for_valid_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(MINIMAL))
        assert spec_file_problems(str(path)) == []

    @pytest.mark.skipif(not HAVE_TOMLLIB, reason="tomllib needs Python 3.11+")
    def test_load_toml_spec(self, tmp_path):
        path = tmp_path / "toml_scenario.toml"
        path.write_text(
            'name = "toml_scenario"\n[arrivals]\nkind = "burst"\n'
            "tokens = 20\nbursts = 2\nspacing = 1.5\n"
        )
        spec = load_spec(str(path))
        assert spec.arrivals.kind == "burst"
        assert spec.arrivals.bursts == 2
