"""The schedule-perturbation sanitizer: summary diffs, both failure
codes, artifacts, the ``run_check`` / CLI wiring, and a real perturbed
scenario run.

The real tree is expected to *pass* the sanitizer (that is the point of
PR-5's invariants), so the RSC610/RSC611 paths are exercised by
substituting a crashing / nondeterministic ``run_scenario`` — the
substitution happens at the module seam the sanitizer actually calls
through.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.scenarios.registry import library_names
from repro.scenarios.spec import ScenarioSpecError
from repro.staticcheck import sanitize as sanitize_module
from repro.staticcheck.diagnostics import Report, Severity
from repro.staticcheck.runner import run_check
from repro.staticcheck.sanitize import (
    SanitizerConfig,
    SanitizerOutcome,
    _diff_keys,
    run_sanitizer,
)


def _run(events=100, mean_hops=3.5):
    """What ``run_scenario`` returns, as far as the sanitizer looks."""
    return SimpleNamespace(
        summary={
            "scenario": "synthetic",
            "systems": [{"events_run": events, "mean_hops": mean_hops}],
        }
    )


class TestFingerprint:
    def test_diff_keys_names_what_moved(self):
        first = _run(events=100).summary
        second = _run(events=101, mean_hops=4.0).summary
        assert _diff_keys(first, second) == [
            "systems.0.events_run",
            "systems.0.mean_hops",
        ]

    def test_missing_keys_and_reshaped_lists_are_named(self):
        assert _diff_keys({"a": 1}, {"a": 1, "b": None}) == ["b"]
        assert _diff_keys({"systems": [1]}, {"systems": [1, 2]}) == ["systems"]


class TestScenarioSelection:
    def test_default_sweep_keeps_large_churn(self):
        # The churn path (joins, crashes, handoff) is where schedule
        # perturbation bites hardest; the default sweep — what CI runs —
        # must never silently drop it.
        assert SanitizerConfig().scenarios is None
        assert "large_churn" in library_names()

    def test_explicit_scenarios_restrict_the_sweep(self, monkeypatch):
        ran = []

        def recording_run(spec):
            ran.append(spec.name)
            return _run()

        monkeypatch.setattr(sanitize_module, "run_scenario", recording_run)
        config = SanitizerConfig(seeds=(1,), scenarios=["large_churn"])
        report, outcome = run_sanitizer(config)
        assert report.ok
        assert outcome.runs == 1
        assert set(ran) == {"large_churn"}

    def test_default_sweep_covers_every_library_scenario(self, monkeypatch):
        ran = []

        def recording_run(spec):
            ran.append(spec.name)
            return _run()

        monkeypatch.setattr(sanitize_module, "run_scenario", recording_run)
        report, outcome = run_sanitizer(SanitizerConfig(seeds=(1,)))
        assert report.ok
        assert sorted(set(ran)) == library_names()

    def test_unknown_scenario_is_a_usage_error_listing_the_library(self):
        with pytest.raises(ScenarioSpecError) as excinfo:
            run_sanitizer(SanitizerConfig(seeds=(1,), scenarios=["warp_drive"]))
        assert "large_churn" in str(excinfo.value)


class TestRunCheckWiring:
    def _capture_config(self, monkeypatch):
        captured = {}

        def recording_sanitizer(config=None, report=None):
            captured["config"] = config
            return Report(), SanitizerOutcome(runs=1, failures=0, artifacts=[])

        monkeypatch.setattr(sanitize_module, "run_sanitizer", recording_sanitizer)
        return captured

    def test_run_check_passes_scenarios(self, monkeypatch):
        captured = self._capture_config(monkeypatch)
        run = run_check(
            sanitize_seeds=(1,), sanitize_scenarios=["large_churn"]
        )
        assert run.report.ok
        assert [p.name for p in run.passes] == ["sanitizer"]
        assert captured["config"].scenarios == ["large_churn"]

    def test_run_check_defaults_to_the_whole_library(self, monkeypatch):
        captured = self._capture_config(monkeypatch)
        run_check(sanitize_seeds=(1,))
        assert captured["config"].scenarios is None

    def test_cli_flag_reaches_the_sanitizer(self, monkeypatch):
        captured = self._capture_config(monkeypatch)
        assert (
            main(
                [
                    "check",
                    "--sanitize",
                    "1",
                    "--sanitize-scenarios",
                    "large_churn",
                    "huge_churn",
                ]
            )
            == 0
        )
        config = captured["config"]
        assert config.scenarios == ["large_churn", "huge_churn"]


class TestFailurePaths:
    def test_crash_yields_rsc610_and_artifact(self, tmp_path, monkeypatch):
        def exploding_run(spec):
            raise RuntimeError("conservation violated: 3 tokens lost")

        monkeypatch.setattr(sanitize_module, "run_scenario", exploding_run)
        config = SanitizerConfig(
            seeds=(7,),
            scenarios=["steady_baseline"],
            artifact_dir=str(tmp_path / "artifacts"),
        )
        report, outcome = run_sanitizer(config)
        assert [d.code for d in report.diagnostics] == ["RSC610"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.severity is Severity.ERROR
        assert diagnostic.component == "RSC610 steady_baseline:seed7"
        assert "conservation violated" in diagnostic.message
        assert outcome.runs == 1
        assert outcome.failures == 1
        assert len(outcome.artifacts) == 1
        with open(outcome.artifacts[0], "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["perturbation_seed"] == 7
        assert "conservation violated" in payload["error"]
        assert "traceback" in payload

    def test_nondeterminism_yields_rsc611_with_diffed_keys(
        self, tmp_path, monkeypatch
    ):
        calls = {"count": 0}

        def flaky_run(spec):
            calls["count"] += 1
            return _run(events=100 + calls["count"])

        monkeypatch.setattr(sanitize_module, "run_scenario", flaky_run)
        config = SanitizerConfig(
            seeds=(1,),
            scenarios=["steady_baseline"],
            artifact_dir=str(tmp_path / "artifacts"),
        )
        report, outcome = run_sanitizer(config)
        assert [d.code for d in report.diagnostics] == ["RSC611"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.component == "RSC611 steady_baseline:seed1"
        assert "events_run" in diagnostic.message
        assert calls["count"] == 2  # each (scenario, seed) pair runs twice
        with open(outcome.artifacts[0], "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["diverged_keys"] == ["systems.0.events_run"]
        assert payload["first"]["systems"][0]["events_run"] == 101
        assert payload["second"]["systems"][0]["events_run"] == 102

    def test_crash_on_the_second_run_only_yields_rsc611(
        self, tmp_path, monkeypatch
    ):
        calls = {"count": 0}

        def crashes_on_rerun(spec):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("dict changed size during iteration")
            return _run()

        monkeypatch.setattr(sanitize_module, "run_scenario", crashes_on_rerun)
        config = SanitizerConfig(
            seeds=(1,),
            scenarios=["steady_baseline"],
            artifact_dir=str(tmp_path / "artifacts"),
        )
        report, outcome = run_sanitizer(config)
        assert [d.code for d in report.diagnostics] == ["RSC611"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.component == "RSC611 steady_baseline:seed1"
        assert "second run under the same seed failed" in diagnostic.message
        assert "dict changed size" in diagnostic.message
        assert outcome.failures == 1
        assert os.path.basename(outcome.artifacts[0]) == (
            "divergence_steady_baseline_seed1.json"
        )
        with open(outcome.artifacts[0], "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["first"] == _run().summary
        assert "dict changed size" in payload["error"]
        assert "traceback" in payload

    def test_unwritable_artifact_dir_does_not_mask_the_finding(
        self, tmp_path, monkeypatch
    ):
        def exploding_run(spec):
            raise RuntimeError("boom")

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the artifact dir should go\n")
        monkeypatch.setattr(sanitize_module, "run_scenario", exploding_run)
        config = SanitizerConfig(
            seeds=(1,),
            scenarios=["steady_baseline"],
            artifact_dir=str(blocker),
        )
        report, outcome = run_sanitizer(config)
        assert [d.code for d in report.diagnostics] == ["RSC610"]
        assert outcome.artifacts == []


class TestRealScenario:
    def test_perturbed_scenario_is_green(self, tmp_path):
        config = SanitizerConfig(
            seeds=(1,),
            scenarios=["correlated_crashes"],
            artifact_dir=str(tmp_path / "artifacts"),
        )
        report, outcome = run_sanitizer(config)
        assert report.ok, report.format()
        assert outcome.runs == 1
        assert outcome.failures == 0
        assert outcome.artifacts == []
        assert not os.path.exists(config.artifact_dir)
