"""Tests for the committed scenario library and its fingerprint pins."""

import json
import os

import pytest

from repro.scenarios.registry import (
    LIBRARY_DIR,
    get_scenario,
    library_names,
    library_paths,
    load_library,
)
from repro.scenarios.smoke import execute_scenario, load_fingerprints
from repro.scenarios.spec import (
    ScenarioSpecError,
    spec_file_problems,
    spec_name_for_path,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FINGERPRINTS = os.path.join(REPO_ROOT, "SCENARIO_FINGERPRINTS.json")

#: The scenarios the issue requires the library to ship, by exact name.
REQUIRED = {
    "flash_crowd",
    "diurnal_ramp",
    "hot_key_skew",
    "correlated_crashes",
    "network_partition",
    "join_leave_oscillation",
    "mixed_app_traffic",
    "burst_drain",
    "slow_network",
    "churn_while_splitting",
    "churn_while_merging",
    "steady_baseline",
    "large_churn",
    "huge_churn",
}

#: The two scale shapes. They run with recovery on: a dropped token means
#: the token plane lost work, so a re-pin may never accept a non-zero count.
SCALE_SPECS = {"large_churn", "huge_churn"}


class TestLibrary:
    def test_library_has_at_least_twelve_scenarios(self):
        assert len(library_names()) >= 12

    def test_required_scenarios_present(self):
        assert REQUIRED <= set(library_names())

    def test_every_committed_spec_validates(self):
        for path in library_paths():
            assert spec_file_problems(path) == [], path

    def test_committed_specs_are_json(self):
        # TOML needs Python 3.11+; the committed set must load on every
        # supported interpreter, so only user-authored specs may be TOML.
        for path in library_paths():
            assert path.endswith(".json"), path

    def test_names_match_file_stems(self):
        for name, spec in load_library().items():
            assert spec.name == name

    def test_get_scenario_unknown_name_lists_library(self):
        with pytest.raises(ScenarioSpecError) as excinfo:
            get_scenario("warp_drive")
        assert "steady_baseline" in str(excinfo.value)

    def test_library_dir_is_the_committed_one(self):
        assert os.path.basename(LIBRARY_DIR) == "library"
        assert os.path.isdir(LIBRARY_DIR)


class TestFingerprintPins:
    def test_pin_file_exists_and_is_schema_1(self):
        with open(FINGERPRINTS, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["schema"] == 1
        assert isinstance(document["fingerprints"], dict)

    def test_pins_cover_exactly_the_library(self):
        with open(FINGERPRINTS, "r", encoding="utf-8") as handle:
            pins = json.load(handle)["fingerprints"]
        assert sorted(pins) == library_names()

    def test_pins_are_prefixed_digests(self):
        with open(FINGERPRINTS, "r", encoding="utf-8") as handle:
            pins = json.load(handle)["fingerprints"]
        for name, digest in pins.items():
            assert digest.startswith("sha256:"), name
            assert len(digest) == len("sha256:") + 64, name

    @pytest.mark.parametrize("path", library_paths(), ids=spec_name_for_path)
    def test_every_library_spec_reproduces_its_pin(self, path):
        name = spec_name_for_path(path)
        result = execute_scenario(path)
        assert result["status"] == "ok", result.get("detail")
        assert result["fingerprint"] == load_fingerprints(FINGERPRINTS)[name]
        if name in SCALE_SPECS:
            for system in result["summary"]["systems"]:
                assert system["tokens"]["dropped"] == 0
