"""Tests for the parallel smoke matrix and its fingerprint pinning."""

import json
import os

import pytest

import repro.scenarios.compile as compile_module
from repro.cli import main
from repro.errors import ProtocolError, ReproError
from repro.scenarios.smoke import (
    execute_scenario,
    load_fingerprints,
    run_smoke,
    write_fingerprints,
)

TINY = {
    "network": {"width": 4},
    "system": {"initial_nodes": 2},
    "arrivals": {"kind": "uniform", "tokens": 20, "duration": 10.0},
}


def write_spec(directory, name, data=None):
    data = dict(TINY if data is None else data)
    data["name"] = name
    path = os.path.join(str(directory), "%s.json" % name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path


@pytest.fixture
def library(tmp_path):
    directory = tmp_path / "library"
    directory.mkdir()
    write_spec(directory, "alpha")
    beta = dict(TINY)
    beta["arrivals"] = {"kind": "burst", "tokens": 24, "bursts": 3,
                        "spacing": 2.0}
    write_spec(directory, "beta", beta)
    return str(directory)


class TestExecuteScenario:
    def test_ok_run_reports_fingerprint(self, tmp_path):
        path = write_spec(tmp_path, "alpha")
        result = execute_scenario(path)
        assert result["status"] == "ok"
        assert result["fingerprint"].startswith("sha256:")
        assert result["summary"]["systems"][0]["tokens"]["unaccounted"] == 0

    def test_fingerprint_is_deterministic(self, tmp_path):
        path = write_spec(tmp_path, "alpha")
        assert (
            execute_scenario(path)["fingerprint"]
            == execute_scenario(path)["fingerprint"]
        )

    def test_verify_failures_are_distinct_from_crashes(
        self, tmp_path, monkeypatch
    ):
        path = write_spec(tmp_path, "alpha")

        def broken(spec):
            raise ProtocolError("token conservation violated")

        monkeypatch.setattr(compile_module, "run_scenario", broken)
        result = execute_scenario(path)
        assert result["status"] == "verify"
        assert "token conservation" in result["detail"]

        def crashing(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(compile_module, "run_scenario", crashing)
        result = execute_scenario(path)
        assert result["status"] == "crash"
        assert "boom" in result["detail"]

    def test_invalid_spec_is_a_crash_not_an_exception(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"arrivals": {"kind": "nope"}}')
        result = execute_scenario(str(path))
        assert result["status"] == "crash"
        assert "arrivals.kind" in result["detail"]


class TestRunSmoke:
    def test_update_then_verify_round_trip(self, tmp_path, library):
        pins = str(tmp_path / "pins.json")
        report = run_smoke(
            fingerprints_path=pins, update=True, library_dir=library, jobs=2
        )
        assert report.ok and report.updated
        assert sorted(load_fingerprints(pins)) == ["alpha", "beta"]

        second = run_smoke(fingerprints_path=pins, library_dir=library, jobs=2)
        assert second.ok
        assert {o.status for o in second.outcomes} == {"ok"}

    def test_drift_detected_when_pin_differs(self, tmp_path, library):
        pins = str(tmp_path / "pins.json")
        run_smoke(fingerprints_path=pins, update=True, library_dir=library)
        tampered = load_fingerprints(pins)
        tampered["alpha"] = "sha256:" + "0" * 64
        write_fingerprints(pins, tampered)
        report = run_smoke(fingerprints_path=pins, library_dir=library)
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses == {"alpha": "drift", "beta": "ok"}
        assert not report.ok

    def test_unpinned_scenario_fails_without_update(self, tmp_path, library):
        pins = str(tmp_path / "missing.json")
        report = run_smoke(fingerprints_path=pins, library_dir=library)
        assert {o.status for o in report.outcomes} == {"unpinned"}
        assert not report.ok

    def test_unknown_scenario_name_raises(self, tmp_path, library):
        with pytest.raises(ReproError) as excinfo:
            run_smoke(
                names=["gamma"],
                fingerprints_path=str(tmp_path / "p.json"),
                library_dir=library,
            )
        assert "alpha" in str(excinfo.value)

    def test_update_refuses_to_pin_a_failing_run(self, tmp_path, library):
        with open(os.path.join(library, "broken.json"), "w") as handle:
            handle.write('{"arrivals": {"kind": "nope"}}')
        with pytest.raises(ReproError) as excinfo:
            run_smoke(
                fingerprints_path=str(tmp_path / "p.json"),
                update=True,
                library_dir=library,
            )
        assert "broken" in str(excinfo.value)

    def test_partial_update_keeps_other_pins(self, tmp_path, library):
        pins = str(tmp_path / "pins.json")
        run_smoke(fingerprints_path=pins, update=True, library_dir=library)
        before = load_fingerprints(pins)
        run_smoke(
            names=["alpha"],
            fingerprints_path=pins,
            update=True,
            library_dir=library,
        )
        assert load_fingerprints(pins) == before

    def test_wall_budget_timeout_is_distinct(self, tmp_path, library):
        report = run_smoke(
            names=["alpha"],
            fingerprints_path=str(tmp_path / "p.json"),
            library_dir=library,
            wall_budget=0.01,
        )
        assert report.outcomes[0].status == "timeout"
        assert "wall budget" in report.outcomes[0].detail

    def test_artifacts_written_for_failures(self, tmp_path, library):
        pins = str(tmp_path / "pins.json")
        artifacts = str(tmp_path / "artifacts")
        run_smoke(fingerprints_path=pins, update=True, library_dir=library)
        tampered = load_fingerprints(pins)
        tampered["beta"] = "sha256:" + "f" * 64
        write_fingerprints(pins, tampered)
        report = run_smoke(
            fingerprints_path=pins, library_dir=library, artifacts_dir=artifacts
        )
        assert not report.ok
        with open(os.path.join(artifacts, "smoke_report.json")) as handle:
            matrix = json.load(handle)
        assert matrix["ok"] is False
        assert matrix["outcomes"]["beta"]["status"] == "drift"
        with open(os.path.join(artifacts, "beta.json")) as handle:
            artifact = json.load(handle)
        assert artifact["expected"].startswith("sha256:f")
        assert not os.path.exists(os.path.join(artifacts, "alpha.json"))

    def test_empty_library_raises(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(ReproError):
            run_smoke(library_dir=str(empty))


class TestSmokeCli:
    def test_update_then_check_exit_codes(self, tmp_path, library, capsys):
        pins = str(tmp_path / "pins.json")
        assert main([
            "smoke", "--library", library, "--fingerprints", pins,
            "--update-fingerprints",
        ]) == 0
        out = capsys.readouterr().out
        assert "fingerprints written" in out
        assert main(["smoke", "--library", library, "--fingerprints", pins]) == 0
        assert "2 ok" in capsys.readouterr().out

    def test_drift_exits_1(self, tmp_path, library, capsys):
        pins = str(tmp_path / "pins.json")
        main(["smoke", "--library", library, "--fingerprints", pins,
              "--update-fingerprints"])
        tampered = load_fingerprints(pins)
        tampered["alpha"] = "sha256:" + "1" * 64
        write_fingerprints(pins, tampered)
        assert main(["smoke", "--library", library, "--fingerprints", pins]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, tmp_path, library, capsys):
        # Usage errors exit 2 before any worker starts; --jobs 0 used to
        # hang forever (no worker is ever admitted).
        for flags, message in (
            (["--scenario", "gamma"], "unknown scenario"),
            (["--jobs", "0"], "--jobs must be at least 1"),
        ):
            code = main([
                "smoke", "--library", library,
                "--fingerprints", str(tmp_path / "p.json"),
            ] + flags)
            assert code == 2
            assert message in capsys.readouterr().err
