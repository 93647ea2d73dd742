"""Pass 5 (bounded model checking) — explorer, invariants, fixtures."""

import importlib.util
import os
import sys

import pytest

from repro.cli import main
from repro.runtime.system import AdaptiveCountingSystem
from repro.staticcheck.diagnostics import Severity
from repro.staticcheck.protocol import ModelCheckConfig, model_check
from repro.staticcheck.protocol.model import _default_system_factory, _runtime_schedules

HERE = os.path.dirname(__file__)
MC_BAD = os.path.join(HERE, "fixtures", "mc_bad.py")


def load_mc_bad():
    spec = importlib.util.spec_from_file_location("mc_bad_fixture", MC_BAD)
    module = importlib.util.module_from_spec(spec)
    sys.modules["mc_bad_fixture"] = module
    spec.loader.exec_module(module)
    return module


class TestConfig:
    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            ModelCheckConfig(depth=0)


class TestEnumeration:
    def test_runtime_schedules_enumerate_reconfigurations(self):
        config = ModelCheckConfig(depth=2)
        schedules, truncated = _runtime_schedules(config, _default_system_factory(config))
        assert not truncated
        ops = {op[0] for schedule in schedules for op in schedule}
        assert {"inject", "split", "merge", "add_node"} <= ops
        # merge only ever targets a component that a split took live
        for schedule in schedules:
            split_paths = set()
            for op in schedule:
                if op[0] == "split":
                    split_paths.add(op[1])
                elif op[0] == "merge":
                    assert op[1] in split_paths


class TestTruncation:
    """RSC500 "truncated" means a complete schedule was dropped. Depth 1
    has exactly three: inject, split(()), add_node."""

    def test_a_cap_equal_to_the_space_is_complete(self):
        config = ModelCheckConfig(depth=1, max_schedules=3)
        schedules, truncated = _runtime_schedules(config, _default_system_factory(config))
        assert len(schedules) == 3 and not truncated
        report = model_check(config)
        assert "RSC500" not in report.codes(), report.format()

    def test_a_smaller_cap_is_truncated(self):
        config = ModelCheckConfig(depth=1, max_schedules=2)
        schedules, truncated = _runtime_schedules(config, _default_system_factory(config))
        assert truncated
        assert [len(schedule) for schedule in schedules] == [1, 1]
        report = model_check(config)
        assert report.codes() == ["RSC500"]
        assert report.diagnostics[0].severity is Severity.WARNING
        assert "truncated at 2 schedules" in report.diagnostics[0].message


class TestDeferral:
    def test_a_deferred_split_warns_and_stops_the_schedule(self):
        def deferring_system():
            system = AdaptiveCountingSystem(width=4, seed=0)
            system.reconfig.split = lambda path: []  # never an exact point
            return system

        report = model_check(ModelCheckConfig(depth=2, system_factory=deferring_system))
        warnings = [d for d in report.diagnostics if d.code == "RSC500"]
        assert warnings and report.ok, report.format()
        assert all(d.severity is Severity.WARNING for d in warnings)
        assert "split(()) deferred" in warnings[0].message
        assert "[schedule: " in warnings[0].message


class TestRepoIsClean:
    def test_runtime_passes_small_scope(self):
        report = model_check(ModelCheckConfig(depth=3))
        assert report.diagnostics == [], report.format()


class TestFixture:
    def test_lossy_runtime_violates_token_conservation(self):
        fixture = load_mc_bad()
        report = model_check(
            ModelCheckConfig(depth=2, system_factory=fixture.system_factory)
        )
        assert "RSC504" in report.codes()
        assert not report.ok

    def test_violation_flood_is_capped(self):
        fixture = load_mc_bad()
        config = ModelCheckConfig(
            depth=2,
            max_violations_per_code=2,
            system_factory=fixture.system_factory,
        )
        report = model_check(config)
        errors = [d for d in report.errors if d.code == "RSC504"]
        assert len(errors) == 2
        assert any("suppressed" in d.message for d in report.diagnostics)

    def test_cli_exits_nonzero_on_fixture(self, capsys):
        code = main(["check", "--model-check", "--mc-module", MC_BAD])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL  bounded model check" in out
        assert "RSC504" in out

    def test_cli_rejects_a_zero_depth(self, capsys):
        assert main(["check", "--model-check", "--mc-depth", "0"]) == 2
        assert "depth" in capsys.readouterr().err


class TestCliAcceptance:
    def test_model_check_passes_on_the_repo(self, capsys):
        assert main(["check", "--model-check"]) == 0
        out = capsys.readouterr().out
        assert "PASS  bounded model check (depth 3)" in out
