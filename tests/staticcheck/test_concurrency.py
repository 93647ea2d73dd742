"""Pass 6 (concurrency) static rules, contract, baseline, and CLI.

The negative fixtures under ``fixtures/`` are each crafted to trigger
exactly one RSC60x code; the tests here pin that one-finding-per-file
property, the thread-safe contract semantics (verified, not trusted),
the baseline demote/stale/revoke lifecycle, and the runner/CLI wiring.
"""

import os

import pytest

from repro.cli import main
from repro.staticcheck.concurrency import (
    SanitizerOutcome,
    apply_baseline,
    check_concurrency,
    check_source,
    finding_key,
    format_baseline,
    load_baseline,
    promote_baseline_suppressed,
)
from repro.staticcheck.concurrency.contract import BASELINE_TAG, report_stale_keys
from repro.staticcheck.diagnostics import Report, Severity
from repro.staticcheck.runner import run_check

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

RULE_CODES = ["RSC601", "RSC602", "RSC603", "RSC604", "RSC605"]


def _fixture_path(name):
    return os.path.join(FIXTURES, name)


def _check_fixture(name):
    path = _fixture_path(name)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    report = Report()
    check_source(source, path, name[: -len(".py")], report)
    return report.diagnostics


def _rule_fixtures():
    return [_fixture_path("conc_%s_bad.py" % code.lower()) for code in RULE_CODES]


class TestRuleFixtures:
    @pytest.mark.parametrize("code", RULE_CODES)
    def test_each_rule_fires_exactly_once_on_its_fixture(self, code):
        diagnostics = _check_fixture("conc_%s_bad.py" % code.lower())
        assert [d.code for d in diagnostics] == [code]
        assert diagnostics[0].severity is Severity.ERROR

    def test_finding_components_are_stable_keys(self):
        expected = {
            "RSC601": "ReplyRouter.request:ready",
            "RSC602": "WireCounter.handle_message:total",
            "RSC603": "register:REGISTRY",
            "RSC604": "TableOwner.attach:table",
            "RSC605": "EpochState.rearm:owner",
        }
        for code, tail in expected.items():
            (diagnostic,) = _check_fixture("conc_%s_bad.py" % code.lower())
            assert diagnostic.component == "%s conc_%s_bad:%s" % (
                code,
                code.lower(),
                tail,
            )

    def test_check_concurrency_accepts_explicit_file_paths(self):
        report = check_concurrency(_rule_fixtures())
        assert sorted(d.code for d in report.diagnostics) == RULE_CODES
        assert not report.ok


class TestThreadSafeContract:
    def test_justified_annotations_suppress_findings(self):
        assert _check_fixture("conc_thread_safe_ok.py") == []

    def test_bare_marker_is_flagged_not_honoured(self):
        source = (
            "# repro: thread-safe\n"
            "class Tally:\n"
            "    def __init__(self):\n"
            "        self.total = 0\n"
            "\n"
            "    def handle_message(self, message):\n"
            "        self.total += 1\n"
        )
        report = Report()
        check_source(source, "inline.py", "inline", report)
        codes = sorted(d.code for d in report.diagnostics)
        # The bare marker is reported AND the compound update is still
        # flagged: a contract without a justification is not a contract.
        assert codes == ["RSC600", "RSC602"]
        bare = [d for d in report.diagnostics if d.code == "RSC600"]
        assert bare[0].severity is Severity.WARNING

    def test_annotated_class_leaking_aliases_is_still_reported(self):
        source = (
            "# repro: thread-safe: owner confines all state to one thread\n"
            "class Leaky:\n"
            "    def __init__(self):\n"
            "        self.table = {}\n"
            "\n"
            "    def attach(self, peer):\n"
            "        peer.adopt(self.table)\n"
        )
        report = Report()
        check_source(source, "inline.py", "inline", report)
        assert [d.code for d in report.diagnostics] == ["RSC604"]
        diagnostic = report.diagnostics[0]
        assert diagnostic.severity is Severity.ERROR
        assert "contract" in diagnostic.message


class TestBaselineLifecycle:
    def test_finding_key_is_line_free(self):
        assert finding_key("RSC602", "m", "C.f", "total") == "RSC602 m:C.f:total"
        assert finding_key("RSC603", "m", "f", "") == "RSC603 m:f:-"

    def test_apply_demotes_and_reports_stale(self, tmp_path):
        report = check_concurrency([_fixture_path("conc_rsc602_bad.py")])
        path = tmp_path / "CONCURRENCY_BASELINE.txt"
        stale_key = "RSC602 gone_module:Ghost.method:total"
        path.write_text(format_baseline(report) + stale_key + "\n")

        demoted, stale = apply_baseline(report, load_baseline(str(path)))
        assert demoted.ok
        (diagnostic,) = demoted.diagnostics
        assert diagnostic.severity is Severity.WARNING
        assert diagnostic.message.endswith(BASELINE_TAG)
        assert stale == [stale_key]

        report_stale_keys(demoted, stale, str(path))
        stale_diags = [d for d in demoted.diagnostics if d.code == "RSC600"]
        assert len(stale_diags) == 1
        assert stale_key in stale_diags[0].message
        # A live (demoted) RSC602 finding remains, so stale entries are
        # only housekeeping warnings.
        assert stale_diags[0].severity is Severity.WARNING

    def test_stale_keys_are_errors_once_the_baseline_is_drained(self):
        report = Report()  # no live findings at all: baseline is drained
        stale_key = "RSC602 gone_module:Ghost.method:total"
        report_stale_keys(report, [stale_key], "BASE.txt")
        (diagnostic,) = report.diagnostics
        assert diagnostic.code == "RSC600"
        assert diagnostic.severity is Severity.ERROR
        assert "drained" in diagnostic.message

    def test_format_baseline_regeneration_is_idempotent(self):
        report = check_concurrency(_rule_fixtures())
        first = format_baseline(report)
        demoted, _ = apply_baseline(report, load_baseline_from_text(first))
        assert format_baseline(demoted) == first

    def test_promotion_revokes_the_demotion(self):
        report = check_concurrency([_fixture_path("conc_rsc602_bad.py")])
        demoted, _ = apply_baseline(
            report, {d.component for d in report.diagnostics}
        )
        assert demoted.ok
        promoted, count = promote_baseline_suppressed(demoted)
        assert count == 1
        assert not promoted.ok
        (diagnostic,) = promoted.diagnostics
        assert diagnostic.severity is Severity.ERROR
        assert "promoted to error" in diagnostic.message


def load_baseline_from_text(content):
    return {
        line.strip()
        for line in content.splitlines()
        if line.strip() and not line.strip().startswith("#")
    }


class TestRunnerWiring:
    def test_update_refuses_to_grow_the_baseline_by_default(self, tmp_path):
        baseline = str(tmp_path / "BASE.txt")
        run = run_check(
            concurrency=True,
            concurrency_paths=_rule_fixtures(),
            concurrency_baseline=baseline,
            update_concurrency_baseline=True,
        )
        assert run.baseline_written is None
        assert not os.path.exists(baseline)
        assert not run.report.ok
        refusals = [
            d
            for d in run.report.diagnostics
            if d.code == "RSC600" and "refusing to add" in d.message
        ]
        assert len(refusals) == 1
        assert "--allow-baseline-growth" in refusals[0].message

    def test_update_accepts_growth_when_explicitly_allowed(self, tmp_path):
        baseline = str(tmp_path / "BASE.txt")
        run = run_check(
            concurrency=True,
            concurrency_paths=_rule_fixtures(),
            concurrency_baseline=baseline,
            update_concurrency_baseline=True,
            allow_baseline_growth=True,
        )
        assert run.baseline_written == baseline
        assert run.report.ok

    def test_update_shrink_needs_no_growth_flag(self, tmp_path):
        baseline = str(tmp_path / "BASE.txt")
        run_check(
            concurrency=True,
            concurrency_paths=_rule_fixtures(),
            concurrency_baseline=baseline,
            update_concurrency_baseline=True,
            allow_baseline_growth=True,
        )
        # Re-regenerating against a subset of the findings only removes
        # entries; that must not require --allow-baseline-growth.
        run = run_check(
            concurrency=True,
            concurrency_paths=[_fixture_path("conc_rsc602_bad.py")],
            concurrency_baseline=baseline,
            update_concurrency_baseline=True,
        )
        assert run.baseline_written == baseline
        assert run.report.ok
        assert len(load_baseline(baseline)) == 1

    def test_update_then_rerun_is_clean(self, tmp_path):
        baseline = str(tmp_path / "BASE.txt")
        first = run_check(
            concurrency=True,
            concurrency_paths=_rule_fixtures(),
            concurrency_baseline=baseline,
            update_concurrency_baseline=True,
            allow_baseline_growth=True,
        )
        assert first.baseline_written == baseline
        # The freshly written baseline applies within the same run.
        assert first.report.ok
        second = run_check(
            concurrency=True,
            concurrency_paths=_rule_fixtures(),
            concurrency_baseline=baseline,
        )
        assert second.report.ok
        assert [p.name for p in second.passes] == ["concurrency"]
        payload = second.to_json_payload()
        assert {p["name"] for p in payload["passes"]} == {"concurrency"}
        assert payload["passes"][0]["findings"] == len(RULE_CODES)

    def test_sanitizer_failure_revokes_baseline_suppressions(
        self, tmp_path, monkeypatch
    ):
        import repro.staticcheck.concurrency as concurrency_package

        def failing_sanitizer(config=None, report=None):
            failed = Report()
            failed.add(
                "RSC610",
                "invariant broken under adversarial reordering",
                "sanitizer",
                component="RSC610 large_churn:seed1",
            )
            return failed, SanitizerOutcome(runs=2, failures=1, artifacts=[])

        monkeypatch.setattr(
            concurrency_package, "run_sanitizer", failing_sanitizer
        )

        baseline = str(tmp_path / "BASE.txt")
        run_check(
            concurrency=True,
            concurrency_paths=[_fixture_path("conc_rsc602_bad.py")],
            concurrency_baseline=baseline,
            update_concurrency_baseline=True,
            allow_baseline_growth=True,
        )
        run = run_check(
            concurrency=True,
            concurrency_paths=[_fixture_path("conc_rsc602_bad.py")],
            concurrency_baseline=baseline,
            sanitize_seeds=(1,),
        )
        assert not run.report.ok
        revoked = [
            d
            for d in run.report.diagnostics
            if d.code == "RSC602" and d.severity is Severity.ERROR
        ]
        assert len(revoked) == 1
        assert "promoted to error" in revoked[0].message
        assert any("revoked" in target.name for target in run.targets)


class TestSanitizeScenarioWiring:
    def _capture_config(self, monkeypatch):
        import repro.staticcheck.concurrency as concurrency_package

        captured = {}

        def recording_sanitizer(config=None, report=None):
            captured["config"] = config
            return Report(), SanitizerOutcome(runs=1, failures=0, artifacts=[])

        monkeypatch.setattr(
            concurrency_package, "run_sanitizer", recording_sanitizer
        )
        return captured

    def test_run_check_passes_scenarios_to_the_sanitizer(self, monkeypatch):
        captured = self._capture_config(monkeypatch)
        run = run_check(
            sanitize_seeds=(1,), sanitize_scenarios=["large_churn"]
        )
        assert run.report.ok
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


class TestExplainCli:
    def test_explain_known_code(self, capsys):
        assert main(["check", "--explain", "RSC602"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("RSC602")
        assert "Rationale:" in out
        assert "Example" in out

    def test_explain_normalises_case(self, capsys):
        assert main(["check", "--explain", "rsc610"]) == 0
        assert capsys.readouterr().out.startswith("RSC610")

    def test_explain_unknown_code_exits_2(self, capsys):
        assert main(["check", "--explain", "RSC999"]) == 2
        assert "RSC999" in capsys.readouterr().err
