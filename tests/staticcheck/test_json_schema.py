"""Stability of the ``repro check --json`` schema and the code registry.

These tests pin the machine-readable contract documented in
docs/architecture.md: the payload keys, the per-diagnostic keys, the
exit-code semantics, and the rule that every emitted code is registered
in ``KNOWN_CODES`` and documented. Changing any of these is an API
break for CI consumers and must be deliberate.
"""

import json
import os
import re

from repro.cli import main
from repro.staticcheck.diagnostics import KNOWN_CODES, Report, Severity

HERE = os.path.dirname(__file__)
REPO_ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
STATICCHECK_SRC = os.path.join(REPO_ROOT, "src", "repro", "staticcheck")
ARCHITECTURE_MD = os.path.join(REPO_ROOT, "docs", "architecture.md")

PAYLOAD_KEYS = {"ok", "targets", "passes", "diagnostics"}
TARGET_KEYS = {"name", "ok", "diagnostics"}
PASS_KEYS = {"name", "seconds", "findings", "targets"}
#: The matrix passes, then the three a flag requests, in execution order.
PASS_NAMES = ["structure", "cuts", "lint", "model-check", "sanitizer"]
DIAGNOSTIC_KEYS = {"code", "message", "source", "line", "component", "severity"}
REPORT_JSON_KEYS = {"ok", "errors", "warnings", "diagnostics"}


def emitted_codes():
    """Every RSC code literal appearing in the staticcheck sources."""
    codes = set()
    for dirpath, dirnames, filenames in os.walk(STATICCHECK_SRC):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(dirpath, name), "r", encoding="utf-8") as handle:
                codes.update(re.findall(r'"(RSC\d{3})"', handle.read()))
    return codes


class TestCodeRegistry:
    def test_every_emitted_code_is_registered(self):
        missing = emitted_codes() - set(KNOWN_CODES)
        assert not missing, "unregistered diagnostic codes: %s" % sorted(missing)

    def test_every_registered_code_is_documented(self):
        with open(ARCHITECTURE_MD, "r", encoding="utf-8") as handle:
            documented = set(re.findall(r"RSC\d{3}", handle.read()))
        missing = set(KNOWN_CODES) - documented
        assert not missing, "codes missing from docs/architecture.md: %s" % sorted(missing)

    def test_registry_covers_every_pass_family(self):
        families = {code[:4] for code in KNOWN_CODES}
        assert families == {"RSC1", "RSC2", "RSC3", "RSC5", "RSC6"}
        assert len(KNOWN_CODES) == 27

    def test_descriptions_are_single_line(self):
        for code, description in KNOWN_CODES.items():
            assert description and "\n" not in description, code

    def test_every_code_has_an_explanation(self):
        from repro.staticcheck.explain import EXPLANATIONS, explain

        assert set(EXPLANATIONS) == set(KNOWN_CODES)
        assert len(EXPLANATIONS) == 27
        for code, entry in EXPLANATIONS.items():
            assert entry.rationale and entry.example, code
            rendered = explain(code)
            assert rendered is not None and rendered.startswith(code)
        assert explain("RSC999") is None


class TestJsonPayload:
    def test_check_payload_keys_stable(self, capsys):
        assert main(["check", "--width", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == PAYLOAD_KEYS
        assert payload["targets"]
        for target in payload["targets"]:
            assert set(target) == TARGET_KEYS
        assert payload["passes"]
        for pass_summary in payload["passes"]:
            assert set(pass_summary) == PASS_KEYS
            assert pass_summary["seconds"] >= 0
        assert [p["name"] for p in payload["passes"]] == PASS_NAMES[:2]

    def test_diagnostic_keys_stable(self, capsys):
        fixture = os.path.join(HERE, "fixtures", "lint_bad.py")
        assert main(["check", "--lint", fixture, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["diagnostics"]
        for diagnostic in payload["diagnostics"]:
            assert set(diagnostic) == DIAGNOSTIC_KEYS
            assert diagnostic["code"] in KNOWN_CODES
            assert diagnostic["severity"] in {s.value for s in Severity}

    def test_requested_passes_report_via_json(self, capsys):
        assert main(["check", "--lint", os.path.join(HERE, "__init__.py"),
                     "--model-check", "--mc-depth", "2", "--sanitize", "1",
                     "--sanitize-scenarios", "steady_baseline", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in payload["passes"]] == PASS_NAMES[2:]
        names = [target["name"] for target in payload["targets"]]
        assert "bounded model check (depth 2)" in names

    def test_report_to_json_keys_stable(self):
        report = Report()
        report.add("RSC301", "m", "f.py", line=3)
        report.add("RSC500", "w", "f.py", severity=Severity.WARNING)
        payload = json.loads(report.to_json())
        assert set(payload) == REPORT_JSON_KEYS
        assert payload["errors"] == 1 and payload["warnings"] == 1


class TestExitCodes:
    def test_zero_on_clean(self):
        assert main(["check", "--width", "2"]) == 0

    def test_one_on_findings(self, capsys):
        fixture = os.path.join(HERE, "fixtures", "closure_handler_bad.py")
        assert main(["check", "--lint", fixture]) == 1
        capsys.readouterr()

    def test_two_on_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--width", "3"]) == 2
        capsys.readouterr()
        assert main(["check", "--model-check", "--mc-depth", "0"]) == 2
        capsys.readouterr()
        assert os.listdir(str(tmp_path)) == []  # nothing run, nothing written
