"""The ``repro check`` CLI subcommand end to end."""

import json
import os

import pytest

from repro.cli import main

HERE = os.path.dirname(__file__)
REPO_SRC = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir, "src", "repro"))
BAD_FIXTURE = os.path.join(HERE, "fixtures", "lint_bad.py")
MC_BAD = os.path.join(HERE, "fixtures", "mc_bad.py")


class TestCheckCommand:
    def test_certifies_bitonic_and_periodic_width4(self, capsys):
        assert main(["check", "--width", "4"]) == 0
        out = capsys.readouterr().out
        assert "PASS  BITONIC[4]" in out
        assert "PASS  PERIODIC[4]" in out
        assert "0 failed" in out

    def test_default_widths(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        for width in (2, 4, 8):
            assert "BITONIC[%d]" % width in out

    def test_miswired_convention_rejected_nonzero(self, capsys):
        assert main(["check", "--width", "4", "--convention", "paper-prose"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "RSC105" in out
        # Diagnostics name the offending target.
        assert "T_4 full cut" in out

    def test_lint_self_clean(self, capsys):
        assert main(["check", "--lint", REPO_SRC]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_lint_bad_file_nonzero_with_file_line(self, capsys):
        assert main(["check", "--lint", BAD_FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "lint_bad.py:" in out
        assert "RSC301" in out

    def test_json_output(self, capsys):
        assert main(["check", "--width", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        names = [t["name"] for t in payload["targets"]]
        assert "BITONIC[4]" in names and "PERIODIC[4]" in names

    def test_json_output_failure(self, capsys):
        assert main(["check", "--width", "4", "--convention", "paper-prose", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(d["code"] == "RSC105" for d in payload["diagnostics"])

    def test_no_certify_skips_exhaustive_pass(self, capsys):
        # The paper-prose wiring only fails certification; structural
        # checks alone accept it.
        assert main(
            ["check", "--width", "4", "--convention", "paper-prose", "--no-certify"]
        ) == 0


class TestEveryRequestedPassRuns:
    """One invocation asking for lint + model check + a sanitizer seed
    runs all three, and is red when any one of them is."""

    LINT = ["--lint", os.path.join(REPO_SRC, "errors.py")]
    MODEL_CHECK = ["--model-check", "--mc-depth", "1"]
    SANITIZE = ["--sanitize", "1", "--sanitize-scenarios", "steady_baseline"]

    def _check(self, capsys, lint=LINT, model_check=MODEL_CHECK):
        code = main(["check", "--json"] + lint + model_check + self.SANITIZE)
        payload = json.loads(capsys.readouterr().out)
        assert [p["name"] for p in payload["passes"]] == [
            "lint",
            "model-check",
            "sanitizer",
        ]
        assert len(payload["targets"]) == 3
        failed = [p["name"] for p in payload["passes"] if p["findings"]]
        return code, failed

    def test_all_three_run_and_pass(self, capsys):
        assert self._check(capsys) == (0, [])

    def test_a_lint_finding_fails_the_run(self, capsys):
        code, failed = self._check(capsys, lint=["--lint", BAD_FIXTURE])
        assert (code, failed) == (1, ["lint"])

    def test_a_model_check_finding_fails_the_run(self, capsys):
        code, failed = self._check(
            capsys, model_check=self.MODEL_CHECK + ["--mc-module", MC_BAD]
        )
        assert (code, failed) == (1, ["model-check"])

    def test_a_sanitizer_finding_fails_the_run(self, capsys, tmp_path, monkeypatch):
        from repro.staticcheck import sanitize

        def exploding_run(spec):
            raise RuntimeError("conservation violated")

        monkeypatch.setattr(sanitize, "run_scenario", exploding_run)
        monkeypatch.chdir(tmp_path)  # the divergence artifact lands here
        assert self._check(capsys) == (1, ["sanitizer"])


class TestExplainCli:
    def test_explain_known_code(self, capsys):
        assert main(["check", "--explain", "RSC105"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("RSC105")
        assert "Rationale:" in out
        assert "Example" in out

    def test_explain_normalises_case(self, capsys):
        assert main(["check", "--explain", "rsc610"]) == 0
        assert capsys.readouterr().out.startswith("RSC610")

    def test_explain_unknown_code_exits_2(self, capsys):
        assert main(["check", "--explain", "RSC999"]) == 2
        assert "RSC999" in capsys.readouterr().err


class TestRemovedSurface:
    """The static concurrency / ownership passes, the protocol-flow pass
    and the Chord explorer are gone, not deprecated: their flags are
    argparse errors, their codes unknown."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--concurrency"],
            ["--concurrency-paths", "src"],
            ["--concurrency-baseline", "BASE.txt"],
            ["--update-concurrency-baseline"],
            ["--allow-baseline-growth"],
            ["--ownership"],
            ["--ownership-paths", "src"],
            ["--thread-ready"],
            ["--explain", "RSC602"],
            ["--protocol"],
            ["--protocol-paths", "src"],
            ["--model-check", "--max-nodes", "3"],
        ],
        ids=" ".join,
    )
    def test_removed_flags_and_codes_exit_2(self, capsys, argv):
        try:
            code = main(["check"] + argv)
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""
