"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo", "--width", "16", "--nodes", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "invariants verified" in out
        assert "ten counter values: [0, 1, 2" in out

    def test_tree(self, capsys):
        assert main(["tree", "--width", "8", "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert "B[8]@root" in out
        assert "<== member" in out
        assert "OUTPUT" in out

    def test_run(self, capsys):
        assert main(["run", "--width", "16", "--nodes", "6", "--tokens", "32", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "tokens=32" in out
        assert "wire   0" in out

    def test_estimate(self, capsys):
        assert main(["estimate", "--nodes", "64", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "within [N/10, 10N]" in out

    def test_unknown_command_exits(self):
        # "bench" was a command until perf/ replaced it.
        for command in ("bogus", "bench"):
            with pytest.raises(SystemExit) as excinfo:
                main([command])
            assert excinfo.value.code == 2


class TestTraceCli:
    def test_trace_exports_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.jsonl"
        code = main(["trace", "--out", str(out_path), "--metrics-out", str(metrics_path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "latency p50" in printed
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert metrics_path.exists()

    def test_trace_same_seed_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        other = tmp_path / "c.json"
        args = ["trace", "--scenario", "steady_baseline", "--seed", "3"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert main(["trace", "--scenario", "steady_baseline", "--out", str(other)]) == 0
        assert other.read_bytes() != first.read_bytes()

    def test_trace_sampling_shrinks_trace(self, tmp_path):
        dense = tmp_path / "dense.json"
        sparse = tmp_path / "sparse.json"
        args = ["trace"]  # churn_while_splitting: 300 tokens
        assert main(args + ["--out", str(dense)]) == 0
        assert main(args + ["--sample-every", "8", "--out", str(sparse)]) == 0
        import json

        dense_events = json.loads(dense.read_text())["traceEvents"]
        sparse_events = json.loads(sparse.read_text())["traceEvents"]
        assert len(sparse_events) < len(dense_events)
        # Sampled-out tokens still count in the metrics-backed counters:
        # every injection emits a tokens_in_flight counter sample.
        counter_samples = [
            e for e in sparse_events if e["name"] == "tokens_in_flight"
        ]
        assert len(counter_samples) >= 600  # one per inject + per retire

    def test_trace_rejects_bad_sample_every(self, capsys):
        assert main(["trace", "--sample-every", "0"]) == 2
        assert "sample_every" in capsys.readouterr().err

    def test_estimate_rejects_an_empty_ring(self, capsys):
        for nodes in ("0", "-5"):
            with pytest.raises(SystemExit) as usage_error:
                main(["estimate", "--nodes", nodes])
            assert usage_error.value.code == 2
            captured = capsys.readouterr()
            assert "argument --nodes: must be" in captured.err and captured.out == ""

    def test_trace_rejects_an_unknown_scenario(self, capsys):
        assert main(["trace", "--scenario", "no_such_scenario"]) == 2
        captured = capsys.readouterr()
        assert "churn_while_splitting" in captured.err and "steady_baseline" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [([command, "--width", "7"], "--width") for command in ("run", "demo", "tree")]
        + [
            (["run", "--width", "1"], "--width"),
            (["run", "--nodes", "-2"], "--nodes"),
            (["run", "--nodes", "0"], "--nodes"),
            (["run", "--tokens", "-3"], "--tokens"),
            (["demo", "--nodes", "0"], "--nodes"),
            (["estimate", "--nodes", "0"], "--nodes"),
        ],
    )
    def test_bad_sizes_are_usage_errors_not_tracebacks(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as usage_error:
            main(argv)
        assert usage_error.value.code == 2
        captured = capsys.readouterr()
        assert "argument %s: must be" % flag in captured.err and captured.out == ""
