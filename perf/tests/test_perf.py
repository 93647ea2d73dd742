"""Checks on the benchmark itself (``python -m pytest perf/tests -q``).

Outside tier-1's ``testpaths``: these run every workload, at a fiftieth
of the benchmark's size, and take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf.trace import BOUNDARIES, Tracer  # noqa: E402
from perf.workloads import WORKLOADS, Region  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.02
NAMES = [workload["name"] for workload in SPEC["workloads"]]


@lru_cache(maxsize=None)
def result_line(workload: str, trace: int) -> dict:
    """The last line one run prints, as the driver reads it."""
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perf" / "run.py"),
            "--workload", workload, "--seed", "3",
            "--scale", str(SCALE), "--trace", str(trace),
        ],  # fmt: skip
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_spec_names_the_workloads_that_exist():
    assert NAMES == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_run_emits_exactly_the_declared_metrics(workload, trace, section):
    result = result_line(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_wrapper_calibration_covers_steady_deep():
    metrics = result_line("steady_deep", 1)["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["trace.overhead_ratio"]["value"] > 1.0


def run_in_process(name: str, seed: int):
    workload = WORKLOADS[name]
    budget = SPEC["run_seconds"] * SCALE
    return workload.run(workload.setup(seed, budget), seed, budget, Region())


@pytest.mark.parametrize("workload", ["burst_churn", "grow_shrink", "static_route"])
def test_digest_is_a_function_of_the_seed(workload):
    first, again, other = (run_in_process(workload, seed) for seed in (5, 5, 6))
    assert not first.problems
    assert first.counts == again.counts
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()


def test_wrappers_are_removed_after_a_traced_pass():
    def boundary_attributes():
        found = {}
        for _layer, module_name, class_name, attributes in BOUNDARIES:
            module = sys.modules[module_name]
            owner = module if class_name is None else getattr(module, class_name)
            for attribute in attributes:
                found[module_name, class_name, attribute] = owner.__dict__[attribute]
        return found

    before = boundary_attributes()
    workload = WORKLOADS["grow_shrink"]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(
            boundary_attributes()[key] is not original for key, original in before.items()
        )
        region = Region(tracer.begin, tracer.end)
        outcome = workload.run(workload.setup(1, 0.2), 1, 0.2, region)
    finally:
        tracer.uninstall()
    assert not outcome.problems
    assert tracer.span_count() > 0
    assert tracer.spans(), "membership operations are recorded in full"
    after = boundary_attributes()
    assert all(after[key] is original for key, original in before.items())
