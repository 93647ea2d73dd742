"""Profiles, the runner, JSON emission, and the regression gate.

The JSON document (``BENCH_*.json``) has a stable shape::

    {
      "schema": 3,
      "bench_id": "BENCH_6",
      "profile": "small",
      "seed": 0,
      "scenarios": {
        "<name>": {
          "ops_per_sec": <float>,   # primary rate, regression-gated
          "events": <int>,          # seed-stable work count
          "metrics": {...}          # scenario-specific secondaries
        }
      }
    }

Schema 2 (ISSUE 5) adds ``latency_p50``/``latency_p99`` — simulated
inject-to-retire latency percentiles from the ``repro.obs`` histogram —
to the ``metrics`` of the end-to-end scenarios (``inject_to_retire``,
``large_churn``).

Schema 3 (ISSUE 9) adds ``events_per_sec`` and ``peak_rss_kb`` to the
end-to-end scenarios' metrics (both wall-clock/machine-local, excluded
from fingerprints) and introduces the ``huge_churn`` scenario plus the
``huge``/``huge_smoke`` profiles: thousands of nodes, burst injection,
discrete latency classes — the configuration the calendar-queue event
core is for.

``compare_to_baseline`` gates each scenario's ``ops_per_sec`` against a
committed baseline document: a scenario regressing by more than the
threshold fails the comparison. New scenarios are reported but never
fail; scenarios present in the baseline but missing from the run are
returned separately so the CLI can fail loudly on an accidentally
shrunken run (baselines are updated by re-running the bench and
committing the fresh document).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.bench.result import ScenarioResult
from repro.bench.scenarios import SCENARIOS
from repro.errors import BenchmarkError
from repro.obs import recorder as _obs

SCHEMA_VERSION = 3

#: Baseline schemas the regression gate still understands. Schemas 1
#: (``BENCH_4``) and 2 (``BENCH_5``) differ from 3 only by added
#: metrics and scenarios, which the gate does not read (it compares
#: ``ops_per_sec`` per scenario), so older baselines remain comparable
#: — CI uses ``BENCH_4.json`` for the instrumentation-off overhead gate.
SUPPORTED_BASELINE_SCHEMAS = (1, 2, 3)

#: This PR series' benchmark trajectory file (ISSUE 9).
BENCH_ID = "BENCH_6"

#: Per-profile scenario parameters. ``token_routing`` keeps width 64 in
#: every profile so the table-vs-scan speedup is always measured at the
#: acceptance width; the other scenarios scale with the profile.
PROFILES: Dict[str, Dict[str, Dict]] = {
    "smoke": {
        "token_routing": {"width": 64, "tokens": 4000, "repeats": 3},
        "batch_counts": {"width": 64, "batches": 200, "max_per_wire": 8, "repeats": 3},
        "inject_to_retire": {"width": 16, "nodes": 8, "tokens": 200, "churn_every": 50},
        "large_churn": {
            "width": 16,
            "nodes": 32,
            "tokens": 1000,
            "duration": 200.0,
            "join_rate": 0.05,
            "crash_rate": 0.05,
        },
        "converge": {"width": 32, "nodes": 12},
        # Tiny wheel-heavy entry so the schedule-perturbation sanitizer
        # (which runs the smoke profile) covers burst injection over
        # discrete latency classes for RSC610/611.
        "huge_churn": {
            "width": 16,
            "nodes": 24,
            "tokens": 400,
            "burst": 4,
            "duration": 100.0,
            "join_rate": 0.05,
            "crash_rate": 0.05,
            "min_nodes": 12,
        },
    },
    "small": {
        "token_routing": {"width": 64, "tokens": 20000, "repeats": 3},
        "batch_counts": {"width": 64, "batches": 1000, "max_per_wire": 16, "repeats": 3},
        "inject_to_retire": {"width": 16, "nodes": 16, "tokens": 600, "churn_every": 60},
        "large_churn": {
            "width": 32,
            "nodes": 100,
            "tokens": 8000,
            "duration": 800.0,
            "join_rate": 0.05,
            "crash_rate": 0.05,
        },
        "converge": {"width": 64, "nodes": 32},
        "huge_churn": {
            "width": 32,
            "nodes": 100,
            "tokens": 8000,
            "burst": 8,
            "duration": 1000.0,
            "join_rate": 0.05,
            "crash_rate": 0.05,
            "min_nodes": 50,
        },
    },
    "large": {
        "token_routing": {"width": 64, "tokens": 100000, "repeats": 5},
        "batch_counts": {"width": 256, "batches": 2000, "max_per_wire": 32, "repeats": 3},
        "inject_to_retire": {"width": 32, "nodes": 40, "tokens": 2500, "churn_every": 100},
        "large_churn": {
            "width": 32,
            "nodes": 300,
            "tokens": 30000,
            "duration": 3000.0,
            "join_rate": 0.05,
            "crash_rate": 0.05,
        },
        "converge": {"width": 128, "nodes": 80},
        "huge_churn": {
            "width": 64,
            "nodes": 500,
            "tokens": 100000,
            "burst": 50,
            "duration": 2000.0,
            "join_rate": 0.01,
            "crash_rate": 0.01,
            "min_nodes": 250,
        },
    },
    # The ISSUE 9 scale target: >= 2k nodes, >= 1M tokens, Poisson
    # churn. One scenario only — this is the configuration the calendar
    # queue and the envelope/handle pools exist for.
    "huge": {
        "huge_churn": {
            "width": 64,
            "nodes": 2048,
            "tokens": 1_000_000,
            "burst": 100,
            "duration": 10_000.0,
            "join_rate": 0.002,
            "crash_rate": 0.002,
            "min_nodes": 1024,
        },
    },
    # CI-sized slice of the same shape (the ``huge-smoke`` job): small
    # enough for a wall-clock cap, big enough that the wheel and the
    # pools carry real traffic.
    "huge_smoke": {
        "huge_churn": {
            "width": 64,
            "nodes": 200,
            "tokens": 100_000,
            "burst": 50,
            "duration": 2000.0,
            "join_rate": 0.005,
            "crash_rate": 0.005,
            "min_nodes": 100,
        },
    },
}


def run_bench(
    profile: str = "small",
    seed: int = 0,
    only: Optional[Iterable[str]] = None,
) -> List[ScenarioResult]:
    """Run the profile's scenarios (optionally a subset) in order.

    ``only`` may also name declarative scenarios from the
    ``repro.scenarios`` library: those are self-sizing (the spec
    carries its own budget), so profile parameters are not required and
    ``seed`` overrides the spec's seed. A default (unfiltered) run
    covers exactly the profile's hand-coded scenarios, as before.
    """
    try:
        profile_params = PROFILES[profile]
    except KeyError:
        raise BenchmarkError(
            "unknown profile %r (choose from %s)"
            % (profile, ", ".join(sorted(PROFILES)))
        ) from None
    selected = list(only) if only is not None else list(profile_params)
    runners = {}
    for name in selected:
        if name in SCENARIOS:
            if name not in profile_params:
                raise BenchmarkError(
                    "scenario %r has no parameters in profile %r" % (name, profile)
                )
            continue
        # Not a hand-coded bench scenario: try the declarative library.
        # Imported lazily so the harness stays independent of the DSL
        # package unless a DSL scenario is actually requested.
        from repro.scenarios.registry import bench_callable, get_scenario
        from repro.scenarios.spec import ScenarioSpecError

        try:
            runners[name] = bench_callable(get_scenario(name))
        except ScenarioSpecError:
            from repro.scenarios.registry import library_names

            raise BenchmarkError(
                "unknown scenario %r (bench scenarios: %s; library "
                "scenarios: %s)"
                % (
                    name,
                    ", ".join(sorted(SCENARIOS)),
                    ", ".join(library_names()),
                )
            ) from None
    results = []
    for name in selected:
        # One Chrome-trace "process" (and metadata record) per scenario
        # when a recorder is installed; free otherwise.
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.begin_section(name)
        if name in runners:
            results.append(runners[name]({}, seed))
        else:
            results.append(SCENARIOS[name](profile_params[name], seed))
    return results


def to_json_payload(
    results: List[ScenarioResult], profile: str, seed: int
) -> Dict:
    return {
        "schema": SCHEMA_VERSION,
        "bench_id": BENCH_ID,
        "profile": profile,
        "seed": seed,
        "scenarios": {result.name: result.to_json() for result in results},
    }


def compare_to_baseline(
    results: List[ScenarioResult],
    baseline: Dict,
    max_regression: float = 0.30,
) -> Tuple[bool, List[str], List[str]]:
    """Gate ``results`` against a baseline JSON document.

    Returns ``(ok, lines, missing)``: one human-readable line per
    scenario; ``ok`` is False iff any scenario regressed beyond
    ``max_regression`` (fractional, e.g. 0.30 = 30%); ``missing`` lists
    baseline scenarios absent from this run, sorted — the caller decides
    whether that is fatal (the CLI fails loudly unless the run was
    explicitly scenario-filtered).
    """
    if not isinstance(baseline, dict) or "scenarios" not in baseline:
        raise BenchmarkError("baseline document has no 'scenarios' section")
    if baseline.get("schema") not in SUPPORTED_BASELINE_SCHEMAS:
        raise BenchmarkError(
            "baseline schema %r is not supported (supported: %s)"
            % (
                baseline.get("schema"),
                ", ".join(str(s) for s in SUPPORTED_BASELINE_SCHEMAS),
            )
        )
    base_scenarios = baseline["scenarios"]
    ok = True
    lines = []
    seen = set()
    for result in results:
        seen.add(result.name)
        base = base_scenarios.get(result.name)
        if base is None:
            lines.append("%-18s NEW (no baseline entry)" % result.name)
            continue
        base_rate = float(base["ops_per_sec"])
        if base_rate <= 0:
            lines.append("%-18s SKIP (baseline rate is zero)" % result.name)
            continue
        change = result.ops_per_sec / base_rate - 1.0
        regressed = change < -max_regression
        ok = ok and not regressed
        lines.append(
            "%-18s %s %.0f -> %.0f ops/sec (%+.1f%%, threshold -%.0f%%)"
            % (
                result.name,
                "FAIL" if regressed else "ok  ",
                base_rate,
                result.ops_per_sec,
                100.0 * change,
                100.0 * max_regression,
            )
        )
    missing = sorted(set(base_scenarios) - seen)
    for name in missing:
        lines.append("%-18s MISSING from this run (baseline-only)" % name)
    return ok, lines, missing


def format_results(results: List[ScenarioResult]) -> str:
    """A human-readable table of the run."""
    lines = ["%-18s %14s %10s  %s" % ("scenario", "ops/sec", "events", "metrics")]
    for result in results:
        metrics = ", ".join(
            "%s=%s" % (key, ("%.4g" % value) if isinstance(value, float) else value)
            for key, value in sorted(result.metrics.items())
        )
        lines.append(
            "%-18s %14.0f %10d  %s"
            % (result.name, result.ops_per_sec, result.events, metrics)
        )
    return "\n".join(lines)
