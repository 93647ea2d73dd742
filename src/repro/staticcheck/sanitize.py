"""Pass 6 — the schedule-perturbation sanitizer (``repro check --sanitize``).

The paper's model is asynchronous message passing: a node handles one
message at a time, and the only freedom the model leaves is the *order*
of concurrent deliveries. This module attacks exactly that freedom by
running the real system: it re-executes the scenario library
(:mod:`repro.scenarios`) through ``run_scenario`` inside
:func:`~repro.sim.events.shuffled_ties`, so same-instant events run in
a seeded-random order instead of FIFO. Every shuffled order is still a
*legal* schedule (time order and causality hold; only ties run
differently), so anything that breaks was relying on incidental FIFO
tie-breaking.

Two failure modes, two codes:

``RSC610`` — a perturbed schedule broke the run: an invariant check
    failed (token conservation / step property / ``verify()`` —
    ``run_scenario`` verifies every system and raises) or the scenario
    crashed outright.

``RSC611`` — the same perturbation seed did not reproduce itself: the
    second run produced a different summary, or crashed where the first
    did not, i.e. the run is not even deterministic *given* the
    schedule. That is a deeper defect than schedule sensitivity (it
    usually means iteration over an unordered container or leaked
    global state) and is reported at error severity too.

The *fingerprint* of a run is its ``ScenarioRun.summary``, which is a
pure function of the spec and the schedule (simulated time only). Two
different sanitizer seeds legitimately produce different summaries
(different tie-breaks lead to different hop counts); one seed must
reproduce its own exactly.

On failure the sanitizer writes a JSON artifact (the error, or both
summaries and the diffed keys) for CI upload.
"""

from __future__ import annotations

import json
import os
import random
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.scenarios.compile import run_scenario
from repro.scenarios.registry import get_scenario, library_names
from repro.scenarios.spec import ScenarioSpec
from repro.sim.events import shuffled_ties
from repro.staticcheck.diagnostics import Report

#: Default perturbation seeds for ``--sanitize`` with no explicit list.
DEFAULT_SANITIZE_SEEDS: Tuple[int, ...] = (1, 2, 3)

#: Where divergence artifacts land unless overridden (CI uploads this).
DEFAULT_ARTIFACT_DIR = "sanitizer-artifacts"

_MISSING = object()


@dataclass
class SanitizerConfig:
    """One sanitizer invocation's knobs."""

    seeds: Sequence[int] = DEFAULT_SANITIZE_SEEDS
    #: Library scenario names; ``None`` sweeps the whole library.
    scenarios: Optional[Sequence[str]] = None
    artifact_dir: str = DEFAULT_ARTIFACT_DIR


@dataclass
class SanitizerOutcome:
    """What happened, beyond the diagnostics: run counts for the CLI
    summary and the artifact files written."""

    runs: int = 0
    failures: int = 0
    artifacts: List[str] = field(default_factory=list)


def _diff_keys(first: Any, second: Any, prefix: str = "") -> List[str]:
    """Dotted paths at which two run summaries differ."""
    if isinstance(first, dict) and isinstance(second, dict):
        pairs = [
            (key, first.get(key, _MISSING), second.get(key, _MISSING))
            for key in sorted(set(first) | set(second))
        ]
    elif (
        isinstance(first, list)
        and isinstance(second, list)
        and len(first) == len(second)
    ):
        pairs = [
            (str(index), a, b) for index, (a, b) in enumerate(zip(first, second))
        ]
    else:
        return [] if first == second else [prefix]
    diffs: List[str] = []
    for key, a, b in pairs:
        diffs.extend(_diff_keys(a, b, "%s.%s" % (prefix, key) if prefix else key))
    return diffs


def _run_one(spec: ScenarioSpec, perturbation_seed: int) -> Dict[str, Any]:
    """One scenario execution with ties shuffled by a fresh RNG."""
    with shuffled_ties(random.Random(perturbation_seed)):
        return run_scenario(spec).summary


def _write_artifact(config: SanitizerConfig, name: str, payload: Dict) -> Optional[str]:
    try:
        os.makedirs(config.artifact_dir, exist_ok=True)
        path = os.path.join(config.artifact_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
    except OSError:
        return None  # artifact emission must never mask the finding


def run_sanitizer(
    config: Optional[SanitizerConfig] = None,
    report: Optional[Report] = None,
) -> Tuple[Report, SanitizerOutcome]:
    """Execute every selected scenario under every perturbation seed.

    Each (scenario, seed) pair runs **twice**: once to observe behaviour
    under the perturbed schedule (RSC610 on crash/invariant failure),
    once more to check the perturbed run reproduces its own summary
    (RSC611 on mismatch or on a crash the first run did not have).
    Findings are appended to ``report``. An unknown scenario name is a
    usage error (:class:`~repro.scenarios.spec.ScenarioSpecError`),
    raised before anything runs or is written.
    """
    if config is None:
        config = SanitizerConfig()
    if report is None:
        report = Report()
    outcome = SanitizerOutcome()
    names = config.scenarios if config.scenarios is not None else library_names()
    specs = [get_scenario(name) for name in names]

    def fail(code: str, scenario: str, seed: int, message: str, payload: Dict) -> None:
        outcome.failures += 1
        payload.update(scenario=scenario, perturbation_seed=seed)
        artifact = _write_artifact(
            config,
            "divergence_%s_seed%d%s.json"
            % (scenario, seed, "_crash" if code == "RSC610" else ""),
            payload,
        )
        if artifact:
            outcome.artifacts.append(artifact)
        report.add(
            code,
            message,
            "sanitizer",
            component="%s %s:seed%d" % (code, scenario, seed),
        )

    for spec in specs:
        scenario = spec.name
        for seed in config.seeds:
            outcome.runs += 1
            try:
                first = _run_one(spec, seed)
            except Exception as exc:
                fail(
                    "RSC610",
                    scenario,
                    seed,
                    "scenario %r failed under perturbation seed %d: %s — a "
                    "legal reordering of same-timestamp events broke an "
                    "invariant, so the code depends on FIFO tie-breaking"
                    % (scenario, seed, exc),
                    {"error": repr(exc), "traceback": traceback.format_exc()},
                )
                continue
            try:
                second = _run_one(spec, seed)
            except Exception as exc:
                fail(
                    "RSC611",
                    scenario,
                    seed,
                    "scenario %r is nondeterministic under perturbation seed "
                    "%d: second run under the same seed failed: %s"
                    % (scenario, seed, exc),
                    {
                        "first": first,
                        "error": repr(exc),
                        "traceback": traceback.format_exc(),
                    },
                )
                continue
            if first != second:
                diffs = _diff_keys(first, second)
                fail(
                    "RSC611",
                    scenario,
                    seed,
                    "scenario %r is nondeterministic under perturbation seed "
                    "%d: two identical runs diverged on %s — same-schedule "
                    "divergence usually means unordered-container iteration "
                    "or leaked global state"
                    % (scenario, seed, ", ".join(diffs) or "unknown keys"),
                    {"first": first, "second": second, "diverged_keys": diffs},
                )
    return report, outcome
