"""The parallel smoke matrix: run the library, pin the fingerprints.

``repro smoke`` runs every library scenario in its own worker process
(spawn context — no inherited state), with a per-scenario CPU budget
enforced inside the child (``RLIMIT_CPU`` where the platform has it)
and a wall budget enforced by the parent. Each run executes under an
installed :class:`repro.obs.recorder.Recorder` and is digested into a
*trace-hash fingerprint*:

    sha256 over the canonical JSON of
    ``{"summary": <deterministic run summary>,
       "metrics": <digest of the metrics JSONL export bytes>,
       "version": FINGERPRINT_VERSION}``

Every input to the digest is a pure function of the spec (simulated
time only, seeded randomness only), so the committed
``SCENARIO_FINGERPRINTS.json`` must reproduce byte-identically on any
machine; a mismatch is behavioural drift in the token plane, not noise.

Outcomes are classified distinctly:

=========  =====================================================
status     meaning
=========  =====================================================
ok         ran, verified, fingerprint computed
verify     invariant violation (``verify()``/step-property/protocol)
crash      any other exception in the child
timeout    wall budget exceeded (parent killed it) or CPU budget
           exceeded (kernel killed it)
drift      ok, but the fingerprint differs from the committed pin
unpinned   ok, but the scenario has no committed pin
=========  =====================================================

``--update-fingerprints`` regenerates the committed file; it refuses
if any scenario failed, so a broken run can never be pinned.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProtocolError, ReproError, StepPropertyViolation, StructureError
from repro.obs.fingerprint import digest_metrics, digest_payload
from repro.obs.recorder import Recorder, recording
from repro.scenarios.registry import LIBRARY_DIR, library_paths
from repro.scenarios.spec import load_spec, spec_name_for_path

__all__ = [
    "FINGERPRINT_VERSION",
    "FINGERPRINTS_FILE",
    "SmokeOutcome",
    "SmokeReport",
    "execute_scenario",
    "load_fingerprints",
    "write_fingerprints",
    "run_smoke",
]

#: Bumped when the fingerprint's *input shape* changes (summary fields,
#: metrics encoding), so a pin mismatch always means behavioural drift,
#: never a silent format change.
FINGERPRINT_VERSION = 1

#: Default committed pin file, resolved against the current directory
#: (the repo root in CI and normal development).
FINGERPRINTS_FILE = "SCENARIO_FINGERPRINTS.json"

#: Exceptions that mean "the run completed but the system broke its
#: invariants" — reported as ``verify``, distinct from crashes.
_VERIFY_ERRORS = (ProtocolError, StepPropertyViolation, StructureError)


def execute_scenario(path: str) -> Dict[str, Any]:
    """Run one spec file under a recorder; never raises.

    Returns a plain JSON-ready dict: ``status`` (ok/verify/crash),
    ``fingerprint`` and ``summary`` on success, ``detail`` on failure.
    """
    name = spec_name_for_path(path)
    try:
        spec = load_spec(path)
        from repro.scenarios.compile import run_scenario

        with recording(Recorder()) as recorder:
            run = run_scenario(spec)
        fingerprint = digest_payload(
            {
                "version": FINGERPRINT_VERSION,
                "summary": run.summary,
                "metrics": digest_metrics(recorder.metrics),
            }
        )
        return {
            "scenario": name,
            "status": "ok",
            "fingerprint": fingerprint,
            "summary": run.summary,
        }
    except _VERIFY_ERRORS as exc:
        return {
            "scenario": name,
            "status": "verify",
            "detail": "%s: %s" % (type(exc).__name__, exc),
        }
    except BaseException as exc:  # a smoke child reports, never raises
        return {
            "scenario": name,
            "status": "crash",
            "detail": "%s: %s\n%s"
            % (type(exc).__name__, exc, traceback.format_exc()),
        }


def _child_main(path: str, cpu_budget: float, out_path: str) -> None:
    """Worker entry point (spawn): budget, run, write the result file."""
    try:
        import resource

        limit = max(1, int(cpu_budget))
        resource.setrlimit(resource.RLIMIT_CPU, (limit, limit + 5))
    except (ImportError, ValueError, OSError):  # pragma: no cover
        pass  # no CPU rlimit on this platform; the wall budget still holds
    result = execute_scenario(path)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, sort_keys=True)


@dataclass
class SmokeOutcome:
    """One scenario's smoke verdict."""

    name: str
    status: str
    elapsed: float
    fingerprint: Optional[str] = None
    expected: Optional[str] = None
    detail: str = ""
    summary: Optional[Dict[str, Any]] = None

    @property
    def failed(self) -> bool:
        return self.status != "ok"


@dataclass
class SmokeReport:
    """The whole matrix's verdict."""

    outcomes: List[SmokeOutcome] = field(default_factory=list)
    updated: bool = False

    @property
    def ok(self) -> bool:
        return all(not outcome.failed for outcome in self.outcomes)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def format_lines(self) -> List[str]:
        lines = []
        for outcome in sorted(self.outcomes, key=lambda o: o.name):
            mark = "ok  " if not outcome.failed else outcome.status.upper()
            extra = ""
            if outcome.fingerprint:
                extra = " %s" % outcome.fingerprint[:23]
            if outcome.status == "drift" and outcome.expected:
                extra += " (pinned %s)" % outcome.expected[:23]
            if outcome.detail and outcome.failed:
                extra += "  %s" % outcome.detail.splitlines()[0][:100]
            lines.append(
                "%-30s %-8s %6.1fs%s" % (outcome.name, mark, outcome.elapsed, extra)
            )
        counts = self.counts()
        lines.append(
            "smoke: %d scenario(s): %s"
            % (
                len(self.outcomes),
                ", ".join("%d %s" % (counts[k], k) for k in sorted(counts)),
            )
        )
        return lines


def load_fingerprints(path: str) -> Dict[str, str]:
    """The committed pins; empty if the file does not exist."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if (
        not isinstance(document, dict)
        or document.get("schema") != 1
        or not isinstance(document.get("fingerprints"), dict)
    ):
        raise ReproError(
            "%s is not a schema-1 fingerprint document "
            '(expected {"schema": 1, "fingerprints": {...}})' % path
        )
    return dict(document["fingerprints"])


def write_fingerprints(path: str, fingerprints: Dict[str, str]) -> None:
    """Write the pin file (stable formatting: sorted, indented, LF)."""
    document = {"schema": 1, "fingerprints": dict(sorted(fingerprints.items()))}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _collect(
    proc: "multiprocessing.process.BaseProcess",
    name: str,
    out_path: str,
    elapsed: float,
    timed_out: bool,
) -> SmokeOutcome:
    if timed_out:
        return SmokeOutcome(
            name=name,
            status="timeout",
            elapsed=elapsed,
            detail="wall budget exceeded; worker terminated",
        )
    if not os.path.exists(out_path):
        detail = "worker died without a result (exit code %s)" % proc.exitcode
        status = "crash"
        if proc.exitcode is not None and proc.exitcode < 0:
            # Killed by a signal — SIGXCPU from the CPU rlimit lands here.
            status = "timeout"
            detail = (
                "worker killed by signal %d (CPU budget exceeded?)"
                % -proc.exitcode
            )
        return SmokeOutcome(name=name, status=status, elapsed=elapsed, detail=detail)
    with open(out_path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    return SmokeOutcome(
        name=name,
        status=result["status"],
        elapsed=elapsed,
        fingerprint=result.get("fingerprint"),
        detail=result.get("detail", ""),
        summary=result.get("summary"),
    )


def run_smoke(
    names: Optional[List[str]] = None,
    jobs: Optional[int] = None,
    wall_budget: float = 120.0,
    cpu_budget: float = 60.0,
    fingerprints_path: str = FINGERPRINTS_FILE,
    update: bool = False,
    artifacts_dir: Optional[str] = None,
    library_dir: Optional[str] = None,
) -> SmokeReport:
    """Run the matrix; compare (or regenerate) the committed pins.

    Raises :class:`ReproError` on usage errors (unknown scenario name,
    ``jobs < 1``, refusing to pin a failing run); every per-scenario
    failure is an outcome, not an exception.
    """
    paths = {
        spec_name_for_path(path): path
        for path in library_paths(library_dir or LIBRARY_DIR)
    }
    if not paths:
        raise ReproError(
            "no scenario specs found under %s" % (library_dir or LIBRARY_DIR)
        )
    if names:
        unknown = sorted(set(names) - set(paths))
        if unknown:
            raise ReproError(
                "unknown scenario(s) %s (library: %s)"
                % (", ".join(unknown), ", ".join(sorted(paths)))
            )
        selected = list(dict.fromkeys(names))
    else:
        selected = sorted(paths)
    if jobs is None:
        jobs = max(1, min(len(selected), (os.cpu_count() or 2) - 1))
    elif jobs < 1:
        raise ReproError("--jobs must be at least 1 (got %d)" % jobs)

    pinned = {} if update else load_fingerprints(fingerprints_path)

    context = multiprocessing.get_context("spawn")
    report = SmokeReport()
    pending = list(selected)
    running: List[Tuple[Any, str, str, float, float]] = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as workdir:
        while pending or running:
            while pending and len(running) < jobs:
                name = pending.pop(0)
                out_path = os.path.join(workdir, "%s.json" % name)
                proc = context.Process(
                    target=_child_main,
                    args=(paths[name], cpu_budget, out_path),
                    name="smoke-%s" % name,
                )
                proc.start()
                start = time.monotonic()
                running.append((proc, name, out_path, start, start + wall_budget))
            time.sleep(0.05)
            still_running = []
            for proc, name, out_path, start, deadline in running:
                now = time.monotonic()
                if proc.is_alive() and now < deadline:
                    still_running.append((proc, name, out_path, start, deadline))
                    continue
                timed_out = proc.is_alive()
                if timed_out:
                    proc.terminate()
                proc.join(5.0)
                if proc.is_alive():  # pragma: no cover - stuck in a syscall
                    proc.kill()
                    proc.join(5.0)
                report.outcomes.append(
                    _collect(proc, name, out_path, now - start, timed_out)
                )
            running = still_running

    # Pin comparison happens in the parent so a drift never masks the
    # child's own verdict.
    if not update:
        for outcome in report.outcomes:
            if outcome.status != "ok":
                continue
            expected = pinned.get(outcome.name)
            if expected is None:
                outcome.status = "unpinned"
                outcome.detail = (
                    "no committed fingerprint in %s (run with "
                    "--update-fingerprints to pin)" % fingerprints_path
                )
            elif expected != outcome.fingerprint:
                outcome.status = "drift"
                outcome.expected = expected
                outcome.detail = "fingerprint differs from the committed pin"

    if artifacts_dir:
        os.makedirs(artifacts_dir, exist_ok=True)
        matrix = {
            "ok": report.ok,
            "outcomes": {
                outcome.name: {
                    "status": outcome.status,
                    "elapsed_sec": round(outcome.elapsed, 3),
                    "fingerprint": outcome.fingerprint,
                    "expected": outcome.expected,
                }
                for outcome in report.outcomes
            },
        }
        with open(
            os.path.join(artifacts_dir, "smoke_report.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(matrix, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for outcome in report.outcomes:
            if not outcome.failed:
                continue
            payload = {
                "scenario": outcome.name,
                "status": outcome.status,
                "detail": outcome.detail,
                "fingerprint": outcome.fingerprint,
                "expected": outcome.expected,
                "summary": outcome.summary,
            }
            with open(
                os.path.join(artifacts_dir, "%s.json" % outcome.name),
                "w",
                encoding="utf-8",
            ) as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")

    if update:
        failed = sorted(o.name for o in report.outcomes if o.failed)
        if failed:
            raise ReproError(
                "refusing to update fingerprints: %s did not complete "
                "verify-green" % ", ".join(failed)
            )
        if names:
            # Partial update: keep existing pins for unselected scenarios.
            merged = load_fingerprints(fingerprints_path)
        else:
            merged = {}
        for outcome in report.outcomes:
            assert outcome.fingerprint is not None
            merged[outcome.name] = outcome.fingerprint
        write_fingerprints(fingerprints_path, merged)
        report.updated = True

    return report
