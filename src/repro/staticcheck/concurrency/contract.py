"""The thread-readiness contract: annotations and the triage baseline.

Two suppression mechanisms, with different semantics:

``# repro: thread-safe: <justification>``
    A *contract comment* on a class definition line (or the line
    directly above it), or on an individual mutation statement. It
    asserts the annotated subject is safe under concurrent execution —
    a module-state swap point that only runs between simulations, a
    class whose shared state is immutable after init, a documented
    single-writer discipline. The pass **verifies rather than trusts**
    the annotation: a bare marker with no justification is flagged
    (RSC600), and an annotated class that *leaks* its mutable state to
    other objects (RSC604) is reported anyway — the contract cannot
    hold when aliases escape, so the annotation is judged violated.

``CONCURRENCY_BASELINE.txt``
    The checked-in triage ledger for findings that are *real* under
    threads but acceptable today, because the code only runs inside the
    single-threaded event loop. Each line is a finding key
    (``CODE module:qualifier:attr``). Baselined findings are demoted to
    warnings tagged ``[baseline]`` — unless the dynamic sanitizer
    failed in the same invocation, in which case the demotion is
    revoked (:func:`promote_baseline_suppressed`): a confirmed
    schedule-sensitivity means "the event loop saves us" stopped being
    an excuse. Stale entries (keys matching no current finding) are
    reported so the ledger cannot rot.
"""

from __future__ import annotations

import os
from typing import Dict, List, Set, Tuple

from repro.staticcheck.diagnostics import Report, Severity

#: The contract-comment marker, as it appears in source.
THREAD_SAFE_MARKER = "# repro: thread-safe"

#: Default baseline file name, resolved against the working directory
#: (the repo root in CI).
DEFAULT_BASELINE_NAME = "CONCURRENCY_BASELINE.txt"

#: Message tag carried by baseline-demoted findings.
BASELINE_TAG = "[baseline]"


class ThreadSafeAnnotations:
    """Parsed ``# repro: thread-safe`` markers of one source buffer."""

    def __init__(self, source: str):
        #: line number -> justification text ("" when bare).
        self.lines: Dict[int, str] = {}
        for index, text in enumerate(source.splitlines(), start=1):
            position = text.find(THREAD_SAFE_MARKER)
            if position < 0:
                continue
            remainder = text[position + len(THREAD_SAFE_MARKER):].strip()
            if remainder.startswith(":"):
                remainder = remainder[1:].strip()
            self.lines[index] = remainder

    def annotation_at(self, line: int) -> Tuple[bool, str]:
        """Whether ``line`` (or the comment line above it) is annotated,
        and the justification text."""
        for candidate in (line, line - 1):
            if candidate in self.lines:
                return True, self.lines[candidate]
        return False, ""

    def bare_markers(self) -> List[int]:
        """Marker lines with an empty justification (contract without a
        reason is not a contract)."""
        return sorted(line for line, text in self.lines.items() if not text)


def finding_key(code: str, module: str, qualifier: str, attr: str) -> str:
    """The stable identity of one finding, line-number free.

    ``module`` is the dotted module, ``qualifier`` the enclosing
    ``Class.method`` (or function, or ``<module>``), ``attr`` the
    attribute/name the finding is about (``-`` when not applicable).
    Line numbers are deliberately excluded so the baseline survives
    unrelated edits to the same file.
    """
    return "%s %s:%s:%s" % (code, module, qualifier, attr or "-")


def load_baseline(path: str) -> Set[str]:
    """Read a baseline file into a set of finding keys."""
    keys: Set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if line and not line.startswith("#"):
                keys.add(line)
    return keys


def default_baseline_path() -> str:
    return os.path.join(os.getcwd(), DEFAULT_BASELINE_NAME)


def format_baseline(report: Report) -> str:
    """Render a report's concurrency findings as baseline file content.

    Keys come from the diagnostics' ``component`` field (the concurrency
    pass stores the finding key there); already-suppressed findings are
    included too, so regeneration is idempotent.
    """
    keys = sorted(
        {
            d.component
            for d in report.diagnostics
            if d.code.startswith("RSC6") and d.component
        }
    )
    lines = [
        "# CONCURRENCY_BASELINE.txt — triaged Pass-6 (RSC6xx) findings.",
        "#",
        "# Each key is `CODE module:Class.method:attr`. A listed finding is",
        "# demoted to a warning: it is real under threads but tolerated while",
        "# the code runs only inside the single-threaded event loop. The",
        "# demotion is revoked whenever the schedule-perturbation sanitizer",
        "# fails in the same `repro check` invocation. Regenerate with:",
        "#   repro check --concurrency --update-concurrency-baseline",
        "",
    ]
    lines.extend(keys)
    return "\n".join(lines) + "\n"


def apply_baseline(report: Report, baseline: Set[str]) -> Tuple[Report, List[str]]:
    """Demote baselined findings to warnings; returns the new report and
    the stale (unmatched) baseline keys."""
    matched: Set[str] = set()
    demoted = Report()
    for diagnostic in report.diagnostics:
        key = diagnostic.component or ""
        if diagnostic.severity is Severity.ERROR and key in baseline:
            matched.add(key)
            demoted.add(
                diagnostic.code,
                "%s %s" % (diagnostic.message, BASELINE_TAG),
                diagnostic.source,
                line=diagnostic.line,
                component=diagnostic.component,
                severity=Severity.WARNING,
            )
        else:
            demoted.diagnostics.append(diagnostic)
    return demoted, sorted(baseline - matched)


def promote_baseline_suppressed(report: Report) -> Tuple[Report, int]:
    """Re-promote ``[baseline]``-tagged warnings to errors.

    Called by the runner when the dynamic sanitizer failed: a finding
    that was tolerated because "the event loop serialises everything"
    loses that defence the moment a legal schedule breaks an invariant.
    Returns the rewritten report and the number of promotions.
    """
    promoted = Report()
    count = 0
    for diagnostic in report.diagnostics:
        if (
            diagnostic.severity is Severity.WARNING
            and diagnostic.message.endswith(BASELINE_TAG)
        ):
            count += 1
            promoted.add(
                diagnostic.code,
                diagnostic.message
                + " — promoted to error: the schedule-perturbation sanitizer "
                "failed, so event-loop atomicity no longer justifies the "
                "suppression",
                diagnostic.source,
                line=diagnostic.line,
                component=diagnostic.component,
                severity=Severity.ERROR,
            )
        else:
            promoted.diagnostics.append(diagnostic)
    return promoted, count


def live_rule_findings(report: Report) -> int:
    """Findings from the RSC6xx *rules* (not RSC600 hygiene) in a
    report, demoted or not — the debt the baseline exists to triage."""
    return sum(
        1
        for d in report.diagnostics
        if d.code.startswith("RSC6") and d.code != "RSC600"
    )


def report_stale_keys(report: Report, stale: List[str], baseline_path: str) -> None:
    """Report baseline keys no current finding matches.

    While live RSC6xx findings remain, a stale entry is a warning (the
    ledger is mid-drain and someone paid down a finding without
    deleting its key). Once the surface is clean — zero live findings —
    the baseline's job is done and any remaining entry is an **error**:
    the drained-to-empty state is a ratchet, and a file that silently
    re-grows entries would re-open the triage door the thread-readiness
    contract closed.
    """
    severity = (
        Severity.WARNING if live_rule_findings(report) else Severity.ERROR
    )
    for key in stale:
        suffix = (
            ""
            if severity is Severity.WARNING
            else " — the baseline is drained, so leftover entries are errors"
        )
        report.add(
            "RSC600",
            "stale baseline entry %r matches no current finding; remove it "
            "from %s%s" % (key, os.path.basename(baseline_path), suffix),
            baseline_path,
            severity=severity,
        )
