"""Diagnostic model shared by all analysis passes.

A :class:`Diagnostic` is one finding: a stable error code, a message,
and a *location* — either ``source:line`` for lint findings or a
component/network label for structural findings. A :class:`Report`
collects diagnostics from any number of passes and renders them as
text (one ``location: CODE message`` line each) or JSON.

Error-code blocks
-----------------
``RSC1xx``
    Network structure (well-formedness, 0-1 certification, bounds).
``RSC2xx``
    Cut validity and cut-to-cut transitions.
``RSC3xx``
    Codebase lint rules.
``RSC5xx``
    Bounded model checking of the adaptive runtime.
``RSC6xx``
    The schedule-perturbation sanitizer (610/611).

:data:`KNOWN_CODES` is the authoritative registry: every code any pass
may emit, with a one-line meaning. The JSON schema test asserts that
the set of codes in the source, this registry, and the documentation
agree, so a new diagnostic cannot ship undocumented; the companion
:mod:`repro.staticcheck.explain` registry carries the long-form
rationale and a minimal example per code (``repro check --explain``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

#: Every diagnostic code the analysis passes may emit.
KNOWN_CODES: Dict[str, str] = {
    # Pass 1 — network structure.
    "RSC101": "malformed balancer-level wiring (widths, ranges, duplicate wires)",
    "RSC102": "output order is not a permutation of the wires",
    "RSC103": "member graph is cyclic or has no consistent layer assignment",
    "RSC104": "an internal wire lacks exactly one producer and one consumer",
    "RSC105": "0-1-principle certification or quiescent step property failed",
    "RSC106": "depth does not match the closed form / Lemma 2.2 bound",
    "RSC107": "effective width below the Lemma 2.3 bound",
    "RSC108": "width exceeds the exhaustive certification limit (not certified)",
    # Pass 2 — cuts and transitions.
    "RSC201": "empty component set (a cut needs at least one member)",
    "RSC202": "a member path does not denote a node of the tree",
    "RSC203": "two members overlap (one is an ancestor of the other)",
    "RSC204": "a root-to-leaf path crosses no member (coverage hole)",
    "RSC205": "transition endpoints belong to different trees/widths",
    "RSC206": "transition is not token-conserving subtree-aligned splits/merges",
    # Pass 3 — codebase lint.
    "RSC300": "lint could not read or parse a file",
    "RSC301": "unseeded randomness (module-level random.* or Random())",
    "RSC302": "wall-clock read inside repro.sim / repro.runtime",
    "RSC303": "handler-context code bypasses the message bus",
    "RSC304": "mutable default argument",
    "RSC306": "eager string formatting at an observability record call",
    "RSC307": "pooled record (Envelope) constructed outside its home module",
    "RSC308": "committed scenario spec file fails schema validation",
    # Pass 5 — bounded model checking.
    "RSC500": "model-check explorer error, truncated schedule space, or deferral",
    "RSC504": "issued token never assigned an output wire (crash-free run)",
    "RSC505": "quiescent output counts violate the step property",
    # Pass 6 — schedule-perturbation sanitizer.
    "RSC610": "invariant broken under adversarial same-timestamp event reordering",
    "RSC611": "nondeterministic results under a fixed perturbation seed",
}


class Severity(enum.Enum):
    """How bad a finding is; only errors affect exit status."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding of an analysis pass.

    ``source`` is a file path (lint) or a network/cut label
    (structure/cuts); ``line`` is set only for lint findings;
    ``component`` optionally narrows a structural finding to one
    component or wire.
    """

    code: str
    message: str
    source: str = ""
    line: Optional[int] = None
    component: Optional[str] = None
    severity: Severity = Severity.ERROR

    @property
    def location(self) -> str:
        """``file:line`` or ``label[component]`` — whatever is known."""
        where = self.source or "<unknown>"
        if self.line is not None:
            where = "%s:%d" % (where, self.line)
        if self.component is not None:
            where = "%s[%s]" % (where, self.component)
        return where

    def format(self) -> str:
        return "%s: %s %s: %s" % (self.location, self.severity, self.code, self.message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "source": self.source,
            "line": self.line,
            "component": self.component,
            "severity": self.severity.value,
        }


class Report:
    """An ordered collection of diagnostics from one or more passes."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self.diagnostics: List[Diagnostic] = list(diagnostics)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def add(
        self,
        code: str,
        message: str,
        source: str = "",
        line: Optional[int] = None,
        component: Optional[str] = None,
        severity: Severity = Severity.ERROR,
    ) -> Diagnostic:
        diagnostic = Diagnostic(code, message, source, line, component, severity)
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "Report") -> "Report":
        self.diagnostics.extend(other.diagnostics)
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __bool__(self) -> bool:
        """Truthy when the report is *clean* (no errors) — so code can
        write ``if report: proceed()``."""
        return self.ok

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """Whether the checked subject passed (no error diagnostics)."""
        return not self.errors

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def format(self) -> str:
        return "\n".join(d.format() for d in self.diagnostics)

    def to_json(self, **kwargs) -> str:
        payload = {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.diagnostics) - len(self.errors),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        return json.dumps(payload, **kwargs)
