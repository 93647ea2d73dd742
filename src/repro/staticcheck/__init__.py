"""Static invariant analysis for networks, cuts and the codebase itself.

The package implements five analysis passes, each usable as a library
and all runnable via ``repro check`` (see :mod:`repro.staticcheck.runner`):

* :mod:`repro.staticcheck.structure` — network structure analysis
  (codes ``RSC1xx``): well-formedness of balancer-level wirings and of
  cut networks (one producer and one consumer per internal wire, an
  acyclic balancer/member graph with a consistent layer assignment,
  fan-in/fan-out matching the component specs), step-property
  certification for small widths via the 0-1 principle, and the
  Lemma 2.2/2.3 width/depth bounds.
* :mod:`repro.staticcheck.cuts` — cut validity analysis (codes
  ``RSC2xx``): whether a component set is a valid cut of ``T_w``
  (Theorem 2.1), whether a cut-to-cut transition decomposes into
  token-conserving splits and merges, and the raising validators
  ``validate_split`` / ``validate_merge`` used by
  :mod:`repro.runtime.reconfig` to reject bad reconfigurations up
  front.
* :mod:`repro.staticcheck.lint` — project-specific AST lint (codes
  ``RSC3xx``): no unseeded ``random.*`` calls outside injected RNGs, no
  wall-clock reads inside ``repro.sim`` / ``repro.runtime``, no direct
  cross-node state access in message handlers, no mutable default
  arguments.
* :mod:`repro.staticcheck.protocol.model` — the bounded model checker
  of the adaptive runtime over all small-scope schedules (codes
  ``RSC5xx``). The ``RSC4xx`` block is unassigned.
* :mod:`repro.staticcheck.sanitize` — the schedule-perturbation
  sanitizer (codes ``RSC610`` / ``RSC611``): the scenario library re-run
  under adversarial same-timestamp event orders.

All passes report :class:`~repro.staticcheck.diagnostics.Diagnostic`
values collected in a :class:`~repro.staticcheck.diagnostics.Report`,
with stable error codes and a machine-readable JSON form.
"""

from repro.staticcheck.diagnostics import Diagnostic, Report, Severity
from repro.staticcheck.structure import (
    certify_01_principle,
    check_balancing_network,
    check_counting_tree,
    check_cut_network,
    check_wiring,
)
from repro.staticcheck.cuts import (
    check_cut,
    check_transition,
    validate_merge,
    validate_split,
)
from repro.staticcheck.lint import lint_paths, lint_source
from repro.staticcheck.runner import run_check

__all__ = [
    "Diagnostic",
    "Report",
    "Severity",
    "certify_01_principle",
    "check_balancing_network",
    "check_counting_tree",
    "check_cut_network",
    "check_wiring",
    "check_cut",
    "check_transition",
    "validate_merge",
    "validate_split",
    "lint_paths",
    "lint_source",
    "run_check",
]
