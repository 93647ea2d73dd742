"""Orchestration for ``repro check`` — runs all passes, one summary.

A *target* is one checkable subject (a balancer-level network, a cut of
a decomposition tree, a counting tree, a linted path, the runtime's
bounded model check, or the sanitizer sweep). With no pass requested the runner
builds the standard target matrix for the requested widths — bitonic
and periodic balancer networks, the singleton/level-1/full cuts of
``T_w``, the block-level cut of the adaptive periodic tree, and the
diffracting-tree baseline — and runs the structure and cut passes over
it; otherwise it runs each requested pass once, in a fixed order, and
reports per-target status plus the combined diagnostics.

Every invocation also produces a :class:`PassSummary` per executed pass
(wall-clock seconds, finding and target counts) — the ``passes`` block
of the JSON payload, pinned by the schema tests. Timing uses
``time.perf_counter``: the analyzer runs outside ``repro.sim`` /
``repro.runtime``, where simulated time is mandatory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bitonic import bitonic_depth, bitonic_network
from repro.core.cut import Cut
from repro.core.decomposition import DecompositionTree
from repro.core.periodic import periodic_depth, periodic_network
from repro.core.wiring import MergerConvention
from repro.ext.periodic_adaptive import PeriodicWiring, block_level_cut_paths, periodic_tree
from repro.staticcheck.diagnostics import Report
from repro.staticcheck.lint import lint_paths
from repro.staticcheck.structure import (
    MAX_CERTIFY_CUT_WIDTH,
    MAX_CERTIFY_WIDTH,
    check_balancing_network,
    check_counting_tree,
    check_cut_network,
)

DEFAULT_WIDTHS = (2, 4, 8)


@dataclass(frozen=True)
class TargetResult:
    """Outcome of all passes on one target."""

    name: str
    ok: bool
    diagnostics: int

    def format(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = "" if self.ok else " (%d diagnostics)" % self.diagnostics
        return "%s  %s%s" % (status, self.name, suffix)


@dataclass(frozen=True)
class PassSummary:
    """One analysis pass's share of the invocation: wall time, findings
    emitted (errors + warnings), and targets examined."""

    name: str
    seconds: float
    findings: int
    targets: int

    def format(self) -> str:
        return "pass %-14s %3d finding(s)  %3d target(s)  %8.3fs" % (
            self.name,
            self.findings,
            self.targets,
            self.seconds,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seconds": round(self.seconds, 6),
            "findings": self.findings,
            "targets": self.targets,
        }


@dataclass
class CheckRun:
    """Everything one ``repro check`` invocation produced."""

    targets: List[TargetResult]
    report: Report
    passes: List[PassSummary] = field(default_factory=list)
    #: Divergence artifacts the sanitizer wrote (for CI upload).
    artifacts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def summary(self) -> str:
        lines = [t.format() for t in self.targets]
        failed = sum(1 for t in self.targets if not t.ok)
        lines.append(
            "%d target(s), %d passed, %d failed"
            % (len(self.targets), len(self.targets) - failed, failed)
        )
        lines.extend(p.format() for p in self.passes)
        for artifact in self.artifacts:
            lines.append("divergence artifact: %s" % artifact)
        return "\n".join(lines)

    def to_json_payload(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "targets": [
                {"name": t.name, "ok": t.ok, "diagnostics": t.diagnostics}
                for t in self.targets
            ],
            "passes": [p.to_dict() for p in self.passes],
            "diagnostics": [d.to_dict() for d in self.report.diagnostics],
        }


def _cut_targets(width: int) -> List[Tuple[str, Cut]]:
    """The representative cuts of ``T_w`` checked per width."""
    tree = DecompositionTree(width)
    targets = [("T_%d singleton cut" % width, Cut.singleton(tree))]
    if tree.max_level >= 1:
        targets.append(("T_%d level-1 cut" % width, Cut.level(tree, 1)))
        targets.append(("T_%d full cut" % width, Cut.leaves(tree)))
    return targets


class _PassLedger:
    """Accumulates targets, diagnostics, and per-pass statistics."""

    def __init__(self) -> None:
        self.targets: List[TargetResult] = []
        self.combined = Report()
        # name -> [seconds, findings, targets]; insertion-ordered.
        self._stats: Dict[str, List[float]] = {}

    def add_target(
        self, pass_name: str, name: str, report: Report, seconds: float
    ) -> None:
        self.targets.append(TargetResult(name, report.ok, len(report.errors)))
        self.combined.extend(report)
        stats = self._stats.setdefault(pass_name, [0.0, 0.0, 0.0])
        stats[0] += seconds
        stats[1] += len(report.diagnostics)
        stats[2] += 1

    def run_pass(
        self, pass_name: str, name: str, thunk: Callable[[], Report]
    ) -> Report:
        start = time.perf_counter()
        report = thunk()
        self.add_target(pass_name, name, report, time.perf_counter() - start)
        return report

    def passes(self) -> List[PassSummary]:
        return [
            PassSummary(name, seconds, int(findings), int(target_count))
            for name, (seconds, findings, target_count) in self._stats.items()
        ]


def run_check(
    widths: Sequence[int] = DEFAULT_WIDTHS,
    convention: MergerConvention = MergerConvention.AHS94,
    lint: Optional[Sequence[str]] = None,
    certify: bool = True,
    max_certify_width: int = MAX_CERTIFY_WIDTH,
    max_certify_cut_width: int = MAX_CERTIFY_CUT_WIDTH,
    model_check: bool = False,
    model_config=None,
    sanitize_seeds: Optional[Sequence[int]] = None,
    sanitize_scenarios: Optional[Sequence[str]] = None,
    sanitize_artifact_dir: Optional[str] = None,
) -> CheckRun:
    """Run the requested passes and return the combined result.

    Every requested pass runs once, in this order: the lint over the
    ``lint`` paths; with ``model_check``, the bounded model checker
    under ``model_config``;
    with ``sanitize_seeds``, the schedule-perturbation sanitizer over
    the scenario library (or the ``sanitize_scenarios`` named), each
    scenario run twice per perturbation seed. When none of them is
    requested, the structure and cut passes run over the standard target
    matrix for each width.
    """
    ledger = _PassLedger()
    artifacts: List[str] = []

    if lint is not None:
        ledger.run_pass(
            "lint", "lint %s" % ", ".join(lint), lambda: lint_paths(lint)
        )
    if model_check:
        from repro.staticcheck.protocol.model import ModelCheckConfig
        from repro.staticcheck.protocol.model import model_check as bounded_model_check

        config = model_config if model_config is not None else ModelCheckConfig()
        ledger.run_pass(
            "model-check",
            "bounded model check (depth %d)" % config.depth,
            lambda: bounded_model_check(config),
        )
    if sanitize_seeds is not None:
        # Imported late, as the model checker is: the sanitizer pulls
        # in the whole runtime, which itself imports staticcheck.cuts.
        from repro.staticcheck import sanitize

        sanitizer_config = sanitize.SanitizerConfig(
            seeds=tuple(sanitize_seeds),
            scenarios=(
                list(sanitize_scenarios) if sanitize_scenarios is not None else None
            ),
        )
        if sanitize_artifact_dir is not None:
            sanitizer_config.artifact_dir = sanitize_artifact_dir
        start = time.perf_counter()
        sanitizer_report, outcome = sanitize.run_sanitizer(sanitizer_config)
        ledger.add_target(
            "sanitizer",
            "sanitizer x%d seed(s) (%d run(s))"
            % (len(sanitizer_config.seeds), outcome.runs),
            sanitizer_report,
            time.perf_counter() - start,
        )
        artifacts = outcome.artifacts
    if ledger.targets:  # a pass was requested (each adds its target)
        return CheckRun(ledger.targets, ledger.combined, ledger.passes(), artifacts)

    for width in widths:
        name = "BITONIC[%d]" % width
        ledger.run_pass(
            "structure",
            name,
            lambda name=name, width=width: check_balancing_network(
                bitonic_network(width),
                source=name,
                expected_depth=bitonic_depth(width),
                certify=certify,
                max_certify_width=max_certify_width,
            ),
        )
        name = "PERIODIC[%d]" % width
        ledger.run_pass(
            "structure",
            name,
            lambda name=name, width=width: check_balancing_network(
                periodic_network(width),
                source=name,
                expected_depth=periodic_depth(width),
                certify=certify,
                max_certify_width=max_certify_width,
            ),
        )
        for name, cut in _cut_targets(width):
            ledger.run_pass(
                "cuts",
                name,
                lambda name=name, cut=cut: check_cut_network(
                    cut,
                    convention=convention,
                    source=name,
                    certify=certify,
                    max_certify_width=max_certify_cut_width,
                ),
            )
        if width >= 4:
            ptree = periodic_tree(width)
            cut = Cut(ptree, block_level_cut_paths(ptree))
            name = "P_%d block-level cut" % width
            ledger.run_pass(
                "cuts",
                name,
                lambda name=name, cut=cut, ptree=ptree: check_cut_network(
                    cut,
                    wiring=PeriodicWiring(ptree),
                    source=name,
                    certify=certify,
                    max_certify_width=max_certify_cut_width,
                    check_bounds=False,
                ),
            )
        depth = width.bit_length() - 1
        name = "DIFFRACTING[depth=%d]" % depth
        ledger.run_pass(
            "structure",
            name,
            lambda name=name, depth=depth: check_counting_tree(depth, source=name),
        )
    return CheckRun(ledger.targets, ledger.combined, ledger.passes())
