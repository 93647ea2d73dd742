"""Orchestration for ``repro check`` — runs all passes, one summary.

A *target* is one checkable subject (a balancer-level network, a cut of
a decomposition tree, a counting tree, a linted path, the concurrency
surface, or the sanitizer sweep). The runner builds the standard
target matrix for the requested widths — bitonic and periodic balancer
networks, the singleton/level-1/full cuts of ``T_w``, the block-level
cut of the adaptive periodic tree, and the diffracting-tree baseline —
runs every pass, and reports per-target status plus the combined
diagnostics.

Every invocation also produces a :class:`PassSummary` per executed pass
(wall-clock seconds, finding and target counts) — the ``passes`` block
of the JSON payload, pinned by the schema tests. Timing uses
``time.perf_counter``: the analyzer runs outside ``repro.sim`` /
``repro.runtime``, where simulated time is mandatory.

Pass 6 couples its two halves here: when the schedule-perturbation
sanitizer fails in the same invocation as the static concurrency pass,
baseline-suppressed static findings are re-promoted to errors
(:func:`~repro.staticcheck.concurrency.promote_baseline_suppressed`).
"""

from __future__ import annotations

import os
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
    #: Path the baseline was (re)written to, when updating.
    baseline_written: Optional[str] = None

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
        if self.baseline_written:
            lines.append("baseline written: %s" % self.baseline_written)
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
        targets.append(("T_%d full cut" % width, Cut.full(tree)))
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


def _run_concurrency_half(
    ledger: _PassLedger,
    concurrency: bool,
    concurrency_paths: Optional[Sequence[str]],
    concurrency_baseline: Optional[str],
    update_concurrency_baseline: bool,
    allow_baseline_growth: bool,
    strict_baseline: bool,
    sanitize_seeds: Optional[Sequence[int]],
    sanitize_jitter: float,
    sanitize_scenarios: Optional[Sequence[str]],
    sanitize_artifact_dir: Optional[str],
) -> Tuple[Optional[str], List[str]]:
    """Pass 6: static rules, then the sanitizer, then the coupling rule
    (sanitizer failure revokes baseline suppressions). Returns the
    baseline path written (if any) and sanitizer artifact paths.

    With ``strict_baseline`` (the ``--thread-ready`` gate) the baseline
    is not applied at all: findings stay errors, and a baseline file
    that still carries entries is itself an error — thread-readiness
    means the debt ledger is empty, not merely triaged.

    Updating the baseline refuses to *grow* it (write keys the current
    file does not already carry) unless ``allow_baseline_growth`` is
    set: once drained, the empty baseline is a ratchet.
    """
    from repro.staticcheck.concurrency import (
        SanitizerConfig,
        apply_baseline,
        default_baseline_path,
        format_baseline,
        load_baseline,
        promote_baseline_suppressed,
        run_sanitizer,
    )
    from repro.staticcheck.concurrency.contract import report_stale_keys
    from repro.staticcheck.concurrency.rules import check_concurrency

    baseline_written: Optional[str] = None
    artifacts: List[str] = []
    static_report: Optional[Report] = None
    static_seconds = 0.0
    static_name = ""

    if concurrency:
        baseline_path = concurrency_baseline or default_baseline_path()
        start = time.perf_counter()
        static_report = check_concurrency(concurrency_paths)
        if update_concurrency_baseline:
            content = format_baseline(static_report)
            new_keys = {
                line
                for line in content.splitlines()
                if line and not line.startswith("#")
            }
            existing = (
                load_baseline(baseline_path)
                if os.path.exists(baseline_path)
                else set()
            )
            growth = sorted(new_keys - existing)
            if growth and not allow_baseline_growth:
                static_report.add(
                    "RSC600",
                    "refusing to add %d finding(s) to the concurrency "
                    "baseline: the baseline has been drained to empty and "
                    "may not grow back — fix the findings, or pass "
                    "--allow-baseline-growth to triage them explicitly"
                    % len(growth),
                    baseline_path,
                )
            else:
                with open(baseline_path, "w", encoding="utf-8") as handle:
                    handle.write(content)
                baseline_written = baseline_path
        if strict_baseline:
            if os.path.exists(baseline_path):
                entries = load_baseline(baseline_path)
                if entries:
                    static_report.add(
                        "RSC600",
                        "thread-readiness requires an empty concurrency "
                        "baseline, but %d entr%s remain in %s"
                        % (
                            len(entries),
                            "y" if len(entries) == 1 else "ies",
                            os.path.basename(baseline_path),
                        ),
                        baseline_path,
                    )
        elif os.path.exists(baseline_path):
            static_report, stale = apply_baseline(
                static_report, load_baseline(baseline_path)
            )
            report_stale_keys(static_report, stale, baseline_path)
        static_seconds = time.perf_counter() - start
        static_name = "concurrency (%s)" % (
            "default packages" if concurrency_paths is None else "%d path(s)" % len(concurrency_paths)
        )
        if strict_baseline:
            static_name += " [strict: no baseline applied]"

    sanitizer_failed = False
    if sanitize_seeds is not None:
        config = SanitizerConfig(
            seeds=tuple(sanitize_seeds),
            max_jitter=sanitize_jitter,
            scenarios=(
                list(sanitize_scenarios)
                if sanitize_scenarios is not None
                else None
            ),
        )
        if sanitize_artifact_dir is not None:
            config.artifact_dir = sanitize_artifact_dir
        start = time.perf_counter()
        sanitizer_report, outcome = run_sanitizer(config)
        seconds = time.perf_counter() - start
        sanitizer_failed = not sanitizer_report.ok
        artifacts = outcome.artifacts
        ledger.add_target(
            "sanitizer",
            "sanitizer x%d seed(s) (%d run(s))"
            % (len(config.seeds), outcome.runs),
            sanitizer_report,
            seconds,
        )

    if static_report is not None:
        if sanitizer_failed:
            static_report, promoted = promote_baseline_suppressed(static_report)
            if promoted:
                static_name += " [%d suppression(s) revoked]" % promoted
        ledger.add_target("concurrency", static_name, static_report, static_seconds)

    return baseline_written, artifacts


def run_check(
    widths: Sequence[int] = DEFAULT_WIDTHS,
    convention: MergerConvention = MergerConvention.AHS94,
    lint: Optional[Sequence[str]] = None,
    certify: bool = True,
    max_certify_width: int = MAX_CERTIFY_WIDTH,
    max_certify_cut_width: int = MAX_CERTIFY_CUT_WIDTH,
    protocol: bool = False,
    protocol_paths: Optional[Sequence[str]] = None,
    model_check: bool = False,
    model_config=None,
    concurrency: bool = False,
    concurrency_paths: Optional[Sequence[str]] = None,
    concurrency_baseline: Optional[str] = None,
    update_concurrency_baseline: bool = False,
    allow_baseline_growth: bool = False,
    ownership: bool = False,
    ownership_paths: Optional[Sequence[str]] = None,
    thread_ready: bool = False,
    sanitize_seeds: Optional[Sequence[int]] = None,
    sanitize_jitter: float = 0.0,
    sanitize_scenarios: Optional[Sequence[str]] = None,
    sanitize_artifact_dir: Optional[str] = None,
) -> CheckRun:
    """Run the requested passes and return the combined result.

    With ``lint`` set, only the lint pass runs over the given paths.
    With ``protocol`` / ``model_check`` set, only those protocol-layer
    passes run — message-flow analysis over ``protocol_paths`` (default:
    the protocol-layer modules) and the bounded model checker under
    ``model_config``. With ``concurrency`` / ``sanitize_seeds`` set,
    Pass 6 runs: the static RSC60x rules over ``concurrency_paths``
    (default: the runtime packages) filtered through the triage baseline
    at ``concurrency_baseline`` (default: ``CONCURRENCY_BASELINE.txt``
    in the working directory, when present), and/or the schedule-
    perturbation sanitizer over the scenario library (or the
    ``sanitize_scenarios`` named), each run twice per perturbation seed. With ``ownership`` set, Pass 7 runs
    the RSC70x ownership/lock-discipline rules over ``ownership_paths``
    (default: the same runtime packages). ``thread_ready`` is the
    composite gate: Pass 6 in strict mode (no baseline demotion, a
    non-empty baseline is itself an error) + Pass 7 + the sanitizer
    over the default seeds — all three must be clean. Otherwise the
    structure and cut passes run over the standard target matrix for
    each width.
    """
    ledger = _PassLedger()

    if thread_ready:
        from repro.staticcheck.concurrency import DEFAULT_SANITIZE_SEEDS

        concurrency = True
        ownership = True
        if sanitize_seeds is None:
            sanitize_seeds = DEFAULT_SANITIZE_SEEDS

    if lint is not None:
        ledger.run_pass(
            "lint", "lint %s" % ", ".join(lint), lambda: lint_paths(lint)
        )
        return CheckRun(ledger.targets, ledger.combined, ledger.passes())

    if protocol or model_check:
        if protocol:
            from repro.staticcheck.protocol.flow import check_message_flow

            ledger.run_pass(
                "protocol-flow",
                "protocol message flow",
                lambda: check_message_flow(protocol_paths),
            )
        if model_check:
            from repro.staticcheck.protocol.model import ModelCheckConfig
            from repro.staticcheck.protocol.model import model_check as bounded_model_check

            config = model_config if model_config is not None else ModelCheckConfig()
            ledger.run_pass(
                "model-check",
                "bounded model check (n<=%d, depth %d)"
                % (config.max_nodes, config.depth),
                lambda: bounded_model_check(config),
            )
        return CheckRun(ledger.targets, ledger.combined, ledger.passes())

    if concurrency or ownership or sanitize_seeds is not None:
        baseline_written, artifacts = _run_concurrency_half(
            ledger,
            concurrency,
            concurrency_paths,
            concurrency_baseline,
            update_concurrency_baseline,
            allow_baseline_growth,
            thread_ready,
            sanitize_seeds,
            sanitize_jitter,
            sanitize_scenarios,
            sanitize_artifact_dir,
        )
        if ownership:
            from repro.staticcheck.ownership import check_ownership

            ledger.run_pass(
                "ownership",
                "ownership (%s)"
                % (
                    "default packages"
                    if ownership_paths is None
                    else "%d path(s)" % len(ownership_paths)
                ),
                lambda: check_ownership(ownership_paths),
            )
        return CheckRun(
            ledger.targets,
            ledger.combined,
            ledger.passes(),
            artifacts=artifacts,
            baseline_written=baseline_written,
        )

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
