"""Pass 5 — bounded model checking of the adaptive runtime (``RSC5xx``).

Zave showed that the published Chord maintenance protocol is incorrect
and that every one of its bugs is reachable on rings of at most four
nodes — small-scope exhaustive exploration is the cheapest oracle for
a distributed protocol. This pass applies that method to the runtime:
the **runtime explorer** enumerates every schedule of
``{inject, split, merge, add_node, remove_node}`` up to a bounded depth
over a small :class:`~repro.runtime.system.AdaptiveCountingSystem`,
replays each one deterministically with tokens in flight across the
reconfigurations, and checks the paper's safety properties at
quiescence. Crashes are deliberately *not* in this alphabet: a crash
may legitimately lose in-flight tokens, so "every token retires" is
only an invariant of the crash-free protocol.

Rules
-----
``RSC504``
    Token conservation: a schedule of crash-free operations left an
    issued token that was never assigned an output wire.
``RSC505``
    Step property: the quiescent output distribution violates the step
    property.

``RSC500`` marks explorer-level problems: an operation raised an
unexpected exception during replay (error — the runtime crashed); the
schedule space was truncated by the exploration budget (warning); or a
split or merge deferred during replay, so the rest of the schedule no
longer matches the live cut (warning).

The explorer runs the *real* code — :mod:`repro.runtime.system` — not
an abstracted model, so a clean report certifies the implementation,
not a transcription of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.staticcheck.diagnostics import Report, Severity

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.runtime.system import AdaptiveCountingSystem

#: One scheduled operation: an op name followed by its arguments.
Op = Tuple[object, ...]
Schedule = Tuple[Op, ...]
Path = Tuple[int, ...]

_SOURCE = "model-check/runtime"


@dataclass
class ModelCheckConfig:
    """Knobs for the explorer.

    ``depth`` is the number of operations per schedule; at most
    ``max_schedules`` schedules are replayed. ``system_factory``
    substitutes the subject under test, which is how the negative
    fixtures inject deliberately broken runtimes.
    """

    depth: int = 3
    seed: int = 0
    max_schedules: int = 20_000
    max_violations_per_code: int = 5
    system_factory: Optional[Callable[[], "AdaptiveCountingSystem"]] = None

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1, got %d" % self.depth)


def _format_op(op: Op) -> str:
    if len(op) == 1:
        return str(op[0])
    return "%s(%s)" % (op[0], ", ".join(str(arg) for arg in op[1:]))


def _format_schedule(schedule: Schedule) -> str:
    return "; ".join(_format_op(op) for op in schedule) or "<empty>"


class _Emitter:
    """Adds diagnostics with a per-code cap so one systematic bug does
    not flood the report with thousands of equivalent schedules. The
    cap counts each severity apart: RSC500 is both, and capped warnings
    must never suppress an error."""

    def __init__(self, report: Report, cap: int):
        self.report = report
        self.cap = cap
        self.counts: Dict[Tuple[str, Severity], int] = {}

    def emit(self, code: str, message: str, severity: Severity = Severity.ERROR) -> None:
        seen = self.counts.get((code, severity), 0)
        self.counts[(code, severity)] = seen + 1
        if seen < self.cap:
            self.report.add(code, message, _SOURCE, severity=severity)
        elif seen == self.cap:
            self.report.add(
                code,
                "further %s %ss suppressed (cap %d per code)" % (code, severity, self.cap),
                _SOURCE,
                severity=Severity.WARNING,
            )


def _default_system_factory(config: ModelCheckConfig) -> "AdaptiveCountingSystem":
    from repro.runtime.system import AdaptiveCountingSystem

    return AdaptiveCountingSystem(width=4, seed=config.seed)


def _runtime_schedules(
    config: ModelCheckConfig, system: "AdaptiveCountingSystem"
) -> Tuple[List[Schedule], bool]:
    """Enabled runtime schedules, tracked symbolically, and whether the
    ``max_schedules`` cap dropped any.

    The enabled set assumes every split and merge lands: a split
    replaces a component by its children, a merge collapses the whole
    live subtree. The runtime may instead defer either one (a split
    returns ``[]``, a merge ``None``) when the state transfer is not
    exact; :func:`_replay_runtime` reports that. ``inject`` is always
    enabled, so every prefix completes to a schedule of length
    ``depth``, and the space is truncated exactly when a prefix is
    reached after the cap is full.
    """
    tree = system.tree

    def splittable(path: Path) -> bool:
        return tree.node(path).width > 2

    def children(path: Path) -> FrozenSet[Path]:
        return frozenset(child.path for child in tree.node(path).children())

    schedules: List[Schedule] = []
    prefix: List[Op] = []
    truncated = False

    def extend(paths: FrozenSet[Path], nodes: int) -> None:
        nonlocal truncated
        if len(schedules) == config.max_schedules:
            truncated = True
            return
        if len(prefix) == config.depth:
            schedules.append(tuple(prefix))
            return
        prefix.append(("inject",))
        extend(paths, nodes)
        prefix.pop()
        for path in sorted(paths):
            if splittable(path):
                prefix.append(("split", path))
                extend(paths - {path} | children(path), nodes)
                prefix.pop()
        parents = {path[:-1] for path in paths if path}
        for parent in sorted(parents):
            subtree = frozenset(
                p for p in paths if p[: len(parent)] == parent and p != parent
            )
            prefix.append(("merge", parent))
            extend(paths - subtree | {parent}, nodes)
            prefix.pop()
        prefix.append(("add_node",))
        extend(paths, nodes + 1)
        prefix.pop()
        if nodes > 1:
            prefix.append(("remove_node",))
            extend(paths, nodes - 1)
            prefix.pop()

    extend(frozenset({()}), system.num_nodes)
    return schedules, truncated


def _replay_runtime(
    config: ModelCheckConfig, schedule: Schedule, emitter: _Emitter
) -> "AdaptiveCountingSystem":
    """Re-execute one runtime schedule; operations are deliberately not
    separated by quiescence, so tokens are in flight across
    reconfigurations and membership changes.

    A deferred split or merge is legal, but it leaves the system on a
    cut the rest of the schedule was not enumerated for: the replay
    warns (RSC500), stops there and only drives the system to
    quiescence, so the invariants are still judged.
    """
    factory = config.system_factory or (lambda: _default_system_factory(config))
    system = factory()
    # Warm-up: one token per wire, so the invariants are not vacuous.
    for _ in range(system.width):
        system.inject_token()
    for op in schedule:
        name = op[0]
        landed = True
        if name == "inject":
            system.inject_token()
        elif name == "split":
            landed = bool(system.reconfig.split(op[1]))
        elif name == "merge":
            initiator = system.hosts[sorted(system.hosts)[0]]
            landed = system.reconfig.merge(op[1], initiator) is not None
        elif name == "add_node":
            system.add_node()
        elif name == "remove_node":
            system.remove_node(sorted(system.hosts)[-1])
        if not landed:
            emitter.emit(
                "RSC500",
                "%s deferred (transfer not exact); the rest of the schedule "
                "was not replayed [schedule: %s]"
                % (_format_op(op), _format_schedule(schedule)),
                Severity.WARNING,
            )
            break
    system.run_until_quiescent()
    return system


def _check_runtime_invariants(
    system: "AdaptiveCountingSystem", label: str, emitter: _Emitter
) -> None:
    from repro.core.verification import step_violation

    stats = system.token_stats
    if stats.retired != stats.issued:
        emitter.emit(
            "RSC504",
            "token conservation: %d token(s) issued but only %d assigned "
            "an output wire under a crash-free schedule [schedule: %s]"
            % (stats.issued, stats.retired, label),
        )
        return
    violation = step_violation(system.output_counts)
    if violation is not None:
        emitter.emit(
            "RSC505",
            "step property: quiescent output counts %r violate the step "
            "property at wires %r [schedule: %s]"
            % (system.output_counts, violation, label),
        )


def model_check(
    config: Optional[ModelCheckConfig] = None, report: Optional[Report] = None
) -> Report:
    """Exhaustively explore runtime schedules and check token/step
    invariants at quiescence; returns (or extends) a report."""
    config = config or ModelCheckConfig()
    if report is None:
        report = Report()
    emitter = _Emitter(report, config.max_violations_per_code)
    probe = (config.system_factory or (lambda: _default_system_factory(config)))()
    schedules, truncated = _runtime_schedules(config, probe)
    if truncated:
        report.add(
            "RSC500",
            "schedule space truncated at %d schedules" % config.max_schedules,
            _SOURCE,
            severity=Severity.WARNING,
        )
    for schedule in schedules:
        label = _format_schedule(schedule)
        try:
            system = _replay_runtime(config, schedule, emitter)
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            emitter.emit(
                "RSC500",
                "replay raised %s: %s [schedule: %s]"
                % (type(exc).__name__, exc, label),
            )
            continue
        _check_runtime_invariants(system, label, emitter)
    return report
