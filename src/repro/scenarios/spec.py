"""The declarative scenario spec: schema, validation, and loading.

A *scenario spec* is a TOML or JSON document describing one workload
over the adaptive counting network — no Python required. The spec
names a topology, a latency model, an arrival process, a churn trace,
an application, and the statistics to record; the compiler
(:mod:`repro.scenarios.compile`) lowers a validated spec onto the
``repro.runtime`` / ``repro.sim`` setup path.

This module is deliberately import-light (stdlib + ``repro.errors``
only): the RSC308 lint validates every committed spec file without
pulling in the runtime, and schema errors never hide behind an import
failure.

Grammar
-------
Top-level tables (all optional except ``arrivals``; defaults in
brackets)::

    name         = "flash_crowd"        # must match the file stem
    description  = "..."                # free text

    [network]
    width        = 16                   # power of two [16]
    convention   = "ahs94"              # "ahs94" | "paper-prose" [ahs94]

    [system]
    seed            = 0                 # workload seed [0]
    initial_nodes   = 8                 # [8]
    min_nodes       = 2                 # churn floor [2]
    step_multiplier = 4                 # rules threshold [4]
    hysteresis      = 0                 # [0]

    [latency]
    kind = "constant"                   # constant|uniform|discrete|exponential
    value = 1.0                         # constant
    # low/high (uniform), values/weights (discrete), mean (exponential)

    [arrivals]                          # REQUIRED
    kind   = "uniform"                  # uniform|poisson|burst|onoff
    tokens = 600                        # the injection budget (>= 1)
    # duration (uniform), rate (poisson), bursts/spacing (burst),
    # phases = [[duration, rate], ...] + cycles (onoff)
    [arrivals.wires]
    kind = "round_robin"                # round_robin|uniform|hot
    # hot_wires / hot_fraction (hot)

    [churn]
    kind = "none"                       # none|poisson|correlated|partition|oscillation
    # join_rate/leave_rate/crash_rate/duration    (poisson)
    # rate/batch/duration                         (correlated)
    # at/fraction/heal_after                      (partition)
    # period/count/first                          (oscillation)

    [app]
    kind = "tokens"                     # tokens|counter|load_balancer|
                                        # producer_consumer|mixed
    # servers (load_balancer/mixed)

    record = ["tokens", "latency"]      # statistic groups to record

Validation collects *every* problem (not just the first) and reports
each as ``<table>.<field>: <what is wrong> (<what would be valid>)`` —
the same strings the RSC308 lint emits, so a bad committed spec fails
``repro check --lint`` with an actionable message.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError

try:  # Python >= 3.11; on older interpreters only JSON specs load.
    import tomllib  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - depends on interpreter
    tomllib = None  # type: ignore[assignment]

__all__ = [
    "ScenarioSpecError",
    "LatencySpec",
    "WireSpec",
    "ArrivalSpec",
    "ChurnSpec",
    "AppSpec",
    "ScenarioSpec",
    "validate_spec_data",
    "parse_spec",
    "load_spec",
    "spec_file_problems",
    "SPEC_SUFFIXES",
    "LATENCY_KINDS",
    "ARRIVAL_KINDS",
    "CHURN_KINDS",
    "APP_KINDS",
    "RECORD_GROUPS",
]

#: File suffixes a spec may use. ``.toml`` requires ``tomllib``
#: (Python 3.11+); the committed library uses ``.json`` so the schema
#: gate runs on every supported interpreter.
SPEC_SUFFIXES = (".json", ".toml")

LATENCY_KINDS = ("constant", "uniform", "discrete", "exponential")
ARRIVAL_KINDS = ("uniform", "poisson", "burst", "onoff")
WIRE_KINDS = ("round_robin", "uniform", "hot")
CHURN_KINDS = ("none", "poisson", "correlated", "partition", "oscillation")
APP_KINDS = ("tokens", "counter", "load_balancer", "producer_consumer", "mixed")
CONVENTIONS = ("ahs94", "paper-prose")

#: Statistic groups a spec may ask the run to record. ``tokens`` is
#: always on (conservation is non-negotiable); the others are opt-in.
RECORD_GROUPS = ("tokens", "latency", "messages", "adaptation", "pools", "app")

#: Hard cap on one scenario's injection budget: the smoke matrix runs
#: the whole library per CI job, so a single spec cannot ask for a
#: benchmark-scale run.
MAX_TOKENS = 200_000


class ScenarioSpecError(ReproError):
    """A scenario spec failed schema validation.

    ``problems`` carries every finding, one actionable line each.
    """

    def __init__(self, name: str, problems: Sequence[str]):
        self.name = name
        self.problems = list(problems)
        super().__init__(
            "scenario spec %r has %d problem(s):\n  %s"
            % (name, len(self.problems), "\n  ".join(self.problems))
        )


@dataclass(frozen=True)
class LatencySpec:
    kind: str = "constant"
    value: float = 1.0
    low: float = 0.5
    high: float = 2.0
    values: Tuple[float, ...] = (0.5, 1.0, 2.0)
    weights: Optional[Tuple[float, ...]] = None
    mean: float = 1.0


@dataclass(frozen=True)
class WireSpec:
    kind: str = "round_robin"
    hot_wires: int = 1
    hot_fraction: float = 0.9


@dataclass(frozen=True)
class ArrivalSpec:
    kind: str
    tokens: int
    duration: float = 100.0
    rate: float = 1.0
    bursts: int = 1
    spacing: float = 1.0
    phases: Tuple[Tuple[float, float], ...] = ()
    cycles: int = 1
    wires: WireSpec = field(default_factory=WireSpec)


@dataclass(frozen=True)
class ChurnSpec:
    kind: str = "none"
    duration: float = 100.0
    join_rate: float = 0.0
    leave_rate: float = 0.0
    crash_rate: float = 0.0
    rate: float = 0.0
    batch: int = 2
    at: float = 50.0
    fraction: float = 0.5
    heal_after: float = 25.0
    period: float = 5.0
    count: int = 10
    first: str = "join"


@dataclass(frozen=True)
class AppSpec:
    kind: str = "tokens"
    servers: int = 0  # 0 = network width


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated scenario, ready for the compiler."""

    name: str
    description: str
    width: int
    convention: str
    seed: int
    initial_nodes: int
    min_nodes: int
    step_multiplier: int
    hysteresis: int
    latency: LatencySpec
    arrivals: ArrivalSpec
    churn: ChurnSpec
    app: AppSpec
    record: Tuple[str, ...]

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """The same scenario under a different workload seed."""
        from dataclasses import replace

        return replace(self, seed=seed)


class _Checker:
    """Field extraction with problem accumulation.

    Every getter records a problem (with the valid range spelled out)
    instead of raising, so one validation pass reports everything wrong
    with a spec at once.
    """

    def __init__(self) -> None:
        self.problems: List[str] = []

    def problem(self, where: str, what: str) -> None:
        self.problems.append("%s: %s" % (where, what))

    def table(self, data: Mapping[str, Any], key: str) -> Dict[str, Any]:
        value = data.get(key)
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.problem(key, "must be a table/object, got %s" % _kind(value))
            return {}
        return dict(value)

    def unknown_keys(
        self, where: str, data: Mapping[str, Any], allowed: Sequence[str]
    ) -> None:
        for key in sorted(set(data) - set(allowed)):
            self.problem(
                "%s.%s" % (where, key) if where else key,
                "unknown field (valid: %s)" % ", ".join(sorted(allowed)),
            )

    def choice(
        self, where: str, data: Mapping[str, Any], key: str,
        choices: Sequence[str], default: str,
    ) -> str:
        value = data.get(key, default)
        if not isinstance(value, str) or value not in choices:
            self.problem(
                "%s.%s" % (where, key),
                "got %r, valid choices: %s" % (value, ", ".join(choices)),
            )
            return default
        return value

    def integer(
        self, where: str, data: Mapping[str, Any], key: str, default: int,
        minimum: Optional[int] = None, maximum: Optional[int] = None,
    ) -> int:
        value = data.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            self.problem(
                "%s.%s" % (where, key),
                "must be an integer, got %s" % _kind(value),
            )
            return default
        if minimum is not None and value < minimum:
            self.problem(
                "%s.%s" % (where, key), "must be >= %d, got %d" % (minimum, value)
            )
            return default
        if maximum is not None and value > maximum:
            self.problem(
                "%s.%s" % (where, key), "must be <= %d, got %d" % (maximum, value)
            )
            return default
        return value

    def number(
        self, where: str, data: Mapping[str, Any], key: str, default: float,
        minimum: Optional[float] = None, positive: bool = False,
        maximum: Optional[float] = None,
    ) -> float:
        value = data.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.problem(
                "%s.%s" % (where, key),
                "must be a number, got %s" % _kind(value),
            )
            return default
        value = float(value)
        if positive and value <= 0:
            self.problem("%s.%s" % (where, key), "must be > 0, got %r" % value)
            return default
        if minimum is not None and value < minimum:
            self.problem(
                "%s.%s" % (where, key), "must be >= %r, got %r" % (minimum, value)
            )
            return default
        if maximum is not None and value > maximum:
            self.problem(
                "%s.%s" % (where, key), "must be <= %r, got %r" % (maximum, value)
            )
            return default
        return value

    def string(
        self, where: str, data: Mapping[str, Any], key: str, default: str
    ) -> str:
        value = data.get(key, default)
        if not isinstance(value, str):
            self.problem(
                "%s.%s" % (where, key), "must be a string, got %s" % _kind(value)
            )
            return default
        return value


def _kind(value: Any) -> str:
    return type(value).__name__ if value is not None else "nothing"


def _is_power_of_two(value: int) -> bool:
    return value >= 2 and (value & (value - 1)) == 0


def _check_latency(checker: _Checker, data: Mapping[str, Any]) -> LatencySpec:
    checker.unknown_keys(
        "latency", data, ("kind", "value", "low", "high", "values", "weights", "mean")
    )
    kind = checker.choice("latency", data, "kind", LATENCY_KINDS, "constant")
    value = checker.number("latency", data, "value", 1.0, minimum=0.0)
    low = checker.number("latency", data, "low", 0.5, minimum=0.0)
    high = checker.number("latency", data, "high", 2.0, minimum=0.0)
    if kind == "uniform" and low > high:
        checker.problem("latency.low", "must be <= latency.high (%r > %r)" % (low, high))
    mean = checker.number("latency", data, "mean", 1.0, positive=True)
    values: Tuple[float, ...] = (0.5, 1.0, 2.0)
    raw_values = data.get("values")
    if raw_values is not None:
        if (
            not isinstance(raw_values, list)
            or not raw_values
            or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0
                for v in raw_values
            )
        ):
            checker.problem(
                "latency.values",
                "must be a non-empty array of nonnegative numbers",
            )
        else:
            values = tuple(float(v) for v in raw_values)
    weights: Optional[Tuple[float, ...]] = None
    raw_weights = data.get("weights")
    if raw_weights is not None:
        if (
            not isinstance(raw_weights, list)
            or len(raw_weights) != len(values)
            or not all(
                isinstance(w, (int, float)) and not isinstance(w, bool) and w >= 0
                for w in raw_weights
            )
            or not any(raw_weights)
        ):
            checker.problem(
                "latency.weights",
                "must be an array of nonnegative numbers matching "
                "latency.values one-to-one, not all zero",
            )
        else:
            weights = tuple(float(w) for w in raw_weights)
    return LatencySpec(
        kind=kind, value=value, low=low, high=high,
        values=values, weights=weights, mean=mean,
    )


def _check_wires(checker: _Checker, data: Mapping[str, Any], width: int) -> WireSpec:
    checker.unknown_keys("arrivals.wires", data, ("kind", "hot_wires", "hot_fraction"))
    kind = checker.choice("arrivals.wires", data, "kind", WIRE_KINDS, "round_robin")
    hot_wires = checker.integer(
        "arrivals.wires", data, "hot_wires", 1, minimum=1, maximum=width
    )
    hot_fraction = checker.number(
        "arrivals.wires", data, "hot_fraction", 0.9, minimum=0.0, maximum=1.0
    )
    return WireSpec(kind=kind, hot_wires=hot_wires, hot_fraction=hot_fraction)


def _check_arrivals(
    checker: _Checker, data: Mapping[str, Any], width: int
) -> ArrivalSpec:
    checker.unknown_keys(
        "arrivals",
        data,
        ("kind", "tokens", "duration", "rate", "bursts", "spacing",
         "phases", "cycles", "wires"),
    )
    if not data:
        checker.problem(
            "arrivals",
            "table is required (kinds: %s)" % ", ".join(ARRIVAL_KINDS),
        )
    kind = checker.choice("arrivals", data, "kind", ARRIVAL_KINDS, "uniform")
    tokens = checker.integer(
        "arrivals", data, "tokens", 100, minimum=1, maximum=MAX_TOKENS
    )
    if "tokens" not in data and data:
        checker.problem(
            "arrivals.tokens",
            "the injection budget is required (1..%d)" % MAX_TOKENS,
        )
    duration = checker.number("arrivals", data, "duration", 100.0, positive=True)
    rate = checker.number("arrivals", data, "rate", 1.0, positive=True)
    bursts = checker.integer("arrivals", data, "bursts", 1, minimum=1)
    spacing = checker.number("arrivals", data, "spacing", 1.0, positive=True)
    cycles = checker.integer("arrivals", data, "cycles", 1, minimum=1)
    phases: Tuple[Tuple[float, float], ...] = ()
    raw_phases = data.get("phases")
    if raw_phases is not None:
        ok = isinstance(raw_phases, list) and raw_phases
        parsed: List[Tuple[float, float]] = []
        if ok:
            for entry in raw_phases:
                if (
                    not isinstance(entry, (list, tuple))
                    or len(entry) != 2
                    or not all(
                        isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in entry
                    )
                    or entry[0] <= 0
                    or entry[1] < 0
                ):
                    ok = False
                    break
                parsed.append((float(entry[0]), float(entry[1])))
        if not ok:
            checker.problem(
                "arrivals.phases",
                "must be a non-empty array of [duration > 0, rate >= 0] pairs",
            )
        else:
            phases = tuple(parsed)
    if kind == "onoff" and not phases:
        checker.problem(
            "arrivals.phases",
            "required for kind 'onoff' (array of [duration, rate] pairs)",
        )
    wires = _check_wires(checker, checker.table(data, "wires"), width)
    return ArrivalSpec(
        kind=kind, tokens=tokens, duration=duration, rate=rate,
        bursts=bursts, spacing=spacing, phases=phases, cycles=cycles,
        wires=wires,
    )


def _check_churn(checker: _Checker, data: Mapping[str, Any]) -> ChurnSpec:
    checker.unknown_keys(
        "churn",
        data,
        ("kind", "duration", "join_rate", "leave_rate", "crash_rate",
         "rate", "batch", "at", "fraction", "heal_after", "period",
         "count", "first"),
    )
    kind = checker.choice("churn", data, "kind", CHURN_KINDS, "none")
    duration = checker.number("churn", data, "duration", 100.0, positive=True)
    join_rate = checker.number("churn", data, "join_rate", 0.0, minimum=0.0)
    leave_rate = checker.number("churn", data, "leave_rate", 0.0, minimum=0.0)
    crash_rate = checker.number("churn", data, "crash_rate", 0.0, minimum=0.0)
    rate = checker.number("churn", data, "rate", 0.02, positive=True)
    batch = checker.integer("churn", data, "batch", 2, minimum=1)
    at = checker.number("churn", data, "at", 50.0, positive=True)
    fraction = checker.number("churn", data, "fraction", 0.5, minimum=0.0, maximum=0.9)
    heal_after = checker.number("churn", data, "heal_after", 25.0, positive=True)
    period = checker.number("churn", data, "period", 5.0, positive=True)
    count = checker.integer("churn", data, "count", 10, minimum=0)
    first = checker.choice("churn", data, "first", ("join", "leave"), "join")
    if kind == "poisson" and not (join_rate or leave_rate or crash_rate):
        checker.problem(
            "churn",
            "kind 'poisson' needs at least one of join_rate / "
            "leave_rate / crash_rate > 0",
        )
    return ChurnSpec(
        kind=kind, duration=duration, join_rate=join_rate,
        leave_rate=leave_rate, crash_rate=crash_rate, rate=rate,
        batch=batch, at=at, fraction=fraction, heal_after=heal_after,
        period=period, count=count, first=first,
    )


def _check_app(checker: _Checker, data: Mapping[str, Any], width: int) -> AppSpec:
    checker.unknown_keys("app", data, ("kind", "servers"))
    kind = checker.choice("app", data, "kind", APP_KINDS, "tokens")
    servers = checker.integer("app", data, "servers", 0, minimum=0, maximum=width)
    return AppSpec(kind=kind, servers=servers)


def validate_spec_data(
    data: Mapping[str, Any], name: str
) -> Tuple[Optional[ScenarioSpec], List[str]]:
    """Validate a parsed spec document.

    Returns ``(spec, problems)``: on success ``problems`` is empty; on
    failure ``spec`` is ``None`` and every problem is listed. ``name``
    is the scenario's registry name (usually the file stem); a ``name``
    field inside the document must match it, so a copied spec file
    cannot silently shadow another scenario.
    """
    checker = _Checker()
    if not isinstance(data, Mapping):
        return None, ["spec: top level must be a table/object, got %s" % _kind(data)]
    checker.unknown_keys(
        "", data,
        ("name", "description", "network", "system", "latency",
         "arrivals", "churn", "app", "record"),
    )
    declared = data.get("name")
    if declared is not None and declared != name:
        checker.problem(
            "name",
            "declared name %r does not match the registry name %r "
            "(the file stem)" % (declared, name),
        )
    description = checker.string("spec", data, "description", "")

    network = checker.table(data, "network")
    checker.unknown_keys("network", network, ("width", "convention"))
    width = checker.integer("network", network, "width", 16, minimum=2, maximum=1024)
    if not _is_power_of_two(width):
        checker.problem("network.width", "must be a power of two >= 2, got %d" % width)
        width = 16
    convention = checker.choice("network", network, "convention", CONVENTIONS, "ahs94")

    system = checker.table(data, "system")
    checker.unknown_keys(
        "system", system,
        ("seed", "initial_nodes", "min_nodes", "step_multiplier", "hysteresis"),
    )
    seed = checker.integer("system", system, "seed", 0, minimum=0)
    initial_nodes = checker.integer(
        "system", system, "initial_nodes", 8, minimum=1, maximum=4096
    )
    min_nodes = checker.integer("system", system, "min_nodes", 2, minimum=1)
    if min_nodes > initial_nodes:
        checker.problem(
            "system.min_nodes",
            "must be <= system.initial_nodes (%d > %d)" % (min_nodes, initial_nodes),
        )
        min_nodes = initial_nodes
    step_multiplier = checker.integer(
        "system", system, "step_multiplier", 4, minimum=1
    )
    hysteresis = checker.integer("system", system, "hysteresis", 0, minimum=0)

    latency = _check_latency(checker, checker.table(data, "latency"))
    arrivals = _check_arrivals(checker, checker.table(data, "arrivals"), width)
    churn = _check_churn(checker, checker.table(data, "churn"))
    app = _check_app(checker, checker.table(data, "app"), width)

    record_raw = data.get("record", ["tokens"])
    record: Tuple[str, ...] = ("tokens",)
    if (
        not isinstance(record_raw, list)
        or not all(isinstance(item, str) for item in record_raw)
    ):
        checker.problem("record", "must be an array of statistic-group names")
    else:
        bad = sorted(set(record_raw) - set(RECORD_GROUPS))
        if bad:
            checker.problem(
                "record",
                "unknown group(s) %s (valid: %s)"
                % (", ".join(repr(b) for b in bad), ", ".join(RECORD_GROUPS)),
            )
        # ``tokens`` (conservation accounting) is always recorded.
        record = tuple(
            group for group in RECORD_GROUPS
            if group == "tokens" or group in record_raw
        )

    if checker.problems:
        return None, checker.problems
    return (
        ScenarioSpec(
            name=name,
            description=description,
            width=width,
            convention=convention,
            seed=seed,
            initial_nodes=initial_nodes,
            min_nodes=min_nodes,
            step_multiplier=step_multiplier,
            hysteresis=hysteresis,
            latency=latency,
            arrivals=arrivals,
            churn=churn,
            app=app,
            record=record,
        ),
        [],
    )


def parse_spec(data: Mapping[str, Any], name: str) -> ScenarioSpec:
    """Validate and return a spec, raising :class:`ScenarioSpecError`
    with every problem on failure."""
    spec, problems = validate_spec_data(data, name)
    if spec is None:
        raise ScenarioSpecError(name, problems)
    return spec


def _read_spec_document(path: str) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    """Parse a spec file into a plain dict; problems instead of raises."""
    suffix = os.path.splitext(path)[1].lower()
    if suffix not in SPEC_SUFFIXES:
        return None, [
            "file: unsupported suffix %r (use one of: %s)"
            % (suffix, ", ".join(SPEC_SUFFIXES))
        ]
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return None, ["file: cannot read: %s" % exc]
    if suffix == ".json":
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return None, ["file: invalid JSON: %s" % exc]
    else:
        if tomllib is None:
            return None, [
                "file: TOML specs need Python >= 3.11 (tomllib); "
                "re-author as JSON for older interpreters"
            ]
        try:
            document = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return None, ["file: invalid TOML: %s" % exc]
    if not isinstance(document, dict):
        return None, ["file: top level must be a table/object"]
    return document, []


def spec_name_for_path(path: str) -> str:
    """The registry name a spec file binds: its stem."""
    return os.path.splitext(os.path.basename(path))[0]


def spec_file_problems(path: str) -> List[str]:
    """Every schema problem of one spec file (empty list = valid).

    The RSC308 lint entry point: parse errors, read errors, and schema
    violations all come back as the same actionable one-liners
    ``parse_spec`` would raise with.
    """
    document, problems = _read_spec_document(path)
    if document is None:
        return problems
    _, problems = validate_spec_data(document, spec_name_for_path(path))
    return problems


def load_spec(path: str) -> ScenarioSpec:
    """Load and validate one spec file (``.json`` or ``.toml``)."""
    name = spec_name_for_path(path)
    document, problems = _read_spec_document(path)
    if document is None:
        raise ScenarioSpecError(name, problems)
    return parse_spec(document, name)
