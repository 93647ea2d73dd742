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

Schema
------
The dataclasses below are the grammar: each field is one key of the
document. ``ScenarioSpec``'s fields are the top level (its scalar keys
sit in the ``[network]`` and ``[system]`` tables their ``table``
names), and a field holding another spec is a sub-table. A key's
default is its field's default, and its type is the default's type.
The field's metadata holds the rest:

* ``kinds`` — the values of the table's ``kind`` the key belongs to;
  setting it under any other kind is a problem;
* ``lo`` / ``hi`` / ``positive`` — bounds; ``hi="width"`` is the
  network's width;
* ``choices`` — the valid strings;
* ``parse`` — the converter of an array key, raising ``ValueError``
  with the problem;
* ``required`` — the problem reported when the key is missing (only
  ``arrivals`` and its ``tokens``).

The rules that relate two keys are :func:`_cross_field_problems`.
Validation collects *every* problem (not just the first) and reports
each as ``<table>.<field>: <what is wrong> (<what would be valid>)`` —
the same strings the RSC308 lint emits, so a bad committed spec fails
``repro check --lint`` with an actionable message.
"""

from __future__ import annotations

import json
import os
from dataclasses import Field, dataclass, field, fields, is_dataclass, replace
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

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


def _key(default: Any, **rules: Any) -> Any:
    """One schema row: a key's default plus its rules (see above)."""
    return field(default=default, metadata=rules)


def _kind(value: Any) -> str:
    return type(value).__name__ if value is not None else "nothing"


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_power_of_two(value: int) -> bool:
    return value >= 2 and (value & (value - 1)) == 0


def _numbers(problem: str) -> Callable[[Any], Tuple[float, ...]]:
    """The parser of a non-empty array of nonnegative numbers."""

    def parse(raw: Any) -> Tuple[float, ...]:
        if isinstance(raw, list) and raw and all(
            _is_number(v) and v >= 0 for v in raw
        ):
            return tuple(float(v) for v in raw)
        raise ValueError(problem)

    return parse


_WEIGHTS = (
    "must be an array of nonnegative numbers matching latency.values "
    "one-to-one, not all zero"
)


def _phases(raw: Any) -> Tuple[Tuple[float, float], ...]:
    if isinstance(raw, list) and raw and all(
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(_is_number(v) for v in entry)
        and entry[0] > 0
        and entry[1] >= 0
        for entry in raw
    ):
        return tuple((float(span), float(rate)) for span, rate in raw)
    raise ValueError("must be a non-empty array of [duration > 0, rate >= 0] pairs")


def _record_groups(raw: Any) -> Tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(item, str) for item in raw):
        raise ValueError("must be an array of statistic-group names")
    bad = sorted(set(raw) - set(RECORD_GROUPS))
    if bad:
        raise ValueError(
            "unknown group(s) %s (valid: %s)"
            % (", ".join(repr(b) for b in bad), ", ".join(RECORD_GROUPS))
        )
    # ``tokens`` (conservation accounting) is always recorded.
    return tuple(g for g in RECORD_GROUPS if g == "tokens" or g in raw)


@dataclass(frozen=True)
class LatencySpec:
    kind: str = _key("constant", choices=LATENCY_KINDS)
    value: float = _key(1.0, kinds=("constant",), lo=0.0)
    low: float = _key(0.5, kinds=("uniform",), lo=0.0)
    high: float = _key(2.0, kinds=("uniform",), lo=0.0)
    values: Tuple[float, ...] = _key(
        (0.5, 1.0, 2.0), kinds=("discrete",),
        parse=_numbers("must be a non-empty array of nonnegative numbers"),
    )
    weights: Optional[Tuple[float, ...]] = _key(
        None, kinds=("discrete",), parse=_numbers(_WEIGHTS)
    )
    mean: float = _key(1.0, kinds=("exponential",), positive=True)


@dataclass(frozen=True)
class WireSpec:
    kind: str = _key("round_robin", choices=WIRE_KINDS)
    hot_wires: int = _key(1, kinds=("hot",), lo=1, hi="width")
    hot_fraction: float = _key(0.9, kinds=("hot",), lo=0.0, hi=1.0)


@dataclass(frozen=True)
class ArrivalSpec:
    kind: str = _key("uniform", choices=ARRIVAL_KINDS)
    tokens: int = _key(
        100, lo=1, hi=MAX_TOKENS,
        required="the injection budget is required (1..%d)" % MAX_TOKENS,
    )
    duration: float = _key(100.0, kinds=("uniform",), positive=True)
    rate: float = _key(1.0, kinds=("poisson",), positive=True)
    bursts: int = _key(1, kinds=("burst",), lo=1)
    spacing: float = _key(1.0, kinds=("burst",), positive=True)
    phases: Tuple[Tuple[float, float], ...] = _key(
        (), kinds=("onoff",), parse=_phases
    )
    cycles: int = _key(1, kinds=("onoff",), lo=1)
    wires: WireSpec = WireSpec()


@dataclass(frozen=True)
class ChurnSpec:
    kind: str = _key("none", choices=CHURN_KINDS)
    duration: float = _key(100.0, kinds=("poisson", "correlated"), positive=True)
    join_rate: float = _key(0.0, kinds=("poisson",), lo=0.0)
    leave_rate: float = _key(0.0, kinds=("poisson",), lo=0.0)
    crash_rate: float = _key(0.0, kinds=("poisson",), lo=0.0)
    rate: float = _key(0.02, kinds=("correlated",), positive=True)
    batch: int = _key(2, kinds=("correlated",), lo=1)
    at: float = _key(50.0, kinds=("partition",), positive=True)
    fraction: float = _key(0.5, kinds=("partition",), lo=0.0, hi=0.9)
    heal_after: float = _key(25.0, kinds=("partition",), positive=True)
    period: float = _key(5.0, kinds=("oscillation",), positive=True)
    count: int = _key(10, kinds=("oscillation",), lo=0)
    first: str = _key("join", kinds=("oscillation",), choices=("join", "leave"))


@dataclass(frozen=True)
class AppSpec:
    kind: str = _key("tokens", choices=APP_KINDS)
    # 0 = network width
    servers: int = _key(0, kinds=("load_balancer", "mixed"), lo=0, hi="width")


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated scenario, ready for the compiler."""

    name: str = ""
    description: str = ""
    width: int = _key(16, table="network", lo=2, hi=1024)
    convention: str = _key("ahs94", table="network", choices=CONVENTIONS)
    seed: int = _key(0, table="system", lo=0)
    initial_nodes: int = _key(8, table="system", lo=1, hi=4096)
    min_nodes: int = _key(2, table="system", lo=1)
    step_multiplier: int = _key(4, table="system", lo=1)
    hysteresis: int = _key(0, table="system", lo=0)
    latency: LatencySpec = LatencySpec()
    arrivals: ArrivalSpec = _key(
        ArrivalSpec(),
        required="table is required (kinds: %s)" % ", ".join(ARRIVAL_KINDS),
    )
    churn: ChurnSpec = ChurnSpec()
    app: AppSpec = AppSpec()
    record: Tuple[str, ...] = _key(("tokens",), parse=_record_groups)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """The same scenario under a different workload seed."""
        return replace(self, seed=seed)


#: A key the document leaves out (JSON's ``null`` is a value, not this).
_MISSING = object()


def _table(data: Mapping[str, Any], key: str, problems: List[str]) -> Dict[str, Any]:
    value = data.get(key, {})
    if not isinstance(value, dict):
        problems.append("%s: must be a table/object, got %s" % (key, _kind(value)))
        return {}
    return value


def _unknown_keys(
    where: str, data: Mapping[str, Any], allowed: Set[str], problems: List[str]
) -> None:
    for key in sorted(set(data) - allowed):
        problems.append(
            "%s: unknown field (valid: %s)"
            % ("%s.%s" % (where, key) if where else key, ", ".join(sorted(allowed)))
        )


def _value(row: Field, raw: Any, top: Mapping[str, Any]) -> Any:
    """``raw`` checked against its row; raises ``ValueError(problem)``."""
    rules, default = row.metadata, row.default
    if "parse" in rules:
        return rules["parse"](raw)
    if isinstance(default, str):
        choices = rules.get("choices")
        if choices is not None and (not isinstance(raw, str) or raw not in choices):
            raise ValueError("got %r, valid choices: %s" % (raw, ", ".join(choices)))
        if not isinstance(raw, str):
            raise ValueError("must be a string, got %s" % _kind(raw))
        return raw
    if isinstance(default, float):
        if not _is_number(raw):
            raise ValueError("must be a number, got %s" % _kind(raw))
        raw = float(raw)
    elif isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError("must be an integer, got %s" % _kind(raw))
    lo, hi = rules.get("lo"), rules.get("hi")
    if isinstance(hi, str):
        hi = top[hi]
    if rules.get("positive") and raw <= 0:
        raise ValueError("must be > 0, got %r" % raw)
    if lo is not None and raw < lo:
        raise ValueError("must be >= %r, got %r" % (lo, raw))
    if hi is not None and raw > hi:
        raise ValueError("must be <= %r, got %r" % (hi, raw))
    return raw


def _walk(
    cls: Any, data: Mapping[str, Any], where: str, problems: List[str],
    top: Optional[Dict[str, Any]] = None,
) -> Any:
    """One table of ``data`` read through the rows of ``cls``.

    Every problem is appended to ``problems``; a key with a problem
    takes its default, so the walk always returns an instance.
    """
    rows = fields(cls)
    values: Dict[str, Any] = {}
    top = values if top is None else top
    sources: Dict[Optional[str], Mapping[str, Any]] = {None: data}
    _unknown_keys(
        where, data, {r.metadata.get("table") or r.name for r in rows}, problems
    )
    kind: Optional[str] = None  # the table's kind, once read and valid
    for row in rows:
        rules, table = row.metadata, row.metadata.get("table")
        if table not in sources:
            sources[table] = _table(data, table, problems)
            _unknown_keys(
                table, sources[table],
                {r.name for r in rows if r.metadata.get("table") == table}, problems,
            )
        prefix = table or where
        path = "%s.%s" % (prefix, row.name) if prefix else row.name
        raw = sources[table].get(row.name, _MISSING)
        value, bad = row.default, False
        if raw is _MISSING or (raw == {} and "required" in rules):
            if "required" in rules:
                problems.append("%s: %s" % (path, rules["required"]))
        elif "kinds" in rules and kind is not None and kind not in rules["kinds"]:
            problems.append(
                "%s: only for kind %s (%s.kind is %r)"
                % (path, " or ".join(rules["kinds"]), where, kind)
            )
        elif is_dataclass(row.default):
            if isinstance(raw, dict):
                value = _walk(type(row.default), raw, path, problems, top)
            else:
                problems.append(
                    "%s: must be a table/object, got %s" % (path, _kind(raw))
                )
        else:
            try:
                value = _value(row, raw, top)
            except ValueError as exc:
                problems.append("%s: %s" % (path, exc))
                bad = True
        if row.name == "kind" and not bad:
            kind = value
        values[row.name] = value
    return cls(**values)


def _cross_field_problems(spec: ScenarioSpec) -> Iterator[str]:
    """The rules that relate two keys; each key's own rules are its row."""
    if not _is_power_of_two(spec.width):
        yield "network.width: must be a power of two >= 2, got %d" % spec.width
    if spec.min_nodes > spec.initial_nodes:
        yield "system.min_nodes: must be <= system.initial_nodes (%d > %d)" % (
            spec.min_nodes, spec.initial_nodes,
        )
    latency = spec.latency
    if latency.kind == "uniform" and latency.low > latency.high:
        yield "latency.low: must be <= latency.high (%r > %r)" % (
            latency.low, latency.high,
        )
    if latency.weights is not None and (
        len(latency.weights) != len(latency.values) or not any(latency.weights)
    ):
        yield "latency.weights: %s" % _WEIGHTS
    if spec.arrivals.kind == "onoff" and not spec.arrivals.phases:
        yield (
            "arrivals.phases: required for kind 'onoff' "
            "(array of [duration, rate] pairs)"
        )
    churn = spec.churn
    if churn.kind == "poisson" and not (
        churn.join_rate or churn.leave_rate or churn.crash_rate
    ):
        yield (
            "churn: kind 'poisson' needs at least one of join_rate / "
            "leave_rate / crash_rate > 0"
        )


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
    if not isinstance(data, Mapping):
        return None, ["spec: top level must be a table/object, got %s" % _kind(data)]
    problems: List[str] = []
    declared = data.get("name")
    if declared is not None and declared != name:
        problems.append(
            "name: declared name %r does not match the registry name %r "
            "(the file stem)" % (declared, name)
        )
    spec = _walk(ScenarioSpec, data, "", problems)
    problems.extend(_cross_field_problems(spec))
    if problems:
        return None, problems
    return replace(spec, name=name), []


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
