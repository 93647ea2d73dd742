"""Properties of the scenario schema, with specs drawn from its own rows.

The generator reads every key, kind, default and bound from the field
rows of the spec dataclasses, so a new row is drawn without touching
this file. What the rows cannot say, the cross-field rules, is made
true after the draw. The scope keeps a run to milliseconds: width
<= 16, at most 8 initial nodes, at most 60 tokens, and every number
without an upper bound drawn within ``SPAN`` of its lower bound.
"""

from dataclasses import fields, is_dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StepPropertyViolation
from repro.scenarios.compile import run_scenario
from repro.scenarios.spec import (
    RECORD_GROUPS,
    LatencySpec,
    ScenarioSpec,
    validate_spec_data,
)

NAME = "drawn"
#: Upper bounds of the scope, tighter than the rows' own.
CAPS = {"width": 16, "initial_nodes": 8, "tokens": 60}
SPAN = 4.0

#: Array rows, by their annotation.
_FLOATS = st.lists(st.floats(0.0, SPAN), min_size=1, max_size=4)
ARRAYS = {
    "Tuple[float, ...]": _FLOATS,
    "Optional[Tuple[float, ...]]": _FLOATS,
    "Tuple[Tuple[float, float], ...]": st.lists(
        st.tuples(st.floats(0.05, SPAN), st.floats(0.0, SPAN)).map(list),
        min_size=1, max_size=3,
    ),
    "Tuple[str, ...]": st.lists(st.sampled_from(RECORD_GROUPS), unique=True),
}


def row_values(row, top):
    """Valid values of one scalar or array row, within the scope."""
    rules = row.metadata
    if row.type in ARRAYS:
        return ARRAYS[row.type]
    if isinstance(row.default, str):
        if "choices" in rules:
            return st.sampled_from(rules["choices"])
        return st.text(max_size=8)
    lo = rules.get("lo", 0)
    hi = rules.get("hi")
    if isinstance(hi, str):
        hi = top[hi]
    cap = CAPS.get(row.name, lo + SPAN)
    hi = cap if hi is None else min(hi, cap)
    if isinstance(row.default, float):
        return st.floats(0.05 if rules.get("positive") else lo, hi)
    if row.name == "width":  # a power of two: the rows say only its range
        return st.integers(1, hi.bit_length() - 1).map(lambda k: 2 ** k)
    return st.integers(lo, int(hi))


def draw_table(draw, cls, top, document):
    """Every row of ``cls``: its kind always, any other key maybe.

    ``top`` collects the top level's values, drawn or default, for the
    bounds that name one (``hi="width"``).
    """
    kind = None
    for row in fields(cls):
        rules = row.metadata
        if row.name == "name" or ("kinds" in rules and kind not in rules["kinds"]):
            continue
        into = document.setdefault(rules["table"], {}) if "table" in rules else document
        if is_dataclass(row.default):
            into[row.name] = draw_table(draw, type(row.default), top, {})
        elif row.name == "kind" or "required" in rules or draw(st.booleans()):
            into[row.name] = draw(row_values(row, top))
        if row.name == "kind":
            kind = into[row.name]
        if cls is ScenarioSpec:
            top[row.name] = into.get(row.name, row.default)
    return document


def satisfy_cross_field_rules(draw, document):
    """Make the rules that relate two keys hold (``_cross_field_problems``)."""
    system = document.setdefault("system", {})
    system["min_nodes"] = min(
        system.get("min_nodes", ScenarioSpec.min_nodes),
        system.get("initial_nodes", ScenarioSpec.initial_nodes),
    )
    latency = document["latency"]
    if latency["kind"] == "uniform":
        bounds = sorted(
            (latency.get("low", LatencySpec.low), latency.get("high", LatencySpec.high))
        )
        latency["low"], latency["high"] = bounds
    if "weights" in latency:
        values = latency.get("values", LatencySpec.values)
        latency["weights"] = (latency["weights"] * len(values))[: len(values)]
        latency["weights"][0] = max(latency["weights"][0], 1.0)
    arrivals = document["arrivals"]
    if arrivals["kind"] == "onoff" and "phases" not in arrivals:
        arrivals["phases"] = draw(ARRAYS["Tuple[Tuple[float, float], ...]"])
    churn = document["churn"]
    if churn["kind"] == "poisson" and not any(
        churn.get(key) for key in ("join_rate", "leave_rate", "crash_rate")
    ):
        churn["join_rate"] = draw(st.floats(0.05, SPAN))


@st.composite
def documents(draw):
    top, document = {}, {}
    draw_table(draw, ScenarioSpec, top, document)
    satisfy_cross_field_rules(draw, document)
    return top, document


def kinded_tables(cls, document, path):
    """``(path, cls, table)`` for every table of ``document`` with a kind."""
    if "kind" in document:
        yield path, cls, document
    for row in fields(cls):
        if is_dataclass(row.default) and row.name in document:
            yield from kinded_tables(
                type(row.default), document[row.name], path + (row.name,)
            )


@st.composite
def out_of_kind(draw):
    """A valid document plus one key its table's kind does not take."""
    top, document = draw(documents())
    candidates = [
        (path, table, row)
        for path, cls, table in kinded_tables(ScenarioSpec, document, ())
        for row in fields(cls)
        if "kinds" in row.metadata and table["kind"] not in row.metadata["kinds"]
    ]
    path, table, row = draw(st.sampled_from(candidates))
    table[row.name] = draw(row_values(row, top))
    return document, ".".join(path + (row.name,))


@settings(max_examples=200, deadline=None)
@given(documents())
def test_a_drawn_spec_validates_and_runs_green(drawn):
    _, document = drawn
    spec, problems = validate_spec_data(document, NAME)
    assert problems == []
    try:
        run = run_scenario(spec)  # verify() runs inside and raises on a violation
    except StepPropertyViolation:
        # The paper's literal merger wiring does not count (``core.wiring``):
        # it is the one spec that may break the step property.
        assert spec.convention == "paper-prose"
        return
    for system in run.summary["systems"]:
        assert system["tokens"]["unaccounted"] == 0


@settings(max_examples=200, deadline=None)
@given(out_of_kind())
def test_one_out_of_kind_key_is_one_problem_naming_it(drawn):
    document, path = drawn
    spec, problems = validate_spec_data(document, NAME)
    assert spec is None
    assert len(problems) == 1, problems
    assert problems[0].startswith("%s: only for kind " % path)

