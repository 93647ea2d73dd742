"""Boundary wrappers and the per-layer ledger of the traced run.

The traced run answers "which layer spent the time". It installs a
wrapper on each boundary in :data:`BOUNDARIES` — class attributes for
methods, module attributes for functions a module imported by name —
*before* the system under test is built, because the bus and the system
hoist bound methods such as ``self._post_kind`` in ``__init__``.

Every wrapped call is a span: boundary, start, end, and the span that
caused it (the enclosing one). Per boundary the tracer keeps calls,
total time, time and calls of direct children, and descendant calls.
Full span records are kept only for a window at the start of the timed
region (until ``TOKEN_WINDOW`` tokens have retired) and for the first
``MEMBER_WINDOW`` membership operations. Nothing is written until the
run ends.

A wrapper costs about as much as the cheapest things it wraps, so raw
durations are useless by themselves. :func:`calibrate` measures the
cost of one wrapper around a no-op, split into the part that falls
inside the span's own timestamps (``inside``) and the part the parent
sees (``outside``); :meth:`Tracer.ledger` subtracts both:

    self  = total - children - inside * calls - outside * child calls
    net   = traced wall - (inside + outside) * all calls

Shares are ``self / net``. ``trace.coverage`` is their sum — the part
of the de-instrumented time that some layer owns; the rest is the
benchmark's own loop and unwrapped glue. End-to-end metrics never come
from a traced run.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class name or None for a module attribute, attributes).
BOUNDARIES: List[Tuple[str, str, Optional[str], Tuple[str, ...]]] = [
    (
        "sim.events",
        "repro.sim.events",
        "Simulator",
        (
            "schedule",
            "schedule_at",
            "schedule_pooled",
            "schedule_at_pooled",
            "run_until",
            "run_until_idle",
            "step",
            "claim_inline_slot",
        ),
    ),
    ("sim.node", "repro.sim.node", "MessageBus", ("send",)),
    ("sim.node", "repro.sim.node", "Envelope", ("arrive", "deliver")),
    ("runtime.host", "repro.runtime.host", "NodeHost", ("handle_message",)),
    (
        "runtime.system",
        "repro.runtime.system",
        "AdaptiveCountingSystem",
        ("send_token", "inject_token", "retire_token", "reroute_token"),
    ),
    ("core.atomics", "repro.core.atomics", "TokenLedger", ("post", "settle")),
    ("core.atomics", "repro.core.atomics", "AtomicCounter", ("increment",)),
    ("core.atomics", "repro.core.atomics", "PerWireCounters", ("increment",)),
    ("core.components", "repro.core.components", "ComponentState", ("route_token",)),
    ("runtime.lookup", "repro.runtime.lookup", "InputLookup", ("find",)),
    # Imported by name into the module that calls it: patch it there.
    ("chord.fingers", "repro.runtime.lookup", None, ("chord_lookup",)),
    (
        "runtime.membership",
        "repro.runtime.membership",
        "MembershipManager",
        ("join", "leave", "crash"),
    ),
    ("runtime.rules", "repro.runtime.rules", "RulesEngine", ("evaluate",)),
    ("chord.estimation", "repro.chord.estimation", "LevelEstimator", ("level_estimate",)),
    ("chord.ring", "repro.chord.ring", "ChordRing", ("join", "remove")),
    ("runtime.reconfig", "repro.runtime.reconfig", "Reconfigurator", ("split", "merge")),
    (
        "staticcheck.cuts",
        "repro.runtime.reconfig",
        None,
        ("validate_split", "validate_merge"),
    ),
    ("core.decomposition", "repro.core.decomposition", "DecompositionTree", ("node",)),
    ("runtime.stabilization", "repro.runtime.stabilization", "Stabilizer", ("stabilize",)),
]

#: Spans are recorded in full until this many tokens have retired ...
TOKEN_WINDOW = 200
#: ... and for this many membership operations.
MEMBER_WINDOW = 50

_CALLS, _TOTAL, _CHILD_TIME, _CHILD_CALLS, _DESCENDANTS = range(5)


def _token_of(holder: Any) -> Optional[int]:
    token = getattr(holder, "token", None)
    return getattr(token, "token_id", None)


#: How a span learns which request it belongs to: (args, result) -> id.
#: Spans of one token share its ``token_id``; everything else inherits
#: the id of the span that caused it when the records are written out.
_TAGGERS: Dict[str, Callable[[tuple, Any], Any]] = {
    "Envelope.arrive": lambda args, result: _token_of(args[0].message),
    "Envelope.deliver": lambda args, result: _token_of(args[0].message),
    "NodeHost.handle_message": lambda args, result: _token_of(args[1]),
    "AdaptiveCountingSystem.send_token": lambda args, result: args[3].token_id,
    "AdaptiveCountingSystem.reroute_token": lambda args, result: args[3].token_id,
    "AdaptiveCountingSystem.retire_token": lambda args, result: args[1].token_id,
    "AdaptiveCountingSystem.inject_token": lambda args, result: result.token_id,
}


class Tracer:
    """Installs the wrappers and aggregates what they see."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._aggregates: List[List[int]] = []
        self._taggers: List[Optional[Callable]] = []
        # Per open span: time and calls of its direct children, and its
        # id. The bottom entry stands for the benchmark's own code.
        self._times: List[int] = [0]
        self._counts: List[int] = [0]
        self._idents: List[int] = [0]
        # [span counter, recording?] — a list so wrappers share it.
        self._state = [0, False]
        self._records: List[tuple] = []
        self._window_open = False
        self._scope_depth = 0
        self._member_ops = 0
        self._retire: Optional[List[int]] = None
        self._installed: List[Tuple[Any, str, Any]] = []
        self._active = False
        self._origin = 0
        self._frozen: List[List[int]] = []
        self.wall_ns = 0

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, function: Callable, layer: str, name: str) -> Callable:
        """The span wrapper for one boundary."""
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        aggregate = [0, 0, 0, 0, 0]
        self._aggregates.append(aggregate)
        self._taggers.append(_TAGGERS.get(name))
        times, counts, idents = self._times, self._counts, self._idents
        state = self._state
        record = self._record
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            state[0] = ident = state[0] + 1
            # Parallel int stacks, not a frame object per call: a list
            # allocated here would be one more GC-tracked object per
            # span, and the extra collections are tracing overhead that
            # no calibration loop sees.
            times.append(0)
            counts.append(0)
            idents.append(ident)
            result = None
            start = clock()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                duration = end - start
                child_time = times.pop()
                child_calls = counts.pop()
                idents.pop()
                times[-1] += duration
                counts[-1] += 1
                aggregate[0] += 1
                aggregate[1] += duration
                aggregate[2] += child_time
                aggregate[3] += child_calls
                aggregate[4] += state[0] - ident
                if state[1]:
                    record(index, ident, idents[-1], start, end, args, result)

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(function, "__name__", name)
        return wrapper

    def _scoped(self, function: Callable) -> Callable:
        """Record the spans of the first ``MEMBER_WINDOW`` membership
        operations in full, whatever the token window is doing."""
        state = self._state

        def scoped(*args, **kwargs):
            if not self._active or self._member_ops >= MEMBER_WINDOW:
                return function(*args, **kwargs)
            self._member_ops += 1
            self._scope_depth += 1
            state[1] = True
            try:
                return function(*args, **kwargs)
            finally:
                self._scope_depth -= 1
                state[1] = self._window_open or self._scope_depth > 0

        scoped.__wrapped__ = function  # type: ignore[attr-defined]
        return scoped

    def _record(self, index, ident, parent, start, end, args, result) -> None:
        tagger = self._taggers[index]
        request = None
        if tagger is not None:
            try:
                request = tagger(args, result)
            except (AttributeError, IndexError):
                request = None  # a batch message, or a call that raised
        if request is None and self.layers[index] == "runtime.membership":
            request = "m%d" % self._member_ops
        self._records.append((index, ident, parent, start, end, request))
        if self._window_open and self._retire[_CALLS] >= TOKEN_WINDOW:
            self._window_open = False
            self._state[1] = self._scope_depth > 0

    # ------------------------------------------------------------------
    # install / remove
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every boundary. Call before building the system."""
        for layer, module_name, class_name, attributes in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for attribute in attributes:
                original = owner.__dict__[attribute]
                name = "%s.%s" % (class_name or module_name, attribute)
                wrapped = self.wrap(original, layer, name)
                if name == "AdaptiveCountingSystem.retire_token":
                    self._retire = self._aggregates[-1]
                if layer == "runtime.membership":
                    wrapped = self._scoped(wrapped)
                setattr(owner, attribute, wrapped)
                self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # the timed region
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start of the timed region: forget what set-up did."""
        for aggregate in self._aggregates:
            aggregate[:] = [0, 0, 0, 0, 0]
        self._times[0] = self._counts[0] = 0
        self._state[0] = 0
        self._records.clear()
        self._member_ops = 0
        self._window_open = self._retire is not None
        self._state[1] = self._window_open
        self._active = True
        self._origin = perf_counter_ns()

    def end(self) -> None:
        self.wall_ns = perf_counter_ns() - self._origin
        self._state[1] = False
        self._window_open = False
        self._active = False
        self._frozen = [list(aggregate) for aggregate in self._aggregates]

    # ------------------------------------------------------------------
    # the ledger
    # ------------------------------------------------------------------
    def span_count(self) -> int:
        """Spans in the timed region."""
        return sum(aggregate[_CALLS] for aggregate in self._frozen)

    def ledger(self, inside_ns: float, outside_ns: float) -> Dict[str, Any]:
        """Per-boundary and per-layer figures, wrapper cost removed."""
        per_call = inside_ns + outside_ns
        all_calls = self.span_count()
        net_ns = self.wall_ns - per_call * all_calls
        boundaries = {}
        layers: Dict[str, Dict[str, float]] = {}
        for name, layer, aggregate in zip(self.names, self.layers, self._frozen):
            calls = aggregate[_CALLS]
            self_ns = (
                aggregate[_TOTAL]
                - aggregate[_CHILD_TIME]
                - inside_ns * calls
                - outside_ns * aggregate[_CHILD_CALLS]
            )
            inclusive_ns = (
                aggregate[_TOTAL] - inside_ns * calls - per_call * aggregate[_DESCENDANTS]
            )
            boundaries[name] = {
                "layer": layer,
                "calls": calls,
                "total_ns": aggregate[_TOTAL],
                "self_ns": self_ns,
                "inclusive_ms_per_call": inclusive_ns / calls / 1e6 if calls else 0.0,
            }
            entry = layers.setdefault(layer, {"calls": 0, "self_ns": 0.0})
            entry["calls"] += calls
            entry["self_ns"] += self_ns
        for entry in layers.values():
            entry["self_share"] = max(0.0, entry["self_ns"] / net_ns)
        return {
            "wall_ns": self.wall_ns,
            "net_ns": net_ns,
            "calls": all_calls,
            "coverage": sum(entry["self_share"] for entry in layers.values()),
            "layers": layers,
            "boundaries": boundaries,
        }

    def spans(self) -> List[List[Any]]:
        """The recorded spans, oldest first, as
        ``[boundary, id, parent id, start ns, end ns, request]`` with
        times relative to the start of the timed region."""
        records = sorted(self._records, key=lambda record: record[1])
        request_of: Dict[int, Any] = {}
        spans = []
        # Sorted by id, a parent always precedes its children.
        for index, ident, parent, start, end, request in records:
            if request is None:
                request = request_of.get(parent)
            request_of[ident] = request
            origin = self._origin
            spans.append(
                [self.names[index], ident, parent, start - origin, end - origin, request]
            )
        return spans


class _Noop:
    def call(self) -> None:
        return None


def calibrate(rounds: int = 100_000) -> Tuple[float, float]:
    """Cost in ns of one wrapper around a no-op: (inside, outside).

    ``inside`` is what the span's own timestamps see beyond the call
    itself; ``outside`` is the rest, which lands in the parent's span.
    """
    tracer = Tracer()
    plain = _Noop.call
    wrapped = tracer.wrap(plain, "calibration", "noop")
    target = _Noop()
    clock = perf_counter_ns
    best_plain = best_wrapped = best_inside = float("inf")
    for _ in range(5):
        start = clock()
        for _ in range(rounds):
            plain(target)
        best_plain = min(best_plain, (clock() - start) / rounds)
        tracer._aggregates[0][:] = [0, 0, 0, 0, 0]
        start = clock()
        for _ in range(rounds):
            wrapped(target)
        best_wrapped = min(best_wrapped, (clock() - start) / rounds)
        best_inside = min(best_inside, tracer._aggregates[0][_TOTAL] / rounds)
    inside = max(0.0, best_inside - best_plain)
    outside = max(0.0, best_wrapped - best_plain - inside)
    return inside, outside
