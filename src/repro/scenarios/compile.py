"""Lowering a validated spec onto the runtime/sim setup path.

The compiler turns a :class:`~repro.scenarios.spec.ScenarioSpec` into
runtime objects — an
:class:`~repro.runtime.system.AdaptiveCountingSystem` (two for the
producer-consumer app), a latency model, an arrival schedule, a wire
schedule and a churn trace — then executes the merged timeline and
returns a deterministic run summary.

Determinism contract
--------------------
Everything in :attr:`ScenarioRun.summary` is a pure function of the
spec (including its seed): simulated time only, no wall clock, and
every random draw comes from a seeded stream. Independent streams are
derived from the spec seed with fixed offsets so e.g. editing the
arrival process never perturbs node placement:

========  =======================
offset    stream
========  =======================
``+0``    the system itself (node ids, protocol randomness)
``+1``    churn trace
``+2``    latency model
``+3``    arrival process
``+4``    wire selection
``+5``    second system (producer-consumer request network)
========  =======================

The smoke matrix (:mod:`repro.scenarios.smoke`) digests the summary
plus the run's recorded metrics into the committed fingerprint; the
sanitizer (:mod:`repro.staticcheck.sanitize`) compares the
summaries of two runs under one perturbed schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.counter import DistributedCounter
from repro.apps.load_balancer import LoadBalancer
from repro.apps.producer_consumer import ProducerConsumerMatcher
from repro.core.wiring import MergerConvention
from repro.obs.metrics import Histogram
from repro.runtime.system import AdaptiveCountingSystem
from repro.scenarios.spec import ArrivalSpec, ChurnSpec, LatencySpec, ScenarioSpec
from repro.sim.arrivals import (
    burst_arrivals,
    onoff_arrivals,
    poisson_arrivals,
    uniform_arrivals,
    wire_schedule,
)
from repro.sim.failures import (
    ChurnEvent,
    churn_trace,
    correlated_crash_trace,
    oscillation_trace,
)
from repro.sim.latency import (
    ConstantLatency,
    DiscreteLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)

__all__ = [
    "ScenarioRun",
    "build_latency",
    "build_arrivals",
    "build_churn",
    "build_system",
    "run_scenario",
]

_CONVENTIONS = {
    "ahs94": MergerConvention.AHS94,
    "paper-prose": MergerConvention.PAPER_PROSE,
}


def build_latency(spec: LatencySpec, rng: random.Random) -> LatencyModel:
    """The spec's latency model, drawing from the given stream."""
    if spec.kind == "constant":
        return ConstantLatency(spec.value)
    if spec.kind == "uniform":
        return UniformLatency(spec.low, spec.high, rng)
    if spec.kind == "discrete":
        return DiscreteLatency(
            list(spec.values),
            rng,
            weights=list(spec.weights) if spec.weights is not None else None,
        )
    return ExponentialLatency(spec.mean, rng)


def build_arrivals(spec: ArrivalSpec, rng: random.Random) -> List[float]:
    """The spec's injection instants, time-ordered."""
    if spec.kind == "uniform":
        return uniform_arrivals(spec.tokens, spec.duration)
    if spec.kind == "poisson":
        return poisson_arrivals(rng, spec.tokens, spec.rate)
    if spec.kind == "burst":
        return burst_arrivals(spec.tokens, spec.bursts, spec.spacing)
    return onoff_arrivals(spec.phases, cycles=spec.cycles, max_tokens=spec.tokens)


def build_churn(
    spec: ChurnSpec, rng: random.Random, initial_nodes: int
) -> List[ChurnEvent]:
    """The spec's membership trace, time-ordered.

    ``partition`` is lowered to a correlated batch crash of
    ``fraction * initial_nodes`` nodes at ``at`` followed by an equal
    batch of joins at ``at + heal_after`` — there is no bus-level
    partition primitive, and from the token plane's point of view a
    partitioned half *is* a correlated failure until it heals.
    """
    if spec.kind == "none":
        return []
    if spec.kind == "poisson":
        return churn_trace(
            rng,
            duration=spec.duration,
            join_rate=spec.join_rate,
            leave_rate=spec.leave_rate,
            crash_rate=spec.crash_rate,
        )
    if spec.kind == "correlated":
        return correlated_crash_trace(
            rng, duration=spec.duration, rate=spec.rate, batch=spec.batch
        )
    if spec.kind == "partition":
        lost = max(1, int(spec.fraction * initial_nodes))
        events = [ChurnEvent(spec.at, "crash") for _ in range(lost)]
        heal_at = spec.at + spec.heal_after
        events.extend(ChurnEvent(heal_at, "join") for _ in range(lost))
        return events
    return oscillation_trace(spec.period, spec.count, first=spec.first)


def build_system(
    spec: ScenarioSpec, seed_offset: int = 0
) -> AdaptiveCountingSystem:
    """One converged system per the spec's network/system tables."""
    system = AdaptiveCountingSystem(
        width=spec.width,
        seed=spec.seed + seed_offset,
        initial_nodes=spec.initial_nodes,
        latency=build_latency(spec.latency, random.Random(spec.seed + 2)),
        convention=_CONVENTIONS[spec.convention],
        step_multiplier=spec.step_multiplier,
        hysteresis=spec.hysteresis,
    )
    system.converge()
    return system


@dataclass
class ScenarioRun:
    """One executed scenario: the deterministic summary plus handles
    for anyone who wants to poke at the final state."""

    spec: ScenarioSpec
    summary: Dict[str, Any]
    system: AdaptiveCountingSystem
    request_system: Optional[AdaptiveCountingSystem] = None


def _apply_churn(
    system: AdaptiveCountingSystem, action: str, min_nodes: int
) -> bool:
    """One membership event, honouring the node floor. Returns whether
    the event was applied (floored leaves/crashes are skipped)."""
    if action == "join":
        system.add_node()
        return True
    if system.num_nodes <= min_nodes:
        return False
    if action == "leave":
        system.remove_node()
    else:
        system.crash_node()
    return True


def _latency_percentiles(latencies: List) -> Dict[str, float]:
    histogram = Histogram()
    for value in latencies:
        if value is not None:
            histogram.record(value)
    return {"p50": histogram.p50, "p90": histogram.p90, "p99": histogram.p99}


def run_scenario(spec: ScenarioSpec) -> ScenarioRun:
    """Execute one scenario end to end and verify its invariants.

    Raises whatever the run raises: :class:`~repro.errors.ProtocolError`
    (and friends) from ``verify()`` is a *divergence*; anything else is
    a crash. The smoke runner tells the two apart.
    """
    system = build_system(spec)
    request_system: Optional[AdaptiveCountingSystem] = None
    systems = [system]
    if spec.app.kind == "producer_consumer":
        request_system = build_system(spec, seed_offset=5)
        systems.append(request_system)

    counter: Optional[DistributedCounter] = None
    balancer: Optional[LoadBalancer] = None
    matcher: Optional[ProducerConsumerMatcher] = None
    if spec.app.kind in ("counter", "mixed"):
        counter = DistributedCounter(system)
    if spec.app.kind in ("load_balancer", "mixed"):
        balancer = LoadBalancer(system, spec.app.servers or None)
    if request_system is not None:
        matcher = ProducerConsumerMatcher(system, request_system)

    arrivals = build_arrivals(spec.arrivals, random.Random(spec.seed + 3))
    wires = wire_schedule(
        random.Random(spec.seed + 4),
        spec.arrivals.wires.kind,
        spec.width,
        len(arrivals),
        hot_wires=spec.arrivals.wires.hot_wires,
        hot_fraction=spec.arrivals.wires.hot_fraction,
    )
    churn = build_churn(
        spec.churn, random.Random(spec.seed + 1), spec.initial_nodes
    )

    # One merged timeline: membership events sort before injections at
    # the same instant (a partition at t hits the tokens arriving at t).
    timeline: List[Tuple[float, int, int, Any]] = []
    timeline.extend(
        (event.time, 0, index, event.action)
        for index, event in enumerate(churn)
    )
    timeline.extend(
        (at, 1, index, wires[index]) for index, at in enumerate(arrivals)
    )
    timeline.sort(key=lambda entry: (entry[0], entry[1], entry[2]))

    events_before = [s.sim.events_run.get() for s in systems]
    applied_churn = {"join": 0, "leave": 0, "crash": 0, "skipped": 0}
    injected = 0
    now = 0.0
    for at, kind, index, payload in timeline:
        delta = at - now
        if delta > 0:
            for s in systems:
                s.advance(delta)
            now = at
        if kind == 0:
            targets = systems if request_system is not None else [system]
            for s in targets:
                if _apply_churn(s, payload, spec.min_nodes):
                    applied_churn[payload] += 1
                else:
                    applied_churn["skipped"] += 1
        else:
            wire = payload
            if matcher is not None:
                if index % 2 == 0:
                    matcher.offer("producer-%d" % index, wire)
                else:
                    matcher.request("consumer-%d" % index, wire)
            elif spec.app.kind == "mixed":
                assert counter is not None and balancer is not None
                if index % 2 == 0:
                    counter.request(wire)
                else:
                    balancer.submit("job-%d" % index, wire)
            elif counter is not None:
                counter.request(wire)
            elif balancer is not None:
                balancer.submit("job-%d" % index, wire)
            else:
                system.inject_token(wire)
            injected += 1

    for s in systems:
        s.run_until_quiescent()
    for s in systems:
        s.verify()

    summary: Dict[str, Any] = {
        "scenario": spec.name,
        "seed": spec.seed,
        "width": spec.width,
        "convention": spec.convention,
        "injected": injected,
        "churn": dict(applied_churn),
        "systems": [],
    }
    for position, s in enumerate(systems):
        stats = s.token_stats
        issued = stats.issued.get()
        retired = stats.retired.get()
        dropped = stats.dropped.get()
        entry: Dict[str, Any] = {
            "tokens": {
                "issued": issued,
                "retired": retired,
                "dropped": dropped,
                "unaccounted": issued - retired - dropped,
            },
            "nodes": s.num_nodes,
            "sim_time": round(s.sim.now, 9),
            "events_run": s.sim.events_run.get() - events_before[position],
        }
        if "latency" in spec.record:
            entry["latency"] = _latency_percentiles(stats.latencies)
            entry["mean_hops"] = round(stats.mean_hops, 9)
        if "messages" in spec.record:
            entry["messages_sent"] = s.bus.messages_sent.get()
        if "adaptation" in spec.record:
            metrics = s.metrics()
            entry["adaptation"] = {
                "splits": s.stats.splits,
                "merges": s.stats.merges,
                "crashes": s.stats.crashes,
                "components": metrics.num_components,
                "effective_width": metrics.effective_width,
                "effective_depth": metrics.effective_depth,
            }
        if "pools" in spec.record:
            entry["pools"] = s.publish_pool_stats()
        summary["systems"].append(entry)

    if "app" in spec.record:
        app: Dict[str, Any] = {"kind": spec.app.kind}
        if counter is not None:
            values = counter.settle()
            app["counter"] = {
                "values": len(values),
                "gap_free": values == list(range(len(values))),
                "outstanding": counter.outstanding,
            }
        if balancer is not None:
            app["load_balancer"] = {
                "server_loads": balancer.settle(),
                "imbalance": balancer.imbalance(),
            }
        if matcher is not None:
            matches, unmatched_supply, unmatched_requests = matcher.settle()
            app["producer_consumer"] = {
                "matches": matches,
                "unmatched_supply": unmatched_supply,
                "unmatched_requests": unmatched_requests,
            }
        summary["app"] = app

    return ScenarioRun(
        spec=spec,
        summary=summary,
        system=system,
        request_system=request_system,
    )
