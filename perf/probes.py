"""Micro-probes: one layer's primitive in a tight loop, nothing else.

They give a layer's ceiling on this box (a hop cannot be cheaper than
its ``post``/``settle`` pair) and, with ``machine.calib_loop_ns``, a
way to normalise numbers from different boxes. They run untraced and do
not depend on the workload or the seed.
"""

from __future__ import annotations

from random import Random
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict

from repro.chord.fingers import lookup
from repro.chord.ring import ChordRing
from repro.core.atomics import LockedAtomicCounter, ThreadSafeToggle, TokenLedger
from repro.core.components import ComponentState
from repro.core.decomposition import DecompositionTree
from repro.sim.events import Simulator
from repro.sim.node import MessageBus, SimulatedProcess

ROUNDS = 50_000


def calib_loop_ns(rounds: int = 200_000) -> float:
    """ns per iteration of a fixed pure-Python loop (best of 5)."""
    best = float("inf")
    for _ in range(5):
        total = 0
        start = perf_counter_ns()
        for index in range(rounds):
            total += index & 7
        best = min(best, (perf_counter_ns() - start) / rounds)
    return best


def _rate(operations: int, body: Callable[[], None]) -> float:
    """Operations per second of ``body``, best of 3."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        body()
        best = min(best, perf_counter() - start)
    return operations / best


def _events() -> None:
    simulator = Simulator()

    def noop() -> None:
        return None

    for _ in range(ROUNDS):
        simulator.schedule_pooled(1.0, noop)
    simulator.run_until_idle()


class _PingPong(SimulatedProcess):
    """Bounces every message to its peer until the budget runs out."""

    def __init__(self, bus: MessageBus, peer: str, budget: list):
        self.bus = bus
        self.peer = peer
        self.budget = budget

    def handle_message(self, message) -> None:
        if self.budget[0] > 0:
            self.budget[0] -= 1
            self.bus.send(self.peer, message)


def _messages() -> None:
    simulator = Simulator()
    bus = MessageBus(simulator)
    budget = [ROUNDS - 1]
    bus.register("a", _PingPong(bus, "b", budget))
    bus.register("b", _PingPong(bus, "a", budget))
    bus.send("a", None)
    simulator.run_until_idle()


def _ledger() -> None:
    ledger: TokenLedger = TokenLedger()
    post, settle = ledger.post, ledger.settle
    key = ((0, 1, 2), 3)
    for _ in range(ROUNDS):
        post(key)
        settle(key)


def _toggle() -> None:
    flip = ThreadSafeToggle().flip
    for _ in range(ROUNDS):
        flip()


def _locked() -> None:
    fetch = LockedAtomicCounter().fetch_increment
    for _ in range(ROUNDS):
        fetch()


def _route() -> None:
    route = ComponentState(DecompositionTree(64).root).route_token
    for index in range(ROUNDS):
        route(index & 63)


def _lookups() -> Callable[[], None]:
    ring = ChordRing(seed=0)
    for _ in range(1024):
        ring.join()
    rng = Random(0)
    nodes = [node.node_id for node in ring.nodes()]
    size = ring.space.size
    queries = [(rng.choice(nodes), rng.randrange(size)) for _ in range(ROUNDS // 10)]

    def body() -> None:
        for start, point in queries:
            lookup(ring, start, point)

    return body


def run_probes() -> Dict[str, float]:
    """Every probe, by the name of the per-layer metric it reports."""
    return {
        "sim.events.noop_per_s": _rate(ROUNDS, _events),
        "sim.node.null_msgs_per_s": _rate(ROUNDS, _messages),
        "core.atomics.ledger_pairs_per_s": _rate(ROUNDS, _ledger),
        "core.atomics.toggle_flips_per_s": _rate(ROUNDS, _toggle),
        "core.atomics.locked_incr_per_s": _rate(ROUNDS, _locked),
        "core.components.route_per_s": _rate(ROUNDS, _route),
        "chord.fingers.lookups_per_s": _rate(ROUNDS // 10, _lookups()),
    }
