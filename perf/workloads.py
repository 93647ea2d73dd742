"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs a timed region made
of equal *units* (segments, cycles or repeats), checks its outputs, and
returns an :class:`Outcome`. The size of a run is fixed by ``budget``
(``--seconds`` x ``--scale``): the ``*_PER_SECOND`` constants are what
this 2-core box completed per second at the commit that added the
benchmark, so a ``budget`` of 10 measures for about ten seconds there.
Sizes never depend on the clock — the same seed and budget always do
the same work, which is what makes the exact counts and ``sim_digest``
comparable between commits.

Only public API with default knobs is used (no ``coalesce=``,
``recycle_tokens=``, ``combining=``), so the workloads keep running
when those knobs go away and credit a change that makes a fast lane
the default. ``perf/README.md`` says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from random import Random
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.bitonic import bitonic_network
from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import DecompositionTree
from repro.core.network import compile_topology
from repro.core.verification import has_step_property
from repro.errors import ReproError
from repro.runtime.system import AdaptiveCountingSystem
from repro.sim.latency import DiscreteLatency
from repro.threads import (
    LockedCounterBaseline,
    ThreadedCountingNetwork,
    values_form_range,
)

WIDTH = 64


class Region:
    """The timed region of one pass: ``with region:`` around the units.

    The traced run hangs the tracer's begin/end on ``on_enter`` /
    ``on_exit`` so the ledger covers exactly what the clock covers.
    """

    def __init__(self, on_enter=None, on_exit=None):
        self.on_enter = on_enter
        self.on_exit = on_exit
        self.seconds = 0.0

    def __enter__(self) -> "Region":
        if self.on_enter is not None:
            self.on_enter()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = perf_counter() - self._start
        if self.on_exit is not None:
            self.on_exit()


@dataclass
class Outcome:
    """What one pass of a workload produced."""

    attempted: int
    failed: int
    #: Checks that did not hold (empty means the outputs are correct).
    problems: List[str]
    #: Tokens retired per host second, one sample per unit.
    samples: List[float]
    #: Exact, seed-pure statistics; ``sim_digest`` hashes these.
    counts: Dict[str, Any]
    #: Per-layer figures that are free to read (no tracing needed).
    layer: Dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(self.counts, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------
def _sim_counters(system: AdaptiveCountingSystem) -> Dict[str, int]:
    """Cumulative public counters of a system (differenced over the
    timed region by :func:`_sim_outcome`)."""
    stats, tokens, bus = system.stats, system.token_stats, system.bus
    envelopes, handles = bus.pool_stats(), system.sim.pool_stats()
    return {
        "events": system.sim.events_run.get(),
        "messages_sent": bus.messages_sent.get(),
        "messages_delivered": bus.messages_delivered.get(),
        "messages_dropped": bus.messages_dropped.get(),
        "issued": tokens.issued.get(),
        "tokens": tokens.retired.get(),
        "tokens_dropped": tokens.dropped.get(),
        "hops": tokens.total_hops.get(),
        "reroutes": tokens.total_reroutes.get(),
        "splits": stats.splits,
        "merges": stats.merges,
        "recoveries": stats.recoveries,
        "handoffs": stats.handoffs,
        "crashes": stats.crashes,
        "lookups": len(stats.lookup_tries),
        "lookup_tries": sum(stats.lookup_tries),
        "lookup_hops": sum(stats.lookup_hops),
        "envelopes_created": envelopes["created"],
        "envelopes_reused": envelopes["reused"],
        "handles_created": handles["created"],
        "handles_reused": handles["reused"],
    }


def _sim_outcome(
    system: AdaptiveCountingSystem,
    before: Dict[str, int],
    region: Region,
    samples: List[float],
    membership_ops: int = 0,
    ops_samples: Sequence[float] = (),
) -> Outcome:
    """Check a quiescent system and turn its counters into an Outcome."""
    problems: List[str] = []
    try:
        system.verify()
    except ReproError as exc:
        problems.append("verify(): %s" % exc)
    after = _sim_counters(system)
    counts: Dict[str, Any] = {key: after[key] - before[key] for key in after}
    if counts["tokens_dropped"]:
        problems.append("%d tokens dropped" % counts["tokens_dropped"])
    latencies = sorted(system.token_stats.latencies[before["tokens"] :])
    counts.update(
        membership_ops=membership_ops,
        nodes=system.num_nodes,
        components=len(system.directory.live_paths()),
        latency_samples=len(latencies),
        sim_latency_p50=percentile(latencies, 0.5),
        sim_latency_p999=percentile(latencies, 0.999),
    )
    attempted = counts["issued"] + membership_ops
    unaccounted = counts["issued"] - counts["tokens"] - counts["tokens_dropped"]
    failed = attempted if problems else counts["tokens_dropped"] + unaccounted
    hits = sum(host.cache_hits for host in system.hosts.values())
    misses = sum(host.cache_misses for host in system.hosts.values())
    hops, sent = counts["hops"], counts["messages_sent"]
    layer = {
        "sim.events.per_hop": _share(counts["events"], hops),
        "sim.events.per_s": _share(counts["events"], region.seconds),
        "sim.events.handle_reuse": _share(
            counts["handles_reused"],
            counts["handles_reused"] + counts["handles_created"],
        ),
        "sim.node.sends_per_hop": _share(sent, hops),
        "sim.node.dropped_share": _share(counts["messages_dropped"], sent),
        "sim.node.envelope_reuse": _share(
            counts["envelopes_reused"],
            counts["envelopes_reused"] + counts["envelopes_created"],
        ),
        # Hosts alive at the end only: a departed host takes its
        # counters with it, so this is a share, not a count.
        "runtime.host.edge_cache_hit_share": _share(hits, hits + misses),
        "runtime.system.reroutes_per_token": _share(
            counts["reroutes"], counts["tokens"]
        ),
        "runtime.system.sim_latency_p50": counts["sim_latency_p50"],
        "runtime.system.sim_latency_p999": counts["sim_latency_p999"],
        "chord.fingers.hops_per_inject": _share(
            counts["lookup_hops"], counts["lookups"]
        ),
        "runtime.lookup.tries_per_inject": _share(
            counts["lookup_tries"], counts["lookups"]
        ),
        "runtime.membership.handoffs": counts["handoffs"],
        "runtime.membership.ops_per_s": median(ops_samples) if ops_samples else 0.0,
        "runtime.reconfig.splits": counts["splits"],
        "runtime.reconfig.merges": counts["merges"],
        "runtime.stabilization.recoveries": counts["recoveries"],
    }
    return Outcome(attempted, failed, problems, samples, counts, layer)


class SteadyDeep:
    name = "steady_deep"
    why = (
        "1024 nodes, fully split BITONIC[64], one token per 0.1 sim units: "
        "isolates per-hop cost; bypasses coalescing and the control plane"
    )
    traced = True

    SEGMENTS = 8
    TOKENS_PER_SECOND = 4900
    #: Tokens sent through before the clock starts, so that every
    #: node's finger table and edge cache is built: a fifth-size traced
    #: pass would otherwise spend a third of its lookups building them.
    WARMUP = 4000

    def setup(self, seed: int, budget: float) -> AdaptiveCountingSystem:
        system = AdaptiveCountingSystem(width=WIDTH, seed=seed, initial_nodes=1024)
        system.converge()
        for _ in range(self.WARMUP):
            system.advance(0.1)
            system.inject_token()
        system.run_until_quiescent()
        return system

    def run(self, system, seed: int, budget: float, region: Region) -> Outcome:
        per_segment = max(64, int(self.TOKENS_PER_SECOND * budget / self.SEGMENTS))
        before = _sim_counters(system)
        samples = []
        with region:
            for _ in range(self.SEGMENTS):
                start = perf_counter()
                # Open loop in simulated time: injections fire at fixed
                # sim instants whatever has retired.
                for _ in range(per_segment):
                    system.advance(0.1)
                    system.inject_token()
                system.run_until_quiescent()
                samples.append(per_segment / (perf_counter() - start))
        return _sim_outcome(system, before, region, samples)


class BurstChurn:
    name = "burst_churn"
    why = (
        "steady_deep's network under 64-token same-instant bursts on hot wires, with "
        "joins, leaves and crashes: bounces, retries, reroutes, recovery; exercises coalescing"
    )
    traced = True

    #: One segment: this many instants, then quiesce and ``converge()``.
    #: The system adapts only at quiescent points (README: known limit).
    INSTANTS = 50
    BURST = 64
    HOT_WIRES = 4
    #: Enough nodes that the network stays fully split (as in
    #: ``steady_deep``) whatever the churn does. At 512 nodes a handful
    #: of splits (7 to 26 ms each) and merges land in some seeds' runs
    #: and not in others': 5 % between seeds. Reconfiguration under load
    #: is ``grow_shrink``'s job.
    NODES = 1024
    #: Membership operations of one segment. The seed picks the instants,
    #: the order and (through the system's own rng) the nodes; the counts
    #: are fixed, because a Poisson trace gives one seed 146 operations
    #: and the next 189, and each one flushes every edge and finger cache
    #: — a difference between seeds larger than any change to measure.
    CHURN = ("join",) * 4 + ("leave",) * 3 + ("crash",) * 3
    SEGMENTS_PER_SECOND = 1.05

    def setup(self, seed: int, budget: float) -> AdaptiveCountingSystem:
        system = AdaptiveCountingSystem(
            width=WIDTH,
            seed=seed,
            initial_nodes=self.NODES,
            latency=DiscreteLatency([0.5, 1.0, 2.0], Random(seed + 2)),
        )
        system.converge()
        return system

    def run(self, system, seed: int, budget: float, region: Region) -> Outcome:
        segments = max(2, round(self.SEGMENTS_PER_SECOND * budget))
        churn_rng = Random(seed + 1)
        wire_rng = Random(seed + 4)
        hot = wire_rng.sample(range(WIDTH), self.HOT_WIRES)
        plan = []
        for _ in range(segments):
            instants = churn_rng.sample(range(self.INSTANTS), len(self.CHURN))
            actions = churn_rng.sample(self.CHURN, len(self.CHURN))
            # Half the tokens enter on the hot wires.
            wires = [
                wire_rng.choice(hot) if wire_rng.random() < 0.5 else wire_rng.randrange(WIDTH)
                for _ in range(self.INSTANTS * self.BURST)
            ]
            plan.append((dict(zip(instants, actions)), wires))
        membership = {
            "join": system.add_node,
            "leave": system.remove_node,
            "crash": system.crash_node,
        }
        before = _sim_counters(system)
        samples, ops_samples = [], []
        with region:
            for churn, wires in plan:
                start = perf_counter()
                feed = iter(wires)
                for instant in range(self.INSTANTS):
                    system.advance(1.0)
                    action = churn.get(instant)
                    if action is not None:
                        membership[action]()
                    for _ in range(self.BURST):
                        system.inject_token(next(feed))
                system.run_until_quiescent()
                system.converge()
                elapsed = perf_counter() - start
                samples.append(len(wires) / elapsed)
                ops_samples.append(len(churn) / elapsed)
        ops = segments * len(self.CHURN)
        return _sim_outcome(system, before, region, samples, ops, ops_samples)


class GrowShrink:
    name = "grow_shrink"
    why = (
        "grow 128 -> 1024 nodes, then leave/crash back down, a trickle of "
        "tokens: the control plane does the work; it is the others' set-up"
    )
    traced = True

    BASE = 128
    #: Membership operations between token trickles (and ``converge()``).
    BLOCK = 32
    TRICKLE = 64
    #: 128 + 28 * 32 = 1024 nodes at the top of a full cycle, where the
    #: network is fully split whatever the seed. (Cycles that turn round
    #: at 768 nodes stop short of that and differ from one another by
    #: 10 %, because which components are still whole depends on the ids
    #: the new nodes drew.) A full cycle takes 5.3 s and three are the
    #: fewest a median means anything on, so this workload runs for 16 s
    #: on a budget of 10.
    MAX_BLOCKS = 28
    BLOCKS_PER_SECOND = 14
    CYCLES_PER_SECOND = 0.3

    def setup(self, seed: int, budget: float) -> AdaptiveCountingSystem:
        system = AdaptiveCountingSystem(width=WIDTH, seed=seed, initial_nodes=self.BASE)
        system.converge()
        return system

    def run(self, system, seed: int, budget: float, region: Region) -> Outcome:
        # Below two budget seconds the peak shrinks; above, the peak is
        # the full 1024 nodes and more budget buys more cycles.
        blocks = min(self.MAX_BLOCKS, max(1, int(self.BLOCKS_PER_SECOND * budget)))
        cycles = max(1, round(self.CYCLES_PER_SECOND * budget))
        peak = self.BASE + blocks * self.BLOCK
        before = _sim_counters(system)
        samples, ops_samples = [], []
        ops = 0

        def trickle() -> None:
            for _ in range(self.TRICKLE):
                system.inject_token()
            system.run_until_quiescent()
            system.converge()

        with region:
            for _ in range(cycles):
                start = perf_counter()
                ops_before = ops
                retired_before = system.token_stats.retired.get()
                while system.num_nodes < peak:
                    system.add_node()
                    ops += 1
                    if ops % self.BLOCK == 0:
                        trickle()
                while system.num_nodes > self.BASE:
                    if ops % 2 == 0:
                        system.remove_node()
                    else:
                        system.crash_node()
                    ops += 1
                    if ops % self.BLOCK == 0:
                        trickle()
                elapsed = perf_counter() - start
                retired = system.token_stats.retired.get() - retired_before
                samples.append(retired / elapsed)
                ops_samples.append((ops - ops_before) / elapsed)
        return _sim_outcome(system, before, region, samples, ops, ops_samples)


# ----------------------------------------------------------------------
# repro.core in vitro
# ----------------------------------------------------------------------
def mixed_cut(tree: DecompositionTree) -> Cut:
    """A cut with members at every level: the top ``BITONIC[32]`` split
    down to balancers, the bottom one whole, the merger split once.

    Deterministic on purpose: ``Cut.random`` is a singleton for half of
    all seeds and 300 members for others, a 10x swing in hops per token
    that would drown any change in the seed-to-seed spread.
    """
    cut = Cut.level(tree, 1)
    frontier = [(0,)]
    while frontier:
        path = frontier.pop()
        spec = tree.node(path)
        if not spec.is_leaf:
            cut = cut.split(path)
            frontier.extend(child.path for child in spec.children())
    return cut.split((2,))


@dataclass
class _StaticState:
    network: Any
    leaf: CutNetwork
    mixed: CutNetwork
    inputs: Dict[str, List[Any]]
    compile_ms: float
    build_ms: float


def _build_static() -> _StaticState:
    tree = DecompositionTree(WIDTH)
    start = perf_counter()
    leaf = CutNetwork(Cut.leaves(tree))
    mixed = CutNetwork(mixed_cut(tree))
    build_ms = (perf_counter() - start) * 1e3
    network = bitonic_network(WIDTH)
    wide = bitonic_network(256)
    start = perf_counter()
    compile_topology(256, wide.layers, wide.output_order)
    compile_ms = (perf_counter() - start) * 1e3
    return _StaticState(network, leaf, mixed, {}, compile_ms, build_ms)


class _Static:
    """``SEGMENTS`` segments, each feeding every network in
    ``PER_SECOND`` its share of the seeded inputs. Subclasses say what
    an input is and how it is fed."""

    traced = False
    SEGMENTS = 8
    #: network -> inputs per budget second.
    PER_SECOND: Dict[str, int] = {}
    #: network -> the layer metric its phase rate is reported as.
    LAYER: Dict[str, str] = {}

    def setup(self, seed: int, budget: float) -> _StaticState:
        state = _build_static()
        rng = Random(seed)
        for name, rate in self.PER_SECOND.items():
            per_segment = max(2, int(rate * budget / self.SEGMENTS))
            state.inputs[name] = [
                self.inputs(rng, per_segment) for _ in range(self.SEGMENTS)
            ]
        return state

    def run(self, state, seed: int, budget: float, region: Region) -> Outcome:
        samples = []
        rates: Dict[str, List[float]] = {name: [] for name in self.PER_SECOND}
        moved = dict.fromkeys(self.PER_SECOND, 0)
        with region:
            for index in range(self.SEGMENTS):
                start = perf_counter()
                tokens = 0
                for name in self.PER_SECOND:
                    phase = perf_counter()
                    count = self.feed(getattr(state, name), state.inputs[name][index])
                    rates[name].append(count / (perf_counter() - phase))
                    moved[name] += count
                    tokens += count
                samples.append(tokens / (perf_counter() - start))
        # Cross-check each network against ``feed_counts`` of the same
        # input histogram on a fresh network, and the step property.
        problems = []
        fresh = _build_static()
        total = sum(moved.values())
        counts: Dict[str, Any] = {"tokens": total}
        for name, segments in state.inputs.items():
            histogram = self.histogram(segments)
            got = list(getattr(state, name).output_counts)
            if moved[name] != sum(histogram):
                problems.append("%s: tokens fed and tokens moved differ" % name)
            if got != getattr(fresh, name).feed_counts(histogram):
                problems.append("%s: outputs differ from feed_counts of the inputs" % name)
            if not has_step_property(got):
                problems.append("%s: step property violated" % name)
            counts[name + "_fed_and_got"] = hashlib.sha256(
                repr((histogram, got)).encode()
            ).hexdigest()[:16]
        layer = {self.LAYER[name]: median(phase) for name, phase in rates.items()}
        layer["core.network.compile_ms"] = state.compile_ms
        layer["core.cut.build_ms"] = state.build_ms
        return Outcome(total, total if problems else 0, problems, samples, counts, layer)


class StaticRoute(_Static):
    name = "static_route"
    why = (
        "no simulator: feed_token one token at a time through BITONIC[64], "
        "its leaf cut and a mixed cut; predicted to ignore sim/runtime changes"
    )

    #: Tokens per budget second (about 0.33 s of work on each network).
    PER_SECOND = {"network": 110_000, "leaf": 25_000, "mixed": 55_000}
    LAYER = {
        "network": "core.network.feed_token_per_s",
        "leaf": "core.cut.feed_token_per_s",
        "mixed": "core.cut.mixed_feed_token_per_s",
    }

    def inputs(self, rng: Random, count: int) -> List[int]:
        return rng.choices(range(WIDTH), k=count)

    def feed(self, network, wires: List[int]) -> int:
        feed_token = network.feed_token
        for wire in wires:
            feed_token(wire)
        return len(wires)

    def histogram(self, segments: List[List[int]]) -> List[int]:
        histogram = [0] * WIDTH
        for wires in segments:
            for wire in wires:
                histogram[wire] += 1
        return histogram


class StaticBatch(_Static):
    name = "static_batch"
    why = (
        "no simulator: feed_counts batches (<=16 tokens a wire) through "
        "BITONIC[64] and its leaf cut; shows a token-at-a-time gain that costs batches"
    )

    MAX_PER_WIRE = 16
    #: Batches per budget second (0.75 s + 0.25 s of work).
    PER_SECOND = {"network": 2200, "leaf": 125}
    LAYER = {
        "network": "core.network.feed_counts_tokens_per_s",
        "leaf": "core.cut.feed_counts_tokens_per_s",
    }

    def inputs(self, rng: Random, count: int) -> List[List[int]]:
        sizes = range(self.MAX_PER_WIRE + 1)
        return [rng.choices(sizes, k=WIDTH) for _ in range(count)]

    def feed(self, network, batches: List[List[int]]) -> int:
        feed_counts = network.feed_counts
        moved = 0
        for batch in batches:
            moved += sum(feed_counts(batch))
        return moved

    def histogram(self, segments: List[List[List[int]]]) -> List[int]:
        batches = (batch for segment in segments for batch in segment)
        return [sum(column) for column in zip(*batches)]


# ----------------------------------------------------------------------
# threads backend
# ----------------------------------------------------------------------
def drive(target, threads: int, ops: int, wires: Sequence[int]):
    """Closed loop: ``threads`` clients each call ``fetch_and_inc``
    ``ops`` times, starting together. Returns (seconds, ranks).

    Each client stamps its own start and end: the clock runs from the
    first client's start to the last one's end. (Stamping in the main
    thread would start the clock only once the clients let go of the
    interpreter lock, several switch intervals into the run.)
    """
    ranks: List[List[int]] = [[] for _ in range(threads)]
    stamps: List[Tuple[float, float]] = [(0.0, 0.0)] * threads
    gate = threading.Barrier(threads)

    def client(index: int) -> None:
        record = ranks[index].append
        fetch = target.fetch_and_inc
        wire = wires[index]
        gate.wait()
        start = perf_counter()
        for _ in range(ops):
            record(fetch(wire))
        stamps[index] = (start, perf_counter())

    workers = [threading.Thread(target=client, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    seconds = max(end for _, end in stamps) - min(start for start, _ in stamps)
    return seconds, [rank for mine in ranks for rank in mine]


@contextmanager
def one_cpu():
    """Confine this thread, and the threads it starts, to one CPU.

    Two clients left to the kernel run in one of two regimes, and which
    one is the scheduler's choice, not the program's: on one core they
    take turns at the single-thread rate (about 510 k/s here), on two
    cores every switch of the interpreter lock crosses cores and the
    rate is 220 k/s. Single repeats flip between the two, and on a
    busier host so does the median of a run. Confined to one CPU the
    clients still preempt one another anywhere in ``fetch_and_inc``
    (the checks are as sharp as before) and the rate is steady.
    """
    try:
        allowed = os.sched_getaffinity(0)
        # The last one: interrupts and kernel threads favour CPU 0.
        os.sched_setaffinity(0, {max(allowed)})
    except (AttributeError, OSError):  # not Linux, or not permitted
        allowed = None
    try:
        yield
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)


class Threads:
    """``ThreadedCountingNetwork`` over compiled ``BITONIC[16]``; one
    fresh network per repeat, every repeat checked."""

    traced = False
    NET_WIDTH = 16

    def __init__(self, name, why, threads, repeats, ops_per_second, layer_name):
        self.name = name
        self.why = why
        self.threads = threads
        self.repeats = repeats
        self.ops_per_second = ops_per_second
        self.layer_name = layer_name

    @staticmethod
    def _check(network, ranks: List[int], total: int) -> List[str]:
        problems = []
        if not values_form_range(ranks, total):
            problems.append("ranks are not exactly 0..%d" % (total - 1))
        if not network.verify(total).ok:
            problems.append("verify(%d) failed" % total)
        return problems

    def _ops(self, budget: float) -> int:
        return max(100, int(self.ops_per_second * budget / self.repeats / self.threads))

    def setup(self, seed: int, budget: float):
        topology = bitonic_network(self.NET_WIDTH).topology
        wires = Random(seed).sample(range(self.NET_WIDTH), self.threads)
        networks = [ThreadedCountingNetwork(topology) for _ in range(self.repeats)]
        return networks, wires

    def run(self, state, seed: int, budget: float, region: Region) -> Outcome:
        networks, wires = state
        ops = self._ops(budget)
        total = ops * self.threads
        samples, problems = [], []
        with region, one_cpu() if self.threads > 1 else nullcontext():
            for network in networks:
                seconds, ranks = drive(network, self.threads, ops, wires)
                samples.append(total / seconds)
                # Checked between repeats, outside the repeat's clock.
                problems.extend(self._check(network, ranks, total))
        attempted = total * len(networks)
        counts = {"tokens": attempted, "threads": self.threads, "ops": ops}
        layer = {self.layer_name: median(samples)}
        failed = attempted if problems else 0
        return Outcome(attempted, failed, problems, samples, counts, layer)

    FREE_REPEATS = 5

    def extras(self, seed: int, budget: float, outcome: Outcome) -> Dict[str, float]:
        """For the traced run's ledger: the same clients left to the
        kernel's placement, on the network and on the single-lock
        baseline. Both swing by 2x (see :func:`one_cpu`); no bound
        hangs on them."""
        if self.threads < 2:
            return {}
        networks, wires = self.setup(seed, budget)
        ops = max(50, self._ops(budget) // 2)
        total = ops * self.threads
        free, lock = [], []
        for network in networks[: self.FREE_REPEATS]:
            seconds, ranks = drive(network, self.threads, ops, wires)
            free.append(total / seconds)
            outcome.problems.extend(self._check(network, ranks, total))
            seconds, _ranks = drive(
                LockedCounterBaseline(), self.threads, ops, [0] * self.threads
            )
            lock.append(total / seconds)
        return {
            "threads.network.t2_per_s": median(free),
            "threads.lock.t2_per_s": median(lock),
            "threads.network.vs_lock_t2": median(free) / median(lock),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        SteadyDeep(),
        BurstChurn(),
        GrowShrink(),
        StaticRoute(),
        StaticBatch(),
        Threads(
            "threads_contended",
            "2 client threads preempt each other on one CPU inside fetch_and_inc on "
            "BITONIC[16]: repro.threads and the Locked*/ThreadSafeToggle atomics, ranks checked",
            threads=2,
            repeats=9,
            ops_per_second=500_000,
            layer_name="threads.network.t2_one_cpu_per_s",
        ),
        Threads(
            "threads_single",
            "1 client thread, same network: uncontended use, so batching that "
            "helps contention and hurts the plain path (or the reverse) shows",
            threads=1,
            repeats=9,
            ops_per_second=500_000,
            layer_name="threads.network.t1_per_s",
        ),
    )
}
