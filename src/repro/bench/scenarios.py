"""Benchmark scenarios: seeded workloads over the repro hot paths.

Each scenario is a function ``(params, seed) -> ScenarioResult`` taking
its profile parameters. Wall-clock time is measured with
``time.perf_counter`` (this package is outside ``repro.sim`` /
``repro.runtime``, where simulated time is mandatory); all workload
randomness comes from an explicit ``random.Random(seed)`` so the *work*
is identical across machines and only the speed varies.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List

from repro.bench.result import ScenarioResult
from repro.core.bitonic import bitonic_network
from repro.errors import BenchmarkError
from repro.obs.metrics import Histogram
from repro.runtime.system import AdaptiveCountingSystem
from repro.sim.failures import churn_trace
from repro.sim.latency import DiscreteLatency


def _peak_rss_kb() -> int:
    """This process's peak resident set size, in KiB.

    Uses ``resource`` where available (POSIX; Linux reports KiB). On
    platforms without it, falls back to the ``tracemalloc`` peak if
    tracing happens to be on, else 0 — the metric is informational and
    excluded from fingerprints either way (see WALL_CLOCK_METRIC_KEYS).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        import tracemalloc

        if tracemalloc.is_tracing():
            return tracemalloc.get_traced_memory()[1] // 1024
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _latency_percentiles(latencies: List) -> Dict[str, float]:
    """``latency_p50``/``latency_p99`` of retired-token sim latencies.

    Computed *after* the timed loop through the ``repro.obs`` log-scale
    histogram, so the percentile metrics cost nothing inside the
    measured region and are a pure function of the seed (simulated
    time only — the determinism tests include them).
    """
    histogram = Histogram()
    for value in latencies:
        if value is not None:
            histogram.record(value)
    return {"latency_p50": histogram.p50, "latency_p99": histogram.p99}


def _best_elapsed(run: Callable[[], None], repeats: int) -> float:
    """Smallest wall-clock time of ``repeats`` runs of ``run``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9)


# ----------------------------------------------------------------------
# scenario: single-token routing (table fast path vs linear scan)
# ----------------------------------------------------------------------
def bench_token_routing(params: Dict, seed: int) -> ScenarioResult:
    """Route a seeded token stream through ``BITONIC[w]`` twice: once
    with the precomputed routing tables (:meth:`feed_token`) and once
    with the O(width) per-layer linear scan it replaced
    (:meth:`feed_token_scan`). Reports both rates and the speedup; the
    two paths must agree token-for-token or the scenario aborts.
    """
    width = params["width"]
    tokens = params["tokens"]
    rng = random.Random(seed)
    wires = [rng.randrange(width) for _ in range(tokens)]

    fast_net = bitonic_network(width)
    scan_net = bitonic_network(width)
    fast_outputs = [fast_net.feed_token(wire) for wire in wires]
    scan_outputs = [scan_net.feed_token_scan(wire) for wire in wires]
    if fast_outputs != scan_outputs or fast_net.output_counts != scan_net.output_counts:
        raise BenchmarkError(
            "routing-table fast path diverged from the linear-scan "
            "reference at width %d" % width
        )

    def run_fast() -> None:
        net = bitonic_network(width)
        feed = net.feed_token
        for wire in wires:
            feed(wire)

    def run_scan() -> None:
        net = bitonic_network(width)
        feed = net.feed_token_scan
        for wire in wires:
            feed(wire)

    repeats = params.get("repeats", 3)
    fast_elapsed = _best_elapsed(run_fast, repeats)
    scan_elapsed = _best_elapsed(run_scan, repeats)
    fast_rate = tokens / fast_elapsed
    scan_rate = tokens / scan_elapsed
    return ScenarioResult(
        name="token_routing",
        ops_per_sec=fast_rate,
        events=tokens,
        metrics={
            "width": width,
            "depth": fast_net.depth,
            "scan_ops_per_sec": scan_rate,
            "speedup_vs_scan": fast_rate / scan_rate,
        },
    )


# ----------------------------------------------------------------------
# scenario: quiescent batch propagation
# ----------------------------------------------------------------------
def bench_batch_counts(params: Dict, seed: int) -> ScenarioResult:
    """Push seeded random batches through ``feed_counts``; the rate is
    tokens (not batches) per second, so profiles with heavier batches
    remain comparable."""
    width = params["width"]
    batches = params["batches"]
    max_per_wire = params["max_per_wire"]
    rng = random.Random(seed)
    workload: List[List[int]] = [
        [rng.randrange(max_per_wire + 1) for _ in range(width)]
        for _ in range(batches)
    ]
    total_tokens = sum(sum(batch) for batch in workload)

    def run() -> None:
        net = bitonic_network(width)
        feed = net.feed_counts
        for batch in workload:
            feed(batch)

    elapsed = _best_elapsed(run, params.get("repeats", 3))
    return ScenarioResult(
        name="batch_counts",
        ops_per_sec=total_tokens / elapsed,
        events=batches,
        metrics={
            "width": width,
            "tokens_per_batch": total_tokens / batches,
            "batches_per_sec": batches / elapsed,
        },
    )


# ----------------------------------------------------------------------
# scenario: inject-to-retire under churn
# ----------------------------------------------------------------------
def bench_inject_to_retire(params: Dict, seed: int) -> ScenarioResult:
    """End-to-end token plane: converge a system, then inject a token
    stream while nodes join and crash underneath it. The rate counts
    retired tokens per wall-clock second; simulator events and token
    statistics come along as metrics. Invariants are verified at the
    end — a benchmark run that corrupts the counter reports nothing.
    """
    width = params["width"]
    nodes = params["nodes"]
    tokens = params["tokens"]
    churn_every = params["churn_every"]

    system = AdaptiveCountingSystem(width=width, seed=seed, initial_nodes=nodes)
    system.converge()
    events_before = system.sim.events_run.get()

    start = time.perf_counter()
    churn_flip = True
    for index in range(tokens):
        system.inject_token()
        if churn_every and index and index % churn_every == 0:
            if churn_flip:
                system.add_node()
            else:
                system.crash_node()
            churn_flip = not churn_flip
    system.run_until_quiescent()
    elapsed = max(time.perf_counter() - start, 1e-9)
    system.verify()

    stats = system.token_stats
    events = system.sim.events_run.get() - events_before
    metrics = {
        "width": width,
        "nodes": system.num_nodes,
        "retired": stats.retired.get(),
        "dropped": stats.dropped.get(),
        "mean_hops": stats.mean_hops,
        "mean_sim_latency": stats.mean_latency,
        "crashes": system.stats.crashes,
        "messages_sent": system.bus.messages_sent.get(),
        "events_per_sec": events / elapsed,
        "peak_rss_kb": _peak_rss_kb(),
    }
    metrics.update(_latency_percentiles(stats.latencies))
    return ScenarioResult(
        name="inject_to_retire",
        ops_per_sec=stats.retired.get() / elapsed,
        events=events,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# scenario: large-scale churn (the ISSUE 4 event-core stress test)
# ----------------------------------------------------------------------
def bench_large_churn(params: Dict, seed: int) -> ScenarioResult:
    """Sustained token load over a big ring under a seeded Poisson
    membership trace. Unlike ``inject_to_retire`` (which churns every N
    tokens), this scenario paces both injections and membership events
    along simulated time: tokens are spread evenly over ``duration``
    and a :func:`churn_trace` of joins and crashes is applied as its
    events fall due, so timers, retries and recovery all overlap the
    token stream the way they would in a long-running deployment.

    The rate is retired tokens per wall-clock second. Every metric
    besides the rate is a pure function of the seed (simulated time,
    event counts, token statistics), which the determinism test relies
    on: two runs with the same seed must produce identical ``events``
    and ``metrics``.
    """
    width = params["width"]
    nodes = params["nodes"]
    tokens = params["tokens"]
    duration = params["duration"]
    join_rate = params["join_rate"]
    crash_rate = params["crash_rate"]
    min_nodes = params.get("min_nodes", 4)

    system = AdaptiveCountingSystem(width=width, seed=seed, initial_nodes=nodes)
    system.converge()
    events_before = system.sim.events_run.get()

    # The membership trace is seeded independently of the system RNG so
    # changing workload parameters never perturbs node placement.
    trace = churn_trace(
        random.Random(seed + 1),
        duration=duration,
        join_rate=join_rate,
        leave_rate=0.0,
        crash_rate=crash_rate,
    )
    step = duration / tokens
    joins = crashes = 0

    start = time.perf_counter()
    trace_index = 0
    for index in range(tokens):
        target_time = (index + 1) * step
        while trace_index < len(trace) and trace[trace_index].time <= target_time:
            event = trace[trace_index]
            trace_index += 1
            if event.action == "join":
                system.add_node()
                joins += 1
            elif system.num_nodes > min_nodes:
                system.crash_node()
                crashes += 1
        system.advance(step)
        system.inject_token()
    system.run_until_quiescent()
    elapsed = max(time.perf_counter() - start, 1e-9)
    system.verify()

    stats = system.token_stats
    events = system.sim.events_run.get() - events_before
    metrics = {
        "width": width,
        "nodes": system.num_nodes,
        "joins": joins,
        "crashes": crashes,
        "retired": stats.retired.get(),
        "dropped": stats.dropped.get(),
        "mean_hops": stats.mean_hops,
        "mean_sim_latency": stats.mean_latency,
        "messages_sent": system.bus.messages_sent.get(),
        "sim_time": system.sim.now,
        "events_per_sec": events / elapsed,
        "peak_rss_kb": _peak_rss_kb(),
    }
    metrics.update(_latency_percentiles(stats.latencies))
    return ScenarioResult(
        name="large_churn",
        ops_per_sec=stats.retired.get() / elapsed,
        events=events,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# scenario: wheel-heavy scale test (the ISSUE 9 calendar-queue payoff)
# ----------------------------------------------------------------------
def bench_huge_churn(params: Dict, seed: int) -> ScenarioResult:
    """The scale configuration the calendar queue and the object pools
    were built for: thousands of nodes, a token stream injected in
    same-instant bursts, and :class:`DiscreteLatency` (a few distinct
    path classes) so messages pile into shared timestamp buckets instead
    of degenerating to one bucket per event. A seeded Poisson membership
    trace churns the ring underneath.

    Zero tokens may drop: recovery is enabled, so a drop means the
    token plane lost work, and the scenario aborts rather than report a
    rate for a broken run. ``verify()`` must also pass.

    ``burst`` tokens are injected at each instant; ``tokens`` must be a
    multiple of it. The rate is retired tokens per wall-clock second;
    ``events_per_sec`` and ``peak_rss_kb`` ride along as wall-clock
    metrics (excluded from fingerprints), everything else is a pure
    function of the seed.
    """
    width = params["width"]
    nodes = params["nodes"]
    tokens = params["tokens"]
    duration = params["duration"]
    join_rate = params["join_rate"]
    crash_rate = params["crash_rate"]
    burst = params.get("burst", 1)
    min_nodes = params.get("min_nodes", max(4, nodes // 2))
    latency_values = params.get("latency_values", (0.5, 1.0, 2.0))
    if burst < 1 or tokens % burst:
        raise BenchmarkError(
            "tokens (%d) must be a positive multiple of burst (%d)"
            % (tokens, burst)
        )

    system = AdaptiveCountingSystem(
        width=width,
        seed=seed,
        initial_nodes=nodes,
        latency=DiscreteLatency(list(latency_values), random.Random(seed + 2)),
    )
    system.converge()
    events_before = system.sim.events_run.get()

    trace = churn_trace(
        random.Random(seed + 1),
        duration=duration,
        join_rate=join_rate,
        leave_rate=0.0,
        crash_rate=crash_rate,
    )
    instants = tokens // burst
    step = duration / instants
    joins = crashes = 0

    start = time.perf_counter()
    trace_index = 0
    inject = system.inject_token
    advance = system.advance
    for index in range(instants):
        target_time = (index + 1) * step
        while trace_index < len(trace) and trace[trace_index].time <= target_time:
            event = trace[trace_index]
            trace_index += 1
            if event.action == "join":
                system.add_node()
                joins += 1
            elif system.num_nodes > min_nodes:
                system.crash_node()
                crashes += 1
        advance(step)
        for _ in range(burst):
            inject()
    system.run_until_quiescent()
    elapsed = max(time.perf_counter() - start, 1e-9)
    system.verify()

    stats = system.token_stats
    dropped = stats.dropped.get()
    if dropped:
        raise BenchmarkError(
            "huge_churn dropped %d tokens with recovery enabled — the "
            "profile requires a zero-drop run" % dropped
        )
    events = system.sim.events_run.get() - events_before
    pools = system.publish_pool_stats()
    metrics = {
        "width": width,
        "nodes": system.num_nodes,
        "joins": joins,
        "crashes": crashes,
        "burst": burst,
        "retired": stats.retired.get(),
        "dropped": dropped,
        "mean_hops": stats.mean_hops,
        "mean_sim_latency": stats.mean_latency,
        "messages_sent": system.bus.messages_sent.get(),
        "sim_time": system.sim.now,
        "envelopes_created": pools["envelopes"]["created"],
        "envelopes_reused": pools["envelopes"]["reused"],
        "handles_created": pools["handles"]["created"],
        "handles_reused": pools["handles"]["reused"],
        "events_per_sec": events / elapsed,
        "peak_rss_kb": _peak_rss_kb(),
    }
    metrics.update(_latency_percentiles(stats.latencies))
    return ScenarioResult(
        name="huge_churn",
        ops_per_sec=stats.retired.get() / elapsed,
        events=events,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# scenario: rules convergence while growing
# ----------------------------------------------------------------------
def bench_converge(params: Dict, seed: int) -> ScenarioResult:
    """Grow a one-node system to ``nodes`` and let the Section 3.2
    rules converge; the rate is nodes absorbed per wall-clock second
    (join handoffs + splitting/merging until fixpoint)."""
    width = params["width"]
    nodes = params["nodes"]

    start = time.perf_counter()
    system = AdaptiveCountingSystem(width=width, seed=seed, initial_nodes=1)
    for _ in range(nodes - 1):
        system.add_node()
    rounds = system.converge()
    elapsed = max(time.perf_counter() - start, 1e-9)

    metrics = system.metrics()
    return ScenarioResult(
        name="converge",
        ops_per_sec=nodes / elapsed,
        events=system.sim.events_run.get(),
        metrics={
            "width": width,
            "nodes": nodes,
            "rounds": rounds,
            "splits": system.stats.splits,
            "merges": system.stats.merges,
            "components": metrics.num_components,
            "effective_width": metrics.effective_width,
            "effective_depth": metrics.effective_depth,
        },
    )


SCENARIOS: Dict[str, Callable[[Dict, int], ScenarioResult]] = {
    "token_routing": bench_token_routing,
    "batch_counts": bench_batch_counts,
    "inject_to_retire": bench_inject_to_retire,
    "large_churn": bench_large_churn,
    "huge_churn": bench_huge_churn,
    "converge": bench_converge,
}
