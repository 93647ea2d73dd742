"""B2 — saturation throughput: offered load vs delivered throughput.

The paper's purpose for width is *throughput*: a width-w network can
retire up to w tokens per balancer-service-time, while a central
counter caps at 1. This bench drives each structure open-loop (tokens
injected at a fixed rate for a fixed duration) and reports delivered
throughput and latency across offered loads — the saturation curves.
Shapes to reproduce: the central counter saturates at 1/service; the
adaptive network's knee scales with its effective width; below
saturation all structures deliver the offered load. The central counter
is the adaptive system left at its root cut and static BITONIC[w] the
system pinned at its leaf cut, so every structure runs on one hop.
"""

from repro.analysis.theory import static_balancer_count
from repro.core.bitonic import bitonic_network
from repro.core.cut import Cut
from repro.runtime.system import AdaptiveCountingSystem

SERVICE = 0.5  # per-message service time -> central caps at 2 tokens/time
DURATION = 400.0
NODES = 60
WIDTH = 64


def drive_open_loop(system, rate, duration):
    """Schedule Poisson-free (deterministic-spacing) injections."""
    sim = system.sim
    spacing = 1.0 / rate
    count = int(duration * rate)
    for index in range(count):
        sim.schedule_at(sim.now + index * spacing, system.inject_token)
    sim.run_until_idle()
    return count


def measure(system, rate):
    start = system.sim.now
    drive_open_loop(system, rate, DURATION)
    elapsed = system.sim.now - start
    return (
        system.token_stats.retired / elapsed,
        system.token_stats.mean_latency,
    )


def build(seed):
    return AdaptiveCountingSystem(
        width=WIDTH, seed=seed, initial_nodes=NODES, service_time=SERVICE
    )


def measure_adaptive(rate):
    system = build(700)
    system.converge()
    return measure(system, rate)


def measure_central(rate):
    return measure(build(701), rate)


def measure_static(rate):
    system = build(702)
    system.split_to(Cut.leaves(system.tree))
    result = measure(system, rate)
    assert len(system.directory) == static_balancer_count(WIDTH)
    assert system.token_stats.mean_hops == bitonic_network(WIDTH).depth
    return result


def test_throughput_saturation(report, benchmark):
    rows = []
    central_cap = 1.0 / SERVICE
    for rate in (0.5, 1.0, 2.0, 4.0, 8.0):
        adaptive_tp, adaptive_lat = measure_adaptive(rate)
        central_tp, central_lat = measure_central(rate)
        static_tp, static_lat = measure_static(rate)
        rows.append(
            (
                rate,
                "%.2f / %.0f" % (adaptive_tp, adaptive_lat),
                "%.2f / %.0f" % (central_tp, central_lat),
                "%.2f / %.0f" % (static_tp, static_lat),
            )
        )
    report(
        "Saturation - delivered throughput / mean latency vs offered load "
        "(service %.1f, central cap = %.1f tokens/time, N = %d)"
        % (SERVICE, central_cap, NODES),
        [
            "offered rate",
            "adaptive tp/lat",
            "central tp/lat",
            "static bitonic tp/lat",
        ],
        rows,
        notes="Below the cap every structure delivers the offered load; past it the "
        "central counter's throughput pins at 1/service while its latency explodes; "
        "the parallel structures keep absorbing the load.",
    )
    # Quantitative shape checks at the extremes.
    low = rows[0]
    high = rows[-1]
    assert abs(float(low[1].split(" / ")[0]) - 0.5) < 0.1  # all deliver 0.5
    assert abs(float(low[2].split(" / ")[0]) - 0.5) < 0.1
    central_high_tp = float(high[2].split(" / ")[0])
    adaptive_high_tp = float(high[1].split(" / ")[0])
    assert central_high_tp <= central_cap * 1.1  # saturated at the cap
    assert adaptive_high_tp > central_high_tp * 1.5  # parallelism pays
    central_low_lat = float(low[2].split(" / ")[1])
    central_high_lat = float(high[2].split(" / ")[1])
    assert central_high_lat > 10 * max(central_low_lat, 1.0)  # queueing blow-up

    benchmark(lambda: measure_central(4.0)[0])
