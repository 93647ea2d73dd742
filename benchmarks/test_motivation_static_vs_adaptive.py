"""M1 — Section 2's motivating example: static deployment vs adaptive.

The paper: "Suppose we had set the width w = 100, expecting the system
to grow to up to 500 nodes. There would be about 1000 balancer objects
implementing this network. If the actual number of nodes currently in
the system is 50, then a centralized low parallelism implementation
might be the best choice."

We use w = 128 (the nearest power of two). The bench deploys (a) the
static balancer-per-object network — the adaptive system pinned at the
leaf cut of ``T_w`` — and (b) the adaptive network on the same system
sizes, and compares object counts, per-token message costs
and end-to-end latency. The adaptive network should use dramatically
fewer objects and messages at small N and converge toward the static
shape as N approaches the width.
"""

from repro.analysis.theory import static_balancer_count
from repro.core.bitonic import bitonic_network
from repro.core.cut import Cut
from repro.runtime.system import AdaptiveCountingSystem

WIDTH = 128
TOKENS = 200


def run_static(n):
    system = AdaptiveCountingSystem(
        width=WIDTH, seed=1000 + n, initial_nodes=n, service_time=0.1
    )
    system.split_to(Cut.leaves(system.tree))
    for _ in range(TOKENS):
        system.inject_token()
    system.run_until_quiescent()
    return system


def run_adaptive(n):
    system = AdaptiveCountingSystem(
        width=WIDTH, seed=2000 + n, initial_nodes=n, service_time=0.1
    )
    system.converge()
    for _ in range(TOKENS):
        system.inject_token()
    system.run_until_quiescent()
    return system


def test_motivation_static_vs_adaptive(report, benchmark):
    rows = []
    for n in (5, 20, 50, 100):
        static = run_static(n)
        adaptive = run_adaptive(n)
        rows.append(
            (
                n,
                len(static.directory),
                len(adaptive.directory),
                "%.1f" % static.token_stats.mean_hops,
                "%.1f" % adaptive.token_stats.mean_hops,
                "%.1f" % static.token_stats.mean_latency,
                "%.1f" % adaptive.token_stats.mean_latency,
            )
        )
    report(
        "Section 2 motivation - static BITONIC[%d] vs adaptive, %d tokens"
        % (WIDTH, TOKENS),
        [
            "N",
            "static objects",
            "adaptive components",
            "static hops/token",
            "adaptive hops/token",
            "static latency",
            "adaptive latency",
        ],
        rows,
        notes="The static network always uses %d objects and %d hops/token; the adaptive "
        "network matches the system size, with fewer objects and hops at small N."
        % (bitonic_network(WIDTH).num_balancers, bitonic_network(WIDTH).depth),
    )
    # The paper's qualitative claims:
    for n, s_obj, a_comp, s_hops, a_hops, _sl, _al in rows:
        assert s_obj == static_balancer_count(WIDTH)  # size-independent overhead
        assert float(s_hops) == bitonic_network(WIDTH).depth  # full depth
        assert a_comp <= s_obj  # adaptive never uses more objects
    small_n_row = rows[0]
    assert small_n_row[2] <= 6  # near-centralised at N=5
    assert float(small_n_row[4]) < float(small_n_row[3])  # fewer hops too

    benchmark(lambda: run_adaptive(20).token_stats.retired)
