"""B1 — Baseline shoot-out: adaptive network vs every static structure.

Runs the same token workload through (a) the adaptive counting network,
(b) static BITONIC[w] with one object per balancer, (c) static
PERIODIC[w] likewise (structural comparison), (d) a distributed
counting tree, and (e) the centralised counter, on the same simulated
substrate (latency 1, service time 0.1 per message). (b) and (c) are
the adaptive system pinned at the leaf cut of its tree and (e) the
system left at its root cut, so all four run on one simulated hop.
Reports objects deployed, per-token hops, mean latency, and makespan
(simulated time to drain the workload) — the throughput proxy. The paper's qualitative prediction: the central
counter serialises (makespan ~ tokens x service), static networks pay
full depth regardless of N, and the adaptive network interpolates.
"""

from repro.analysis.theory import static_balancer_count
from repro.core.bitonic import bitonic_network
from repro.core.cut import Cut
from repro.core.periodic import periodic_depth, periodic_network
from repro.ext.periodic_adaptive import PeriodicWiring, periodic_tree
from repro.runtime.static_deploy import CountingTreeDeployment
from repro.runtime.system import AdaptiveCountingSystem

TOKENS = 1500
NODES = 100
WIDTH = 64
SERVICE = 0.1


def system(seed, nodes=NODES, **kwargs):
    """A system at its root cut: the central counter unless split."""
    return AdaptiveCountingSystem(
        WIDTH, seed=seed, initial_nodes=nodes, service_time=SERVICE, **kwargs
    )


def pinned_at_leaves(deployment):
    """The static network: one object per balancer, never reconfigured."""
    deployment.split_to(Cut.leaves(deployment.tree))
    return deployment


def drain(deployment, tokens):
    start = deployment.sim.now
    for _ in range(tokens):
        deployment.inject_token()
    deployment.run_until_quiescent()
    return deployment.sim.now - start


def row(name, deployment, objects):
    makespan = drain(deployment, TOKENS)
    return (
        name,
        objects,
        "%.1f" % deployment.token_stats.mean_hops,
        "%.1f" % deployment.token_stats.mean_latency,
        "%.0f" % makespan,
    )


def test_baseline_shootout(report, benchmark):
    adaptive = system(4001)
    adaptive.converge()
    static = pinned_at_leaves(system(4002))
    tree = periodic_tree(WIDTH)
    static_periodic = pinned_at_leaves(system(4003, tree=tree, wiring=PeriodicWiring(tree)))
    counting_tree = CountingTreeDeployment(5, NODES, seed=4004, service_time=SERVICE)
    central = system(4005)
    rows = [
        row("adaptive (this paper)", adaptive, len(adaptive.directory)),
        row("static bitonic (one object/balancer)", static, len(static.directory)),
        row(
            "static periodic (depth log^2 w = %d)" % periodic_depth(WIDTH),
            static_periodic,
            len(static_periodic.directory),
        ),
        row("counting tree (depth 5)", counting_tree, counting_tree.num_objects),
        row("central counter", central, len(central.directory)),
    ]

    report(
        "Baselines - %d tokens, N = %d nodes, width %d, service %.1f/msg"
        % (TOKENS, NODES, WIDTH, SERVICE),
        ["structure", "objects", "hops/token", "mean latency", "makespan"],
        rows,
        notes="Central counter serialises at one node (highest makespan per token "
        "throughput); static networks pay full depth in hops; the adaptive network "
        "uses ~N components and intermediate hops.",
    )

    # Qualitative shape assertions.
    by_name = {row[0].split(" (")[0]: row for row in rows}
    adaptive_row = by_name["adaptive"]
    static_row = by_name["static bitonic"]
    central_row = by_name["central counter"]
    # The static rows are Section 2's simple approach: one object per
    # balancer whatever N is, and every token crosses the full depth.
    assert static_row[1] == static_balancer_count(WIDTH)
    assert static.token_stats.mean_hops == bitonic_network(WIDTH).depth
    assert by_name["static periodic"][1] == periodic_network(WIDTH).num_balancers
    assert static_periodic.token_stats.mean_hops == periodic_depth(WIDTH)
    assert int(adaptive_row[1]) < int(static_row[1])  # fewer objects
    assert float(adaptive_row[2]) < float(static_row[2])  # fewer hops
    # The root-bottleneck effect: the central counter serialises every
    # token at one node, so at this load its makespan is at least
    # TOKENS * SERVICE and exceeds the parallel structures'.
    assert float(central_row[4]) >= TOKENS * SERVICE
    assert float(central_row[4]) > float(adaptive_row[4])
    # Section 1.3's observation about tree structures: every token
    # crosses the root toggle, so the counting tree serialises there and
    # cannot beat the central counter's makespan at saturating load —
    # while the counting network, which "does not have a single root
    # node", does.
    assert float(by_name["counting tree"][4]) >= TOKENS * SERVICE
    assert float(adaptive_row[4]) < float(by_name["counting tree"][4])

    # The crossover: the central counter's makespan is flat in N while
    # the adaptive network's drops as the system (and hence its width)
    # grows — the thesis of the paper.
    crossover_rows = []
    for n in (10, 40, 100):
        adaptive_n = system(4010 + n, nodes=n)
        adaptive_n.converge()
        adaptive_makespan = drain(adaptive_n, TOKENS)
        central_makespan = drain(system(4020 + n, nodes=n), TOKENS)
        crossover_rows.append(
            (
                n,
                len(adaptive_n.directory),
                "%.0f" % adaptive_makespan,
                "%.0f" % central_makespan,
            )
        )
    report(
        "Baselines - adaptive vs central counter across system sizes (%d tokens)"
        % TOKENS,
        ["N", "adaptive components", "adaptive makespan", "central makespan"],
        crossover_rows,
        notes="Central is flat in N (one node serialises everything); the adaptive "
        "makespan falls as the network widens with N — crossover as N grows.",
    )
    assert float(crossover_rows[-1][2]) < float(crossover_rows[-1][3])
    assert float(crossover_rows[-1][2]) < float(crossover_rows[0][2])

    benchmark(lambda: drain(system(4006, nodes=10), 50))
