"""C2 — Section 3.4: crashes and self-stabilising recovery.

Two scenarios: crashes at quiescent instants (recovery reconstructs the
exact state from in-neighbours, nothing lost) and crashes with tokens in
flight (queued tokens are lost; the output imbalance afterwards is
bounded by the loss, the stabilisation guarantee).
"""

from repro.runtime.system import AdaptiveCountingSystem


def test_crash_stabilization(report, benchmark):
    # Scenario A: quiescent crashes.
    rows = []
    system = AdaptiveCountingSystem(width=64, seed=3402, initial_nodes=30)
    system.converge()
    for round_index in range(4):
        for _ in range(25):
            system.inject_token()
        system.run_until_quiescent()
        report_obj = system.crash_node()
        system.run_until_quiescent()
        rows.append(
            (
                round_index,
                len(report_obj.lost_components),
                system.stats.recoveries,
                system.token_stats.issued,
                system.token_stats.retired,
                max(system.output_counts) - min(system.output_counts),
            )
        )
    report(
        "Section 3.4 - quiescent crashes: exact recovery",
        [
            "round",
            "components lost",
            "recoveries (cum)",
            "issued",
            "retired",
            "output imbalance",
        ],
        rows,
        notes="With no tokens in flight, reconstruction from in-neighbour counters is "
        "exact: zero token loss, imbalance stays <= 1.",
    )
    assert system.token_stats.retired == system.token_stats.issued
    assert max(system.output_counts) - min(system.output_counts) <= 1

    # Scenario B: crashes mid-traffic.
    rows_b = []
    system_b = AdaptiveCountingSystem(width=64, seed=3403, initial_nodes=30)
    system_b.converge()
    for round_index in range(4):
        for _ in range(25):
            system_b.inject_token()
        crash_report = system_b.membership.crash(
            next(
                nid
                for nid, host in sorted(system_b.hosts.items())
                if host.component_count() > 0
            )
        )
        system_b.lost_components.update(crash_report.lost_components)
        system_b.lost_registry.update(crash_report.lost_registry_entries)
        system_b.stabilize()
        system_b.run_until_quiescent()
        lost = system_b.token_stats.issued - system_b.token_stats.retired
        imbalance = max(system_b.output_counts) - min(system_b.output_counts)
        rows_b.append(
            (
                round_index,
                len(crash_report.lost_components),
                crash_report.lost_buffered_tokens,
                crash_report.disturbed_tokens,
                lost,
                imbalance,
            )
        )
        assert imbalance <= lost + system_b.stats.disturbed_tokens + 1
    report(
        "Section 3.4 - mid-traffic crashes: bounded damage",
        [
            "round",
            "components lost",
            "buffered tokens lost",
            "tokens disturbed",
            "tokens lost (cum)",
            "output imbalance",
        ],
        rows_b,
        notes="Self-stabilisation restores a legal state: the residual output imbalance "
        "never exceeds lost + disturbed tokens (+1) - disturbed tokens were in flight "
        "toward the crashed components and each can displace one output slot.",
    )

    def crash_and_recover():
        sys_small = AdaptiveCountingSystem(width=32, seed=3404, initial_nodes=15)
        sys_small.converge()
        sys_small.crash_node()
        sys_small.run_until_quiescent()
        return sys_small.stats.recoveries

    benchmark(crash_and_recover)
