"""C2 — Section 3.4: crashes and self-stabilising recovery.

Two scenarios: crashes at quiescent instants (recovery reconstructs the
exact state from in-neighbours, nothing lost) and crashes with tokens in
flight toward the lost components (they are disturbed, not lost:
reconstruction subtracts what is still owed, so the outputs keep the
step property — the contract ``verify()`` states whenever no token died
in a crashed host's buffers).
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
                int(system.token_stats.issued),
                int(system.token_stats.retired),
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
        assert lost == 0
        system_b.verify()
    report(
        "Section 3.4 - mid-traffic crashes: nothing lost, step property kept",
        [
            "round",
            "components lost",
            "buffered tokens lost",
            "tokens disturbed",
            "tokens lost (cum)",
            "output imbalance",
        ],
        rows_b,
        notes="Self-stabilisation restores a legal state: disturbed tokens were in flight "
        "toward the crashed components and retry; reconstruction subtracts them as still "
        "owed, so none is lost, none displaces an output slot, and the outputs keep the "
        "step property (verify() after every round).",
    )

    def crash_and_recover():
        sys_small = AdaptiveCountingSystem(width=32, seed=3404, initial_nodes=15)
        sys_small.converge()
        sys_small.crash_node()
        sys_small.run_until_quiescent()
        return sys_small.stats.recoveries

    benchmark(crash_and_recover)
