"""Integration: crash-and-recover scenarios (paper Section 3.4)."""

import random

from repro.core.verification import has_step_property
from repro.runtime.system import AdaptiveCountingSystem


class TestCrashRecovery:
    def test_repeated_quiescent_crashes(self):
        system = AdaptiveCountingSystem(width=32, seed=41, initial_nodes=30)
        system.converge()
        for round_index in range(5):
            for _ in range(20):
                system.inject_token()
            system.run_until_quiescent()
            system.crash_node()
            system.run_until_quiescent()
            system.directory.check_consistent()
        assert system.token_stats.retired == 100
        assert has_step_property(system.output_counts)

    def test_crash_during_traffic_conserves_or_bounds_loss(self):
        system = AdaptiveCountingSystem(width=32, seed=42, initial_nodes=30)
        system.converge()
        rng = random.Random(43)
        for round_index in range(4):
            for _ in range(25):
                system.inject_token(rng.randrange(32))
            system.crash_node()  # mid-flight
            system.run_until_quiescent()
        # Only tokens in a crashed host's buffers can be lost, and no
        # host buffers anything between operations.
        assert system.token_stats.issued - system.token_stats.retired == 0
        system.verify()

    def test_crash_then_rules_still_converge(self):
        system = AdaptiveCountingSystem(width=64, seed=44, initial_nodes=35)
        system.converge()
        system.crash_node()
        system.run_until_quiescent()
        system.converge()
        system.directory.check_consistent()
        values = [system.next_value() for _ in range(10)]
        assert values == sorted(values)  # sequential injections, quiescent

    def test_crash_of_splitter_does_not_strand_merges(self):
        """After the splitter dies, shrinkage still triggers merges via
        the adopted registry entries."""
        system = AdaptiveCountingSystem(width=64, seed=45, initial_nodes=30)
        system.converge()
        assert system.stats.splits > 0
        # Crash several nodes, then shrink far enough to force merges.
        for _ in range(3):
            system.crash_node()
            system.run_until_quiescent()
        while system.num_nodes > 2:
            system.remove_node()
        system.converge()
        assert len(system.directory) <= 7  # near-singleton again
