"""Tests for the static baselines: the adaptive system pinned at its leaf
cut (static BITONIC, one object per balancer) or left at its root cut
(the central counter), and the counting-tree deployment."""

from repro.analysis.theory import static_balancer_count
from repro.core.bitonic import bitonic_network
from repro.core.cut import Cut
from repro.core.verification import counting_values_ok, has_step_property
from repro.runtime.static_deploy import CountingTreeDeployment
from repro.runtime.system import AdaptiveCountingSystem

WIDTHS = (8, 16, 64)


def static_bitonic(width, nodes, seed):
    system = AdaptiveCountingSystem(width, seed=seed, initial_nodes=nodes)
    system.split_to(Cut.leaves(system.tree))
    return system


class TestStaticBitonic:
    def test_object_count_is_size_independent(self):
        for width in WIDTHS:
            for nodes in (1, 10, 50):
                system = static_bitonic(width, nodes, seed=1)
                assert len(system.directory) == static_balancer_count(width)
                assert len(system.directory) == bitonic_network(width).num_balancers

    def test_counts_correctly(self):
        for width in WIDTHS:
            system = static_bitonic(width, 10, seed=2)
            tokens = [system.inject_token(i % width) for i in range(5 * width)]
            system.run_until_quiescent()
            assert counting_values_ok([t.value for t in tokens])
            assert has_step_property(system.output_counts)
            system.verify()

    def test_hops_equal_balancer_layers_crossed(self):
        for width in WIDTHS:
            system = static_bitonic(width, 5, seed=3)
            tokens = [system.inject_token(i) for i in range(width)]
            system.run_until_quiescent()
            # every wire crosses exactly `depth` balancers in a bitonic net
            assert {t.hops for t in tokens} == {bitonic_network(width).depth}

    def test_skewed_input_still_steps(self):
        for width in WIDTHS:
            system = static_bitonic(width, 5, seed=4)
            for _ in range(3 * width - 1):
                system.inject_token(0)
            system.run_until_quiescent()
            assert has_step_property(system.output_counts)


class TestRootCut:
    """The central counter: at its root cut the whole network is one
    object on one node."""

    def test_values_sequential(self):
        system = AdaptiveCountingSystem(16, seed=5, initial_nodes=10)
        tokens = [system.inject_token() for _ in range(20)]
        system.run_until_quiescent()
        assert counting_values_ok([t.value for t in tokens])
        assert {t.hops for t in tokens} == {1}

    def test_single_object(self):
        assert len(AdaptiveCountingSystem(16, seed=6, initial_nodes=10).directory) == 1

    def test_serialises_at_one_node(self):
        """With service time s, n tokens take ~n*s: the bottleneck."""
        system = AdaptiveCountingSystem(16, seed=7, initial_nodes=10, service_time=1.0)
        tokens = [system.inject_token() for _ in range(20)]
        system.run_until_quiescent()
        assert system.sim.now >= 20.0
        assert counting_values_ok([t.value for t in tokens])


class TestCountingTreeDeployment:
    def test_values_gap_free(self):
        deployment = CountingTreeDeployment(3, 10, seed=8)
        tokens = [deployment.inject_token() for _ in range(30)]
        deployment.run_until_quiescent()
        assert counting_values_ok([t.value for t in tokens])

    def test_hops_equal_depth_plus_leaf(self):
        deployment = CountingTreeDeployment(3, 10, seed=9)
        token = deployment.inject_token()
        deployment.run_until_quiescent()
        assert token.hops == 4  # 3 toggles + 1 leaf counter

    def test_depth_zero(self):
        deployment = CountingTreeDeployment(0, 3, seed=10)
        tokens = [deployment.inject_token() for _ in range(5)]
        deployment.run_until_quiescent()
        assert [t.value for t in tokens] == [0, 1, 2, 3, 4]
