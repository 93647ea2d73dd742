"""Schedule tie-break policies: FIFO equivalence and seeded perturbation.

The three properties the sanitizer's soundness rests on:

1. ``FifoPolicy`` (and no policy at all) reproduce the exact pre-policy
   event order — the policy hook costs nothing when unused.
2. ``PerturbedPolicy`` with different seeds produces *different*
   same-timestamp orders, yet every perturbed schedule is legal: the
   end-to-end ``burst_drain`` scenario (the whole token budget lands at
   one instant, so ties are everywhere) stays verify-green under any
   seed.
3. One seed reproduces its own run exactly (the RSC611 contract).
"""

import random

import pytest

from repro.obs import recorder as obs_recorder
from repro.scenarios.compile import run_scenario
from repro.scenarios.registry import get_scenario
from repro.sim.events import (
    FifoPolicy,
    PerturbedPolicy,
    Simulator,
    schedule_policy,
)

SPEC = get_scenario("burst_drain")


def _tie_order(policy):
    """Execution order of 8 same-timestamp events under ``policy``."""
    sim = Simulator(policy=policy)
    log = []
    for index in range(8):
        sim.schedule(1.0, lambda index=index: log.append(index))
    sim.run_until_idle()
    return log


class TestFifoEquivalence:
    def test_fifo_policy_matches_no_policy_on_ties(self):
        assert _tie_order(None) == _tie_order(FifoPolicy()) == list(range(8))

    def test_fifo_policy_key_is_the_identity(self):
        policy = FifoPolicy()
        assert [policy.key(seq) for seq in range(5)] == [0, 1, 2, 3, 4]
        assert policy.delivery_jitter() == 0.0

    def test_fifo_bench_fingerprint_is_byte_identical(self):
        # The strongest equivalence we can assert from outside: an
        # entire end-to-end scenario produces the identical run summary
        # with FifoPolicy installed and with none.
        bare = run_scenario(SPEC).summary
        with schedule_policy(FifoPolicy):
            fifo = run_scenario(SPEC).summary
        assert fifo == bare


class TestPerturbation:
    def test_different_seeds_reorder_ties_differently(self):
        orders = {
            tuple(_tie_order(PerturbedPolicy(random.Random(seed))))
            for seed in (1, 2, 3, 4)
        }
        assert len(orders) > 1  # seeds genuinely shuffle the tie group
        for order in orders:
            assert sorted(order) == list(range(8))  # nothing lost or duplicated

    def test_one_seed_reproduces_its_own_order(self):
        first = _tie_order(PerturbedPolicy(random.Random(42)))
        second = _tie_order(PerturbedPolicy(random.Random(42)))
        assert first == second

    def test_time_order_is_never_violated(self):
        sim = Simulator(policy=PerturbedPolicy(random.Random(5)))
        log = []
        sim.schedule(2.0, lambda: log.append("late"))
        sim.schedule(1.0, lambda: log.append("early"))
        sim.run_until_idle()
        assert log == ["early", "late"]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_scenario_verify_green_under_any_seed(self, seed):
        # run_scenario verifies every system and raises on any invariant
        # violation — completing at all IS the green result.
        rng = random.Random(seed)
        with schedule_policy(lambda: PerturbedPolicy(rng)):
            summary = run_scenario(SPEC).summary
        assert summary["systems"][0]["events_run"] > 0

    def test_two_seeds_produce_different_event_interleavings(self):
        # Different perturbation seeds must actually explore different
        # schedules on the real scenario, not just on toy tie groups.
        # End-state fingerprints can legitimately coincide (routing is
        # conservation-bound), so observe the *order* of token hops via
        # the obs layer instead.
        hop_orders = []
        for seed in (1, 2):
            hops = []

            class HopTap(obs_recorder.NullRecorder):
                enabled = True

                def token_hop(self, ts, token, path, port, batch_size):
                    hops.append((ts, token.token_id, path, port))

            rng = random.Random(seed)
            with schedule_policy(lambda: PerturbedPolicy(rng)):
                with obs_recorder.recording(HopTap()):
                    run_scenario(SPEC)
            hop_orders.append(hops)
        assert hop_orders[0] != hop_orders[1]


class TestPolicyPlumbing:
    def test_jitter_must_be_finite_and_non_negative(self):
        with pytest.raises(ValueError):
            PerturbedPolicy(random.Random(1), max_jitter=-0.5)
        with pytest.raises(ValueError):
            PerturbedPolicy(random.Random(1), max_jitter=float("inf"))
        with pytest.raises(ValueError):
            PerturbedPolicy(random.Random(1), max_jitter=float("nan"))

    def test_jitter_draws_stay_in_range(self):
        policy = PerturbedPolicy(random.Random(3), max_jitter=0.25)
        draws = [policy.delivery_jitter() for _ in range(100)]
        assert all(0.0 <= draw < 0.25 for draw in draws)
        assert any(draws)  # the rng is actually consulted

    def test_schedule_policy_swap_point_restores_on_exit(self):
        import repro.sim.events as events

        assert events.POLICY_FACTORY is None
        with schedule_policy(FifoPolicy):
            assert events.POLICY_FACTORY is FifoPolicy
            with schedule_policy(None):
                assert events.POLICY_FACTORY is None
            assert events.POLICY_FACTORY is FifoPolicy
        assert events.POLICY_FACTORY is None

    def test_simulator_snapshots_the_factory_at_construction(self):
        with schedule_policy(FifoPolicy):
            sim = Simulator()
        # The policy survives the swap point being restored.
        assert isinstance(sim.policy, FifoPolicy)
        assert Simulator().policy is None
