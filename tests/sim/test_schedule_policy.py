"""Same-instant ties: FIFO by default, seeded shuffles under ``shuffled_ties``.

The properties the sanitizer's soundness rests on:

1. With no tie RNG installed ties run in scheduling order — the swap
   point costs nothing when unused.
2. Different seeds produce *different* same-instant orders, yet every
   shuffled schedule is legal: time order and causality hold, every
   legal order of a tie group is reachable, and the end-to-end
   ``burst_drain`` scenario (the whole token budget lands at one
   instant, so ties are everywhere) stays verify-green under any seed.
3. One seed reproduces its own run exactly (the RSC611 contract).
"""

import itertools
import random

import pytest

import repro.sim.events as events
from repro.obs import recorder as obs_recorder
from repro.scenarios.compile import run_scenario
from repro.scenarios.registry import get_scenario
from repro.sim.events import Simulator, shuffled_ties

SPEC = get_scenario("burst_drain")


def _tie_order(rng):
    """Execution order of 8 same-timestamp events, ties shuffled by
    ``rng`` (``None``: FIFO)."""
    with shuffled_ties(rng):
        sim = Simulator()
    log = []
    for index in range(8):
        sim.schedule(1.0, lambda index=index: log.append(index))
    sim.run_until_idle()
    return log


class TestFifoEquivalence:
    def test_fifo_policy_matches_no_policy_on_ties(self):
        assert _tie_order(None) == list(range(8))

    def test_fifo_bench_fingerprint_is_byte_identical(self):
        # The strongest equivalence we can assert from outside: an
        # entire end-to-end scenario produces the identical run summary
        # when ``None`` restores FIFO ties inside a shuffled block.
        bare = run_scenario(SPEC).summary
        with shuffled_ties(random.Random(1)):
            with shuffled_ties(None):
                fifo = run_scenario(SPEC).summary
        assert fifo == bare


class TestPerturbation:
    def test_different_seeds_reorder_ties_differently(self):
        orders = {tuple(_tie_order(random.Random(seed))) for seed in (1, 2, 3, 4)}
        assert len(orders) > 1  # seeds genuinely shuffle the tie group
        for order in orders:
            assert sorted(order) == list(range(8))  # nothing lost or duplicated

    def test_one_seed_reproduces_its_own_order(self):
        assert _tie_order(random.Random(42)) == _tie_order(random.Random(42))

    def test_time_order_is_never_violated(self):
        with shuffled_ties(random.Random(5)):
            sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("late"))
        sim.schedule(1.0, lambda: log.append("early"))
        sim.run_until_idle()
        assert log == ["early", "late"]

    def test_the_shuffle_loses_no_legal_schedule(self):
        """A, B and C tie at t = 1 and A schedules D at delay 0: the
        legal orders are the 12 with D after A. FIFO gives one of them;
        200 seeds reach every one of them and nothing else."""

        def order(rng):
            with shuffled_ties(rng):
                sim = Simulator()
            log = []

            def a():
                log.append("A")
                sim.schedule(0.0, lambda: log.append("D"))

            sim.schedule(1.0, a)
            sim.schedule(1.0, lambda: log.append("B"))
            sim.schedule(1.0, lambda: log.append("C"))
            sim.run_until_idle()
            return "".join(log)

        legal = {
            "".join(perm)
            for perm in itertools.permutations("ABCD")
            if perm.index("A") < perm.index("D")
        }
        assert len(legal) == 12
        assert order(None) == "ABCD"
        assert {order(random.Random(seed)) for seed in range(200)} == legal

    @pytest.mark.parametrize("seed", [1, 2])
    def test_scenario_verify_green_under_any_seed(self, seed):
        # run_scenario verifies every system and raises on any invariant
        # violation — completing at all IS the green result.
        with shuffled_ties(random.Random(seed)):
            summary = run_scenario(SPEC).summary
        assert summary["systems"][0]["events_run"] > 0

    def test_two_seeds_produce_different_event_interleavings(self):
        # Different seeds must actually explore different schedules on
        # the real scenario, not just on toy tie groups. End-state
        # fingerprints can legitimately coincide (routing is
        # conservation-bound), so observe the *order* of token hops via
        # the obs layer instead.
        hop_orders = []
        for seed in (1, 2):
            hops = []

            class HopTap(obs_recorder.NullRecorder):
                enabled = True

                def token_hop(self, ts, token, path, port, batch_size):
                    hops.append((ts, token.token_id, path, port))

            with shuffled_ties(random.Random(seed)):
                with obs_recorder.recording(HopTap()):
                    run_scenario(SPEC)
            hop_orders.append(hops)
        assert hop_orders[0] != hop_orders[1]


class TestPolicyPlumbing:
    def test_shuffled_ties_swap_point_restores_on_exit(self):
        rng = random.Random(7)
        assert events.TIE_RNG is None
        with shuffled_ties(rng):
            assert events.TIE_RNG is rng
            with shuffled_ties(None):
                assert events.TIE_RNG is None
            assert events.TIE_RNG is rng
        assert events.TIE_RNG is None

    def test_simulator_snapshots_the_rng_at_construction(self):
        rng = random.Random(7)
        with shuffled_ties(rng):
            sim = Simulator()
        # The RNG survives the swap point being restored.
        assert sim._tie_rng is rng
        assert Simulator()._tie_rng is None
