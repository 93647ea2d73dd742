"""Property-based tests of the full runtime (hypothesis).

Random scripts of membership changes, convergence, traffic bursts and
crashes against the live system, checking the global invariants after
every quiescent point. These are the runtime analogue of the core
property tests: if anything in the protocol stack mishandles an
interleaving, this is where it surfaces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.combining import CombiningConfig
from repro.runtime.system import AdaptiveCountingSystem

# One step of the random script.
OPS = st.sampled_from(["join", "join", "leave", "burst", "converge", "crash"])


@st.composite
def scripts(draw):
    return draw(st.lists(OPS, min_size=3, max_size=14))


class TestRuntimeProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), scripts())
    def test_invariants_hold_under_random_scripts(self, seed, script):
        system = AdaptiveCountingSystem(width=32, seed=seed, initial_nodes=4)
        for op in script:
            if op == "join":
                system.add_node()
            elif op == "leave" and system.num_nodes > 2:
                system.remove_node()
            elif op == "burst":
                for _ in range(6):
                    system.inject_token()
            elif op == "converge":
                system.converge()
            elif op == "crash" and system.num_nodes > 3:
                system.crash_node()
        system.converge()
        system.run_until_quiescent()
        # Only tokens in a crashed host's buffers can be lost, and no
        # host buffers anything between script steps.
        assert system.token_stats.issued - system.token_stats.retired == 0
        system.verify()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), scripts(), st.floats(0.5, 4.0))
    def test_combining_preserves_invariants(self, seed, script, window):
        system = AdaptiveCountingSystem(
            width=16,
            seed=seed,
            initial_nodes=4,
            combining=CombiningConfig(window=window),
        )
        for op in script:
            if op == "join":
                system.add_node()
            elif op == "leave" and system.num_nodes > 2:
                system.remove_node()
            elif op == "burst":
                for _ in range(4):
                    system.inject_token()
            elif op == "converge":
                system.converge()
            # crashes skipped: combining buffers at a crashed *sender*
            # are a client-retry concern, not a network invariant.
        system.converge()
        system.run_until_quiescent()
        system.verify()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 40))
    def test_converged_shape_matches_theory_window(self, seed, n):
        from repro.analysis.theory import TheoryModel

        system = AdaptiveCountingSystem(width=256, seed=seed, initial_nodes=n)
        system.converge()
        model = TheoryModel(256)
        star = model.ell_star(n)
        low = max(0, star - 4)
        high = min(system.tree.max_level, star + 4)
        for level in system.component_levels():
            assert low <= level <= high
