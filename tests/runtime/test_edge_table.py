"""The directory's edge table: what it remembers is always what a fresh
resolution would say, and it forgets only along a changed path."""

import random

from repro.core.decomposition import DecompositionTree
from repro.chord.ring import ChordRing
from repro.runtime.directory import ComponentDirectory
from repro.runtime.system import AdaptiveCountingSystem


def fresh_resolution(system, spec, port):
    resolved = system.wiring.resolve_output(spec, port, system.directory.live_paths())
    if resolved[0] == "out":
        return resolved
    return (resolved[0], resolved[1].path, resolved[2])


def audit(system):
    """Every remembered edge of a live component equals a fresh
    resolution under the live set; a crash hole is never remembered."""
    remembered = system.directory.edge_reader()
    for path in system.directory.live_paths():
        spec = system.tree.node(path)
        for port in range(spec.width):
            cached = remembered((path, port))
            if cached is not None:
                assert cached == fresh_resolution(system, spec, port), (path, port)


def test_audit_under_churn_with_tokens_in_flight():
    system = AdaptiveCountingSystem(width=16, seed=11, initial_nodes=24, auto_stabilize=False)
    system.converge()
    rng = random.Random(12)
    for step in range(120):
        for _ in range(rng.randrange(1, 6)):
            system.inject_token()
        system.advance(rng.choice([0.5, 1.0, 2.5]))  # tokens stay in flight
        roll = rng.random()
        if roll < 0.4 or system.num_nodes < 8:
            system.add_node()
        elif roll < 0.7:
            system.remove_node()
        else:
            system.crash_node()
            audit(system)
            system.inject_token()
            system.advance(2.0)  # some tokens now bounce off the hole
            audit(system)
            system.stabilize()
        audit(system)
        if step % 10 == 9:
            system.run_until_quiescent()
            audit(system)
            system.converge()
            audit(system)
    system.run_until_quiescent()
    system.converge()
    audit(system)
    system.directory.check_consistent()  # crashes void the step property, not the cut
    assert system.stats.splits and system.stats.merges and system.stats.recoveries


class TestDropRule:
    """The rule itself, on a bare directory: a path entering or leaving
    the live set drops the edges whose destination is comparable with
    it, and nothing else."""

    def setup_method(self):
        self.directory = ComponentDirectory(DecompositionTree(8), ChordRing(seed=1))
        self.probe = self.directory.edge_reader()
        for path in [(0,), (1,), (2, 0), (2, 1)]:
            self.directory.register(path, 7)
        self.directory.remember_edge(((0,), 0), ("member", (2, 0), 0))
        self.directory.remember_edge(((1,), 0), ("member", (2, 1), 1))
        self.directory.remember_edge(((2, 0), 0), ("out", 3))

    def test_a_handoff_drops_nothing(self):
        live = self.directory.live_paths()
        generation = self.directory.generation
        self.directory.register((2, 0), 9)
        assert self.probe(((0,), 0)) and self.probe(((1,), 0))
        assert self.directory.live_paths() is live  # the memo survives
        assert self.directory.generation == generation + 1  # the stamp moves

    def test_leaving_drops_the_edges_into_the_path_only(self):
        self.directory.unregister((2, 0))
        assert self.probe(((0,), 0)) is None
        assert self.probe(((1,), 0)) == ("member", (2, 1), 1)
        assert self.probe(((2, 0), 0)) == ("out", 3)  # a wire depends on no path

    def test_a_child_entering_below_a_destination_drops_it(self):
        self.directory.register((2, 0, 1), 7)
        assert self.probe(((0,), 0)) is None
        assert self.probe(((1,), 0)) is not None

    def test_an_ancestor_entering_above_destinations_drops_them(self):
        self.directory.register((2,), 7)
        assert self.probe(((0,), 0)) is None
        assert self.probe(((1,), 0)) is None
        self.directory.remember_edge(((0,), 0), ("member", (2,), 4))
        self.directory.unregister((2, 0))  # a prefix of it is a destination
        assert self.probe(((0,), 0)) is None
