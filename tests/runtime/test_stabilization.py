"""Tests for crash recovery (paper Section 3.4 + [HT03] stabilisation)."""

import random
from types import SimpleNamespace

import pytest

from repro.core.wiring import BoundaryRef, MergerConvention, PortRef
from repro.errors import ProtocolError
from repro.ext.periodic_adaptive import PeriodicWiring, periodic_tree
from repro.runtime.stabilization import Stabilizer
from repro.runtime.system import AdaptiveCountingSystem


def loaded_node(system):
    return next(
        nid for nid, h in system.hosts.items() if h.component_count() > 0
    )


class TestReconstruction:
    def test_quiescent_crash_recovers_exact_state(self):
        """With no tokens in flight, reconstruction from in-neighbours'
        counters is exact."""
        system = AdaptiveCountingSystem(width=16, seed=1, initial_nodes=15)
        system.converge()
        for _ in range(50):
            system.inject_token()
        system.run_until_quiescent()
        victim = loaded_node(system)
        states_before = {
            p: s.copy() for p, s in system.hosts[victim].components.items()
        }
        system.crash_node(victim)
        system.run_until_quiescent()
        for path, before in states_before.items():
            owner = system.directory.owner(path)
            after = system.hosts[owner].components[path]
            assert after.total == before.total
            assert after.arrivals == before.arrivals

    def test_counting_continues_after_recovery(self):
        system = AdaptiveCountingSystem(width=16, seed=2, initial_nodes=15)
        system.converge()
        values = [system.next_value() for _ in range(20)]
        system.crash_node(loaded_node(system))
        system.run_until_quiescent()
        values += [system.next_value() for _ in range(20)]
        assert sorted(values) == list(range(40))

    def test_input_source_tracing(self):
        """The stabiliser traces every input port to a live emitter or a
        network wire."""
        system = AdaptiveCountingSystem(width=16, seed=3, initial_nodes=20)
        system.converge()
        for path in system.directory.live_paths():
            spec = system.tree.node(path)
            for port in range(spec.width):
                source = system.stabilizer.input_source(spec, port)
                if source[0] == "net":
                    assert 0 <= source[1] < 16
                else:
                    assert system.directory.is_live(source[1])

    def test_multiple_simultaneous_crashes(self):
        system = AdaptiveCountingSystem(
            width=16, seed=4, initial_nodes=25, auto_stabilize=False
        )
        system.converge()
        for _ in range(30):
            system.inject_token()
        system.run_until_quiescent()
        victims = [nid for nid, h in system.hosts.items() if h.component_count()][:2]
        for victim in victims:
            report = system.membership.crash(victim)
            system.lost_components.update(report.lost_components)
            system.lost_registry.update(report.lost_registry_entries)
        system.stabilize()
        system.run_until_quiescent()
        system.directory.check_consistent()
        for _ in range(30):
            system.inject_token()
        system.run_until_quiescent()
        assert system.token_stats.retired == 60

    def test_orphan_merge_duty_adopted(self):
        """If the node that split a component crashes, some node must
        adopt the merge duty (Section 3.4)."""
        system = AdaptiveCountingSystem(width=16, seed=5, initial_nodes=10)
        splitter = system.directory.owner(())
        system.reconfig.split(())
        system.run_until_quiescent()
        system.crash_node(splitter)
        system.run_until_quiescent()
        registered = set()
        for host in system.hosts.values():
            registered.update(host.split_registry)
        assert () in registered

    def test_mid_flight_crash_bounded_imbalance(self):
        """A crash with tokens in flight toward the lost components
        loses none of them (only a crashed host's buffers can), and the
        quiescent outputs keep the step property."""
        system = AdaptiveCountingSystem(width=16, seed=6, initial_nodes=20)
        system.converge()
        for _ in range(40):
            system.inject_token()
        victim = loaded_node(system)
        report = system.membership.crash(victim)
        system.lost_components.update(report.lost_components)
        system.lost_registry.update(report.lost_registry_entries)
        system.stabilize()
        system.run_until_quiescent()
        assert system.token_stats.issued - system.token_stats.retired == 0
        system.verify()


def scan_parent_input_source(wiring, parent, child_index, port):
    """The parent input port that ``parent_input_dest`` sends to
    (``child_index``, ``port``), searched for: the oracle for the
    derived inverse, now that no structure writes that map by hand."""
    for parent_port in range(parent.width):
        if wiring.parent_input_dest(parent, parent_port) == PortRef(child_index, port):
            return parent_port
    return None


def scan_crossing_source(wiring, parent, child_index, port):
    """The sibling output that ``child_output_dest`` sends to
    (``child_index``, ``port``), searched for, as recovery once did."""
    children = parent.children()
    for sibling in range(parent.num_children()):
        if sibling == child_index:
            continue
        for out_port in range(children[sibling].width):
            dest = wiring.child_output_dest(parent, sibling, out_port)
            if (
                isinstance(dest, PortRef)
                and dest.child == child_index
                and dest.port == port
            ):
                return sibling, out_port
    raise ProtocolError(
        "no sibling feeds child %d port %d of %s" % (child_index, port, parent)
    )


def scan_boundary_output_source(wiring, parent, port):
    """The child output that becomes ``parent``'s output ``port``,
    likewise."""
    for index, child in enumerate(parent.children()):
        for out_port in range(child.width):
            dest = wiring.child_output_dest(parent, index, out_port)
            if isinstance(dest, BoundaryRef) and dest.port == port:
                return index, out_port
    raise ProtocolError("no child emits boundary port %d of %s" % (port, parent))


def scan_adopt_orphan_merges(system):
    """``Stabilizer._adopt_orphan_merges`` as it was while it read the
    whole system (every host's registry, every prefix of every live
    path), kept as the oracle."""
    registered = set()
    for host in system.hosts.values():
        registered.update(host.split_registry)
    live = system.directory.live_paths()
    # Non-live ancestors of live members are exactly the split
    # components awaiting a merge decision.
    split_paths = set()
    for path in live:
        for end in range(len(path)):
            split_paths.add(path[:end])
    for path in sorted(split_paths - registered, key=len):
        home = system.directory.home(path)
        system.hosts[home].split_registry.add(path)
        system.stats.control_messages += 1


def periodic_system():
    tree = periodic_tree(16)
    return AdaptiveCountingSystem(
        width=16, seed=1, tree=tree, wiring=PeriodicWiring(tree)
    )


class TestInverseWiring:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: AdaptiveCountingSystem(width=32, seed=1), id="bitonic"),
            pytest.param(
                lambda: AdaptiveCountingSystem(
                    width=16, seed=1, convention=MergerConvention.PAPER_PROSE
                ),
                id="paper-prose",
            ),
            pytest.param(periodic_system, id="periodic"),
        ],
    )
    def test_lookup_equals_the_search_on_every_port_of_the_tree(self, build):
        """``WiringBase``'s derived inverses equal a search of the two
        forward maps, on every port of every internal node."""
        system = build()
        wiring = system.wiring
        pending, ports = [system.tree.root], 0
        while pending:
            parent = pending.pop()
            if parent.is_leaf:
                continue
            pending.extend(parent.children())
            for port in range(parent.width):
                assert wiring.boundary_source(
                    parent, port
                ) == scan_boundary_output_source(wiring, parent, port)
            for index, child in enumerate(parent.children()):
                for port in range(child.width):
                    source = wiring.parent_input_source(parent, index, port)
                    assert source == scan_parent_input_source(wiring, parent, index, port)
                    if source is None:
                        ports += 1
                        assert wiring.sibling_source(
                            parent, index, port
                        ) == scan_crossing_source(wiring, parent, index, port)
                    else:
                        # fed from the parent's boundary: both refuse
                        with pytest.raises(ProtocolError):
                            scan_crossing_source(wiring, parent, index, port)
                        with pytest.raises(KeyError):
                            wiring.sibling_source(parent, index, port)
            with pytest.raises(KeyError):
                wiring.boundary_source(parent, parent.width)
        assert ports > system.width


class TestAdoptionReadsOnlyTheCrashedDuties:
    """Adopting from the crashed nodes' registries leaves every host's
    registry and the message count as the whole-system scan would."""

    @pytest.fixture
    def adoptions(self, monkeypatch):
        """Checks every adoption pass against the scan (run on a copy of
        what it mutates); lists the merge duties each one adopted."""
        adopt = Stabilizer._adopt_orphan_merges
        adoptions = []

        def checked(stabilizer):
            system = stabilizer.system
            shadow = SimpleNamespace(
                hosts={
                    node_id: SimpleNamespace(split_registry=set(host.split_registry))
                    for node_id, host in system.hosts.items()
                },
                directory=system.directory,
                stats=SimpleNamespace(control_messages=system.stats.control_messages),
            )
            scan_adopt_orphan_merges(shadow)
            before = system.stats.control_messages
            adopt(stabilizer)
            assert {
                node_id: host.split_registry for node_id, host in system.hosts.items()
            } == {
                node_id: host.split_registry for node_id, host in shadow.hosts.items()
            }
            assert system.stats.control_messages == shadow.stats.control_messages
            adoptions.append(system.stats.control_messages - before)

        monkeypatch.setattr(Stabilizer, "_adopt_orphan_merges", checked)
        return adoptions

    @staticmethod
    def churn(system, crash):
        """300 seeded operations: bursts of joins and leaves, crashes,
        and the rules run now and then, so that splits and merges of
        several levels come and go under the crashes."""
        rng = random.Random(19)
        for _ in range(300):
            action = rng.choice(["join", "leave", "leave", "crash", "crash", "converge"])
            if action == "join" or system.num_nodes < 8:
                for _ in range(rng.randrange(1, 30)):
                    system.add_node()
            elif action == "leave":
                for _ in range(min(rng.randrange(1, 30), system.num_nodes - 8)):
                    system.remove_node()
            elif action == "crash":
                crash(system)
            else:
                system.converge()
            for _ in range(4):
                system.inject_token()
            system.run_until_quiescent()
        system.converge()
        system.verify()
        assert not system.lost_registry

    def test_after_every_crash(self, adoptions):
        system = AdaptiveCountingSystem(width=32, seed=19, initial_nodes=10)
        system.converge()
        self.churn(system, lambda system: system.crash_node())
        assert len(adoptions) == system.stats.crashes > 50
        assert sum(adoptions) > 10 and system.stats.merges > 50

    def test_three_crashes_before_one_stabilize(self, adoptions):
        system = AdaptiveCountingSystem(
            width=32, seed=20, initial_nodes=10, auto_stabilize=False
        )
        system.converge()

        def crash(system):
            for _ in range(3):
                system.crash_node()
            system.stabilize()

        self.churn(system, crash)
        assert 3 * len(adoptions) == system.stats.crashes > 50
        assert sum(adoptions) > 10 and system.stats.merges > 50

    def test_a_duty_someone_else_holds_or_nobody_needs_is_not_adopted(self, adoptions):
        """The two entries of a crashed registry that are not orphans: a
        split a surviving node has registered too, and one merged away
        since (both arise when a wider merge overtakes a narrower one)."""
        system = AdaptiveCountingSystem(width=16, seed=5, initial_nodes=10)
        splitter = system.directory.owner(())
        system.reconfig.split(())
        survivor = next(node_id for node_id in system.hosts if node_id != splitter)
        system.hosts[survivor].record_splits([()])
        system.hosts[splitter].record_splits([(0,)])  # live, not split
        report = system.crash_node(splitter)
        assert report.lost_registry_entries == [(), (0,)]
        assert adoptions == [0]
