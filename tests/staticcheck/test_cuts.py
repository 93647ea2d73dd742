"""Pass 2 (cut validity analyzer) — cuts, transitions, runtime gate."""

import random

import pytest

from repro.core.cut import Cut
from repro.core.decomposition import DecompositionTree
from repro.errors import (
    InvalidCutError,
    InvalidTransitionError,
    ProtocolError,
    StructureError,
)
from repro.ext.periodic_adaptive import block_level_cut_paths, periodic_tree
from repro.runtime.system import AdaptiveCountingSystem
from repro.staticcheck import check_cut, check_transition, validate_merge, validate_split
from repro.staticcheck.cuts import check_merge, check_split, is_valid_cut, transition_plan
from repro.staticcheck.diagnostics import Report

TREE8 = DecompositionTree(8)


class TestCheckCut:
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_uniform_cuts_valid(self, width):
        tree = DecompositionTree(width)
        for level in range(tree.max_level + 1):
            report = check_cut(tree, [s.path for s in tree.iter_level(level)])
            assert report.ok, report.format()

    def test_generic_tree_cuts_valid(self):
        tree = periodic_tree(8)
        assert check_cut(tree, block_level_cut_paths(tree)).ok
        assert check_cut(tree, [()]).ok

    def test_empty_cut(self):
        report = check_cut(TREE8, [])
        assert report.codes() == ["RSC201"]

    def test_bogus_path(self):
        report = check_cut(TREE8, [(9, 9)])
        assert "RSC202" in report.codes()

    def test_overlapping_members(self):
        paths = [s.path for s in TREE8.iter_level(1)] + [(0, 0)]
        report = check_cut(TREE8, paths)
        assert "RSC203" in report.codes()

    def test_coverage_hole(self):
        paths = [s.path for s in TREE8.iter_level(1)][1:]  # drop one member
        report = check_cut(TREE8, paths)
        assert "RSC204" in report.codes()
        # The diagnostic names the uncovered component.
        assert any(d.component for d in report)

    def test_agrees_with_cut_constructor(self):
        # The analyzer and the runtime Cut validation must agree.
        cases = [
            [()],
            [s.path for s in TREE8.iter_level(1)],
            [s.path for s in TREE8.iter_level(1)][1:],
            [(0,), (0, 0)],
            [],
        ]
        for paths in cases:
            statically_valid = is_valid_cut(TREE8, paths)
            try:
                Cut(TREE8, paths)
                dynamically_valid = True
            except InvalidCutError:
                dynamically_valid = False
            assert statically_valid == dynamically_valid, paths


class TestCheckTransition:
    def test_single_split_transition(self):
        old = [()]
        new = [child.path for child in TREE8.root.children()]
        report = check_transition(TREE8, old, new)
        assert report.ok, report.format()
        assert transition_plan(TREE8, old, new) == {(): "split"}

    def test_single_merge_transition(self):
        old = [child.path for child in TREE8.root.children()]
        new = [()]
        assert check_transition(TREE8, old, new).ok
        assert transition_plan(TREE8, old, new) == {(): "merge"}

    def test_mixed_transition(self):
        level1 = [child.path for child in TREE8.root.children()]
        # Split child 0 down a level, merge nothing else.
        new = level1[1:] + [c.path for c in TREE8.root.child(0).children()]
        report = check_transition(TREE8, level1, new)
        assert report.ok, report.format()
        assert transition_plan(TREE8, level1, new) == {(0,): "split"}

    def test_identity_transition(self):
        level1 = [child.path for child in TREE8.root.children()]
        report = check_transition(TREE8, level1, level1)
        assert report.ok
        assert transition_plan(TREE8, level1, level1) == {}

    def test_invalid_endpoint_rejected(self):
        old = [()]
        new = [child.path for child in TREE8.root.children()][1:]  # hole
        report = check_transition(TREE8, old, new)
        assert not report.ok
        assert "RSC204" in report.codes()


class TestSplitMergePreconditions:
    def test_split_not_live(self):
        report = check_split(TREE8, [()], (0,))
        assert "RSC206" in report.codes()

    def test_split_leaf(self):
        full = [s.path for s in TREE8.iter_level(TREE8.max_level)]
        report = check_split(TREE8, full, full[0])
        assert "RSC206" in report.codes()

    def test_split_valid(self):
        assert check_split(TREE8, [()], ()).ok

    def test_merge_with_partition_ok(self):
        level1 = [child.path for child in TREE8.root.children()]
        assert check_merge(TREE8, level1, ()).ok

    def test_merge_missing_descendant_rejected(self):
        level1 = [child.path for child in TREE8.root.children()]
        report = check_merge(TREE8, level1[1:], ())
        assert "RSC206" in report.codes()
        assert "token conservation" in report.format()

    def test_merge_of_live_member_is_noop(self):
        assert check_merge(TREE8, [()], ()).ok

    def test_validators_raise_typed_error(self):
        with pytest.raises(InvalidTransitionError) as info:
            validate_split(TREE8, [()], (0,))
        assert info.value.report.codes() == ["RSC206"]
        with pytest.raises(InvalidTransitionError):
            validate_merge(TREE8, [child.path for child in TREE8.root.children()][1:], ())
        # The typed error is catchable through both hierarchies.
        assert issubclass(InvalidTransitionError, InvalidCutError)
        assert issubclass(InvalidTransitionError, ProtocolError)


def global_check_split(tree, live_paths, path):
    """``check_split`` in its global formulation (what the runtime gate
    ran before it went local): the local preconditions, then — when the
    live set is a valid cut — ``check_transition`` to the explicit
    post-split set. Kept as the oracle for the lemma in ``check_split``'s
    docstring."""
    report = Report()
    live = frozenset(tuple(p) for p in live_paths)
    path = tuple(path)
    if path not in live:
        report.add("RSC206", "not a live member", "oracle")
        return report
    try:
        spec = tree.node(path)
    except StructureError:
        report.add("RSC202", "not a component", "oracle")
        return report
    if spec.is_leaf:
        report.add("RSC206", "balancer", "oracle")
        return report
    if is_valid_cut(tree, live):
        target = (live - {path}) | {child.path for child in spec.children()}
        report.extend(check_transition(tree, live, target, "oracle"))
    return report


def random_cut(tree, rng):
    """A seeded random cut: split random non-leaf members of ``{()}``."""
    members = {()}
    for _ in range(rng.randrange(4 * tree.width)):
        path = rng.choice(sorted(members))
        spec = tree.node(path)
        if not spec.is_leaf:
            members.remove(path)
            members.update(child.path for child in spec.children())
    return members


class TestSplitGateIsLocal:
    """The local gate returns the codes of the global formulation for
    every (live set, target) — valid cuts, cuts with a crash hole, cuts
    with an ancestor overlap; every member and two non-members as
    target, about 10 000 cases."""

    @pytest.mark.parametrize("width,cuts", [(4, 40), (8, 40), (16, 30), (32, 15)])
    def test_same_codes_as_the_global_formulation(self, width, cuts):
        tree = DecompositionTree(width)
        rng = random.Random(width)
        for _ in range(cuts):
            cut = random_cut(tree, rng)
            ordered = sorted(cut)
            hole = cut - {rng.choice(ordered)}
            deep = max(ordered, key=len)
            overlap = cut | {deep[:-1]} if deep else cut
            for live in (cut, hole, overlap):
                if not live:
                    continue
                a_member = max(live, key=len)
                outsiders = [a_member + (0,), (9, 9)]
                for target in sorted(live) + outsiders:
                    expected = global_check_split(tree, live, target).codes()
                    assert check_split(tree, live, target).codes() == expected, (
                        sorted(live), target)

    def test_live_member_that_is_no_component(self):
        live = {(0,), (9, 9)}
        assert check_split(TREE8, live, (9, 9)).codes() == ["RSC202"]
        assert global_check_split(TREE8, live, (9, 9)).codes() == ["RSC202"]


class TestRuntimeGate:
    """The reconfigurator consults the static checker before acting."""

    def test_merge_with_directory_hole_rejected_up_front(self):
        system = AdaptiveCountingSystem(width=8, seed=5)
        system.reconfig.split(())
        # Simulate a lost descendant the directory still misses.
        victim = sorted(system.directory.live_paths())[0]
        owner = system.directory.owner(victim)
        system.hosts[owner].remove(victim)
        system.directory.unregister(victim)
        initiator = next(iter(system.hosts.values()))
        with pytest.raises(InvalidTransitionError):
            system.reconfig.merge((), initiator)
        # Rejected before any state transfer: survivors are untouched.
        assert len(system.directory) == 5
        for path in system.directory.live_paths():
            assert path in system.hosts[system.directory.owner(path)].components

    def test_normal_lifecycle_unaffected(self):
        system = AdaptiveCountingSystem(width=8, seed=6, initial_nodes=10)
        system.converge()
        for _ in range(40):
            system.inject_token()
        system.run_until_quiescent()
        system.verify()
