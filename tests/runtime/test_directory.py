"""Tests for the live-component directory."""

import pytest

from repro.chord.ring import ChordRing
from repro.core.decomposition import DecompositionTree
from repro.errors import ComponentNotFound, ProtocolError
from repro.runtime.directory import ComponentDirectory


@pytest.fixture
def directory():
    ring = ChordRing(seed=1)
    for _ in range(8):
        ring.join()
    return ComponentDirectory(DecompositionTree(16), ring)


class TestNaming:
    def test_names_are_preorder_scoped_by_width(self, directory):
        assert directory.component_name(()) == "cn/16/0"
        assert directory.component_name((0,)) == "cn/16/1"

    def test_names_unique(self, directory):
        names = {
            directory.component_name(spec.path)
            for spec in directory.tree.iter_preorder()
        }
        assert len(names) == directory.tree.size()

    def test_home_is_hash_successor(self, directory):
        for path in [(), (0,), (2, 1)]:
            expected = directory.ring.successor(directory.hash_point(path))
            assert directory.home(path) == expected.node_id


class TestRegistration:
    def test_register_owner_roundtrip(self, directory):
        node = directory.ring.nodes()[0]
        directory.register((), node.node_id)
        assert directory.owner(()) == node.node_id
        assert directory.is_live(())
        assert directory.live_paths() == frozenset({()})

    def test_owner_missing_raises(self, directory):
        with pytest.raises(ComponentNotFound):
            directory.owner((3,))

    def test_unregister_idempotent(self, directory):
        directory.register((), 1)
        directory.unregister(())
        directory.unregister(())
        assert not directory.is_live(())

    def test_paths_on(self, directory):
        directory.register((0,), 5)
        directory.register((1,), 5)
        directory.register((2,), 9)
        assert directory.paths_on(5) == [(0,), (1,)]
        assert directory.paths_on(9) == [(2,)]
        assert directory.paths_on(7) == []


class TestStructureQueries:
    def test_live_descendants(self, directory):
        for i in range(6):
            directory.register((0, i), 1)
        directory.register((1,), 1)
        assert directory.live_descendants((0,)) == [(0, i) for i in range(6)]
        assert directory.live_descendants((1,)) == []
        assert len(directory.live_descendants(())) == 7

    def test_as_cut_roundtrip(self, directory):
        tree = directory.tree
        for spec in tree.iter_level(1):
            directory.register(spec.path, 1)
        cut = directory.as_cut()
        assert len(cut) == 6

    def test_check_consistent_catches_bad_placement(self, directory):
        home = directory.home(())
        wrong = next(
            n.node_id for n in directory.ring.nodes() if n.node_id != home
        )
        directory.register((), wrong)
        with pytest.raises(ProtocolError):
            directory.check_consistent()

    def test_check_consistent_catches_invalid_cut(self, directory):
        directory.register((), directory.home(()))
        directory.register((0,), directory.home((0,)))
        with pytest.raises(Exception):
            directory.check_consistent()
