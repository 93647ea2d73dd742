"""Differential oracle: the hop table against the path-keyed walk it replaced.

Until this PR a ``CutNetwork`` hop was two tuple-keyed dict probes and a
``states[path]`` lookup (``_edges`` / ``_input_map`` / ``_topo_cache``).
Both token semantics now walk one lazily filled, int-indexed table.
:class:`PathKeyedCutNetwork` is the parent's walk moved here verbatim —
the ``feed_token_scan`` / ``ClosureMessageBus`` pattern — and seeded
scripts drive both networks through every operation that reads or drops
the table: tokens (plain and traced), batches, splits, merges, recursive
merges and a ``snapshot_network()``-style state adoption. After every
operation the two must agree on what came out, on every member's counter
and arrivals and on the network's own counters; after every other one
(a seeded coin) and at the end, on the wiring itself — ``_edge`` /
``_input`` for every (member, port) and wire, ``member_graph()`` and
``topological_order()``. Not after each: that comparison resolves the
whole table, and the walks must also meet the edges a reconfiguration
left unresolved, which is where a lazily filled table can go wrong.
"""

import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.core.atomics import AtomicCounter, PerWireCounters
from repro.core.components import ComponentState, TokenTrace
from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import DecompositionTree
from repro.core.splitmerge import merge_child_states, split_child_states
from repro.core.wiring import MergerConvention, Wiring
from repro.errors import InvalidCutError, ReproError, StructureError
from repro.ext.periodic_adaptive import PeriodicWiring, periodic_tree
from tests.core.test_components import loop_balanced_counts

Path = Tuple[int, ...]

#: structure -> (tree of a width, a fresh wiring of that tree): the bitonic
#: tree under either merger convention, and the periodic one, whose
#: members are wide at every level (a block's reflection layer spans it).
STRUCTURES = {
    "AHS94": (DecompositionTree, lambda tree: Wiring(tree, MergerConvention.AHS94)),
    "PAPER_PROSE": (DecompositionTree, lambda tree: Wiring(tree, MergerConvention.PAPER_PROSE)),
    "PERIODIC": (periodic_tree, PeriodicWiring),
}


def loop_route_batch(state: ComponentState, port_counts: Dict[int, int]) -> List[int]:
    """``ComponentState.route_batch`` as the walk below called it before
    the dense step: sparse ports in, the ``+= 1`` loop for the extras."""
    count = sum(port_counts.values())
    counts = loop_balanced_counts(state.total % state.width, count, state.width)
    state.total += count
    for port, n in port_counts.items():
        if n:
            state.arrivals[port] = state.arrivals.get(port, 0) + n
    return counts


class PathKeyedCutNetwork:
    """The parent commit's ``CutNetwork``: structure, both semantics and
    reconfiguration, verbatim; the readers nothing here calls are left
    behind."""

    def __init__(
        self,
        cut: Cut,
        convention: MergerConvention = MergerConvention.AHS94,
        wiring=None,
    ):
        self.tree = cut.tree
        self.width = cut.tree.width
        self.wiring = wiring if wiring is not None else Wiring(cut.tree, convention)
        self.states: Dict[Path, ComponentState] = {
            spec.path: ComponentState(spec) for spec in cut.members()
        }
        self.output_counts = PerWireCounters(self.width)
        self.tokens_in = AtomicCounter()
        self.tokens_out = AtomicCounter()
        self._edges: Dict[Tuple[Path, int], Tuple] = {}
        self._input_map: Dict[int, Tuple[Path, int]] = {}
        self._topo_cache: Optional[List[Path]] = None

    @property
    def cut(self) -> Cut:
        """The current cut (recomputed from live members)."""
        return Cut(self.tree, self.states.keys())

    def _invalidate(self) -> None:
        self._edges.clear()
        self._input_map.clear()
        self._topo_cache = None

    def _edge(self, path: Path, port: int) -> Tuple:
        """Destination of (member, output port); cached."""
        key = (path, port)
        dest = self._edges.get(key)
        if dest is None:
            spec = self.states[path].spec
            resolved = self.wiring.resolve_output(spec, port, self.states.keys())
            if resolved[0] == "member":
                dest = ("member", resolved[1].path, resolved[2])
            else:
                dest = resolved
            self._edges[key] = dest
        return dest

    def _input(self, wire: int) -> Tuple[Path, int]:
        entry = self._input_map.get(wire)
        if entry is None:
            spec, port = self.wiring.resolve_network_input(wire, self.states.keys())
            entry = (spec.path, port)
            self._input_map[wire] = entry
        return entry

    def member_graph(self) -> Dict[Path, set]:
        """Adjacency (member path -> successor member paths)."""
        graph: Dict[Path, set] = {path: set() for path in self.states}
        for path, state in self.states.items():
            for port in range(state.width):
                dest = self._edge(path, port)
                if dest[0] == "member":
                    graph[path].add(dest[1])
        return graph

    def topological_order(self) -> List[Path]:
        """Members in an order compatible with the wire DAG."""
        if self._topo_cache is None:
            graph = self.member_graph()
            indegree = {path: 0 for path in graph}
            for succs in graph.values():
                for succ in succs:
                    indegree[succ] += 1
            ready = sorted(path for path, deg in indegree.items() if deg == 0)
            order: List[Path] = []
            while ready:
                path = ready.pop()
                order.append(path)
                for succ in sorted(graph[path]):
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        ready.append(succ)
            if len(order) != len(graph):
                raise StructureError("member graph is not acyclic")
            self._topo_cache = order
        return self._topo_cache

    def feed_token(self, wire: int, trace: Optional[TokenTrace] = None) -> Tuple[int, int]:
        if not 0 <= wire < self.width:
            raise StructureError("input wire %d out of range" % wire)
        self.tokens_in.increment()
        path, port = self._input(wire)
        while True:
            state = self.states[path]
            if trace is not None:
                trace.hops.append(state.spec)
            out_port = state.route_token(port)
            dest = self._edge(path, out_port)
            if dest[0] == "out":
                out_wire = dest[1]
                value = self.output_counts.fetch_increment(out_wire) * self.width + out_wire
                self.tokens_out.increment()
                if trace is not None:
                    trace.output_wire = out_wire
                    trace.value = value
                return out_wire, value
            _, path, port = dest

    def feed_counts(self, input_counts: Sequence[int]) -> List[int]:
        if len(input_counts) != self.width:
            raise StructureError(
                "expected %d input counts, got %d" % (self.width, len(input_counts))
            )
        pending: Dict[Path, Dict[int, int]] = {path: {} for path in self.states}
        for wire, count in enumerate(input_counts):
            if count < 0:
                raise StructureError("negative token count on wire %d" % wire)
            if count:
                path, port = self._input(wire)
                pending[path][port] = pending[path].get(port, 0) + count
        batch_out = [0] * self.width
        for path in self.topological_order():
            port_counts = pending[path]
            if not port_counts:
                continue
            state = self.states[path]
            for port, emitted in enumerate(loop_route_batch(state, port_counts)):
                if emitted == 0:
                    continue
                dest = self._edge(path, port)
                if dest[0] == "out":
                    batch_out[dest[1]] += emitted
                else:
                    _, succ, in_port = dest
                    pending[succ][in_port] = pending[succ].get(in_port, 0) + emitted
        for wire, count in enumerate(batch_out):
            self.output_counts.increment(wire, count)
        total = sum(input_counts)
        self.tokens_in.increment(total)
        self.tokens_out.increment(total)
        return batch_out

    def split_member(self, path: Path) -> List[Path]:
        path = tuple(path)
        state = self.states.get(path)
        if state is None:
            raise InvalidCutError("cannot split %r: not a live member" % (path,))
        spec = state.spec
        if spec.is_leaf:
            raise InvalidCutError("cannot split the balancer %s" % (spec,))
        children = split_child_states(self.wiring, spec, state.arrivals)
        del self.states[path]
        new_paths = []
        for child_state in children:
            self.states[child_state.spec.path] = child_state
            new_paths.append(child_state.spec.path)
        self._invalidate()
        return new_paths

    def merge_member(self, path: Path) -> Path:
        path = tuple(path)
        spec = self.tree.node(path)
        child_paths = [child.path for child in spec.children()]
        if not all(p in self.states for p in child_paths):
            raise InvalidCutError(
                "cannot merge %r: not all children are live members" % (path,)
            )
        merged = merge_child_states(
            self.wiring, spec, [self.states[p] for p in child_paths]
        )
        for p in child_paths:
            del self.states[p]
        self.states[path] = merged
        self._invalidate()
        return path

    def merge_member_recursive(self, path: Path) -> Path:
        path = tuple(path)
        spec = self.tree.node(path)
        for child in spec.children():
            if child.path not in self.states:
                covering = self.cut.member_covering(child.path)
                if covering is None:
                    self.merge_member_recursive(child.path)
        return self.merge_member(path)

    def adopt_states(self, states) -> None:
        """What ``snapshot_network()`` did at the parent, reaching in:
        ``network.states[path] = copy``, the edge dicts left alone."""
        for state in states:
            self.states[state.spec.path] = state


def both(new, ref, call):
    """``call`` on each network: equal results, or the same refusal."""
    outcomes = []
    for network in (new, ref):
        try:
            outcomes.append(call(network))
        except ReproError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def assert_same_state(new, ref):
    assert new.states == ref.states  # every member's total and arrivals
    assert list(new.output_counts) == list(ref.output_counts)
    assert new.tokens_in == ref.tokens_in and new.tokens_out == ref.tokens_out


def assert_same_wiring(new, ref):
    for wire in range(ref.width):
        assert new._input(wire) == ref._input(wire)
    for path, state in ref.states.items():
        for port in range(state.width):
            assert new._edge(path, port) == ref._edge(path, port)
    assert new.member_graph() == ref.member_graph()
    assert new.topological_order() == ref.topological_order()


def internal_paths_above_members(network) -> List[Path]:
    """Tree nodes that are proper ancestors of live members."""
    return sorted({path[:end] for path in network.states for end in range(len(path))})


def run_script(width, structure, seed, operations=300):
    make_tree, make_wiring = STRUCTURES[structure]
    rng = random.Random(seed)
    tree = make_tree(width)
    cut = Cut.random(tree, rng, 0.5)
    new = CutNetwork(cut, wiring=make_wiring(tree))
    ref = PathKeyedCutNetwork(cut, wiring=make_wiring(tree))
    seen = set()
    for _ in range(operations):
        roll = rng.random()
        if roll < 0.35:
            wire = rng.randrange(width)
            both(new, ref, lambda net: net.feed_token(wire))
            seen.add("token")
        elif roll < 0.45:
            wire = rng.randrange(width)

            def traced(net):
                trace = TokenTrace(input_wire=wire)
                result = net.feed_token(wire, trace)
                assert result == (trace.output_wire, trace.value)
                return result, trace.hops

            both(new, ref, traced)
            seen.add("traced")
        elif roll < 0.60:
            shape = rng.choice(["dense", "sparse", "huge"])
            if shape == "dense":
                counts = [rng.randrange(4) for _ in range(width)]
            else:  # most wires 0; 2**40 and up runs every member's counter far past its width
                counts = [0] * width
                for wire in rng.sample(range(width), rng.randrange(1, 3)):
                    counts[wire] = rng.randrange(1, 4) + (2**40 if shape == "huge" else 0)
            both(new, ref, lambda net: net.feed_counts(counts))
            seen.add("counts " + shape)
        elif roll < 0.75:
            splittable = [p for p in sorted(ref.states) if not ref.states[p].spec.is_leaf]
            if splittable:
                path = rng.choice(splittable)
                both(new, ref, lambda net: net.split_member(path))
                seen.add("split")
        elif roll < 0.90:
            above = internal_paths_above_members(ref)
            if above:
                path = rng.choice(above)
                mergeable = all(c.path in ref.states for c in tree.node(path).children())
                if mergeable or rng.random() < 0.3:  # else: refused by both, or recursive
                    both(new, ref, lambda net: net.merge_member(path))
                    seen.add("merge" if mergeable else "merge refused")
                else:
                    both(new, ref, lambda net: net.merge_member_recursive(path))
                    seen.add("merge recursive")
        else:
            # Copied per network: each then routes through its own copies.
            both(new, ref, lambda net: net.adopt_states(
                [net.states[path].copy() for path in sorted(net.states)]
            ))
            seen.add("adopt")
        assert_same_state(new, ref)
        if rng.random() < 0.5:  # else: the next walk meets the table as the operation left it
            assert_same_wiring(new, ref)
    assert_same_wiring(new, ref)
    return seen


@pytest.mark.parametrize("structure", list(STRUCTURES))
@pytest.mark.parametrize("width", [4, 8, 16, 32])
def test_table_walk_agrees_with_the_path_keyed_walk(width, structure):
    seen = run_script(width, structure, seed=2005 + width)
    expected = {"token", "traced", "split", "merge", "adopt"}
    expected |= {"counts dense", "counts sparse", "counts huge"}
    if width > 4:  # T_4 is one level deep: every internal node is mergeable
        expected |= {"merge recursive", "merge refused"}
    assert seen >= expected


@pytest.mark.parametrize("width", [8, 16, 32])
def test_tokens_between_reconfigurations_walk_the_live_members(width):
    """Each reconfiguration drops the hop steps (they hold the member
    states); a burst of tokens straight after it, with no batch or wiring
    read in between to rebuild the table first, walks the new members."""
    rng = random.Random(27 + width)
    tree = DecompositionTree(width)
    cut = Cut.random(tree, rng, 0.5)
    new, ref = CutNetwork(cut), PathKeyedCutNetwork(cut)
    seen = set()
    for _ in range(60):
        for _ in range(rng.randrange(1, 2 * width)):
            wire = rng.randrange(width)
            both(new, ref, lambda net: net.feed_token(wire))
        operation = rng.choice(["split", "merge", "merge recursive", "adopt"])
        splittable = [p for p in sorted(ref.states) if not ref.states[p].spec.is_leaf]
        above = internal_paths_above_members(ref)
        mergeable = [
            p for p in above if all(c.path in ref.states for c in tree.node(p).children())
        ]
        if operation == "split" and splittable:
            path = rng.choice(splittable)
            both(new, ref, lambda net: net.split_member(path))
        elif operation == "merge" and mergeable:
            path = rng.choice(mergeable)
            both(new, ref, lambda net: net.merge_member(path))
        elif operation == "merge recursive" and above:
            path = rng.choice(above)
            both(new, ref, lambda net: net.merge_member_recursive(path))
        elif operation == "adopt":
            both(new, ref, lambda net: net.adopt_states(
                [net.states[path].copy() for path in sorted(net.states)]
            ))
        else:
            continue
        seen.add(operation)
        assert_same_state(new, ref)
    assert seen == {"split", "merge", "merge recursive", "adopt"}


@pytest.mark.parametrize("width", [8, 32])
def test_a_traced_token_is_the_untraced_token(width):
    """``trace=`` records in the same loop: same result, same state, and
    the hops the path-keyed walk records."""
    rng = random.Random(width)
    cut = Cut.random(DecompositionTree(width), rng, 0.5)
    traced, plain, ref = CutNetwork(cut), CutNetwork(cut), PathKeyedCutNetwork(cut)
    for _ in range(20 * width):
        wire = rng.randrange(width)
        trace, ref_trace = TokenTrace(input_wire=wire), TokenTrace(input_wire=wire)
        result = traced.feed_token(wire, trace=trace)
        assert result == plain.feed_token(wire) == ref.feed_token(wire, ref_trace)
        assert (trace.output_wire, trace.value) == result
        assert trace.hops == ref_trace.hops
        assert_same_state(traced, plain)
    assert_same_state(traced, ref)


@pytest.mark.parametrize(
    "structure, width", [("AHS94", 64), ("PAPER_PROSE", 64), ("PERIODIC", 32)]
)
def test_merging_the_leaf_cut_to_the_root_validates_no_cut(structure, width, monkeypatch):
    """``merge_member_recursive(())`` from the leaf cut finds what to
    merge with an ancestor probe in ``states``: no whole-cut
    ``Cut._validate`` walk (the path-keyed recursion, which asks a fresh
    ``Cut`` for the member covering each missing child, makes 350 on the
    bitonic ``T_64``), and the states that recursion reaches. The
    periodic tree runs at ``w`` = 32: its reference takes seconds at 64."""
    make_tree, make_wiring = STRUCTURES[structure]
    tree = make_tree(width)
    cut = Cut.leaves(tree)
    new = CutNetwork(cut, wiring=make_wiring(tree))
    ref = PathKeyedCutNetwork(cut, wiring=make_wiring(tree))
    rng = random.Random(width)
    counts = [rng.randrange(4) for _ in range(width)]
    both(new, ref, lambda net: net.feed_counts(counts))
    validated = []
    validate = Cut._validate

    def counting_validate(cut):
        validated.append(cut)
        validate(cut)

    monkeypatch.setattr(Cut, "_validate", counting_validate)
    assert new.merge_member_recursive(()) == ()
    assert validated == []
    assert ref.merge_member_recursive(()) == ()
    assert validated  # the probe is live: the path-keyed recursion trips it
    assert sorted(new.states) == [()]
    assert_same_state(new, ref)
    both(new, ref, lambda net: net.feed_counts(counts))
    assert_same_state(new, ref)
