"""Cuts of the decomposition tree and the networks they induce (Section 2.2).

A *cut* of ``T_w`` (Definition 2.1) is the leaf set of a pruned version
of the tree: an antichain of components such that every root-to-leaf
path of ``T_w`` crosses exactly one member. Any cut implements
``BITONIC[w]`` (Theorem 2.1): :class:`CutNetwork` executes that
implementation with one mod-k counter per member, supports token-level
and batch (quiescent-count) semantics, and applies splits and merges
with the state transfer of :mod:`repro.core.splitmerge`.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.atomics import AtomicCounter, GuardedMap, PerWireCounters
from repro.core.components import ComponentState, TokenTrace, balanced_counts
from repro.core.decomposition import ComponentSpec, DecompositionTree
from repro.core.splitmerge import merge_child_states, split_child_states
from repro.core.verification import check_step_property
from repro.core.wiring import MergerConvention, Wiring
from repro.errors import InvalidCutError, StructureError

Path = Tuple[int, ...]


class Cut:
    """An immutable, validated cut of a decomposition tree."""

    def __init__(self, tree: DecompositionTree, paths: Iterable[Path]):
        self.tree = tree
        self.paths: FrozenSet[Path] = frozenset(tuple(p) for p in paths)
        self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def singleton(cls, tree: DecompositionTree) -> "Cut":
        """The trivial cut: the whole network as one component."""
        return cls(tree, [()])

    @classmethod
    def level(cls, tree: DecompositionTree, level: int) -> "Cut":
        """The uniform cut with every member at ``level``."""
        return cls(tree, [s.path for s in tree.iter_level(level)])

    @classmethod
    def full(cls, tree: DecompositionTree) -> "Cut":
        """The balancer-level cut (every member a width-2 leaf)."""
        return cls.level(tree, tree.max_level)

    @classmethod
    def leaves(cls, tree) -> "Cut":
        """The cut of all tree leaves, by traversal.

        Equivalent to :meth:`full` for the (uniform-depth) bitonic tree,
        but also valid for non-uniform recursive structures from
        :mod:`repro.ext`.
        """
        paths: List[Path] = []
        stack = [tree.root]
        while stack:
            spec = stack.pop()
            if spec.is_leaf:
                paths.append(spec.path)
            else:
                stack.extend(spec.children())
        return cls(tree, paths)

    @classmethod
    def random(cls, tree: DecompositionTree, rng: random.Random, split_probability: float = 0.5) -> "Cut":
        """A random cut: starting from the root, split each component
        independently with ``split_probability`` (leaves never split)."""
        paths: List[Path] = []
        stack = [tree.root]
        while stack:
            spec = stack.pop()
            if not spec.is_leaf and rng.random() < split_probability:
                stack.extend(spec.children())
            else:
                paths.append(spec.path)
        return cls(tree, paths)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self.paths:
            raise InvalidCutError("a cut must have at least one member")
        ordered = sorted(self.paths)
        for first, second in zip(ordered, ordered[1:]):
            if second[: len(first)] == first:
                raise InvalidCutError(
                    "cut members overlap: %r is an ancestor of %r" % (first, second)
                )
        prefixes = set()
        for path in self.paths:
            for end in range(len(path) + 1):
                prefixes.add(path[:end])
        # Every root-to-leaf path must cross a member: walk the pruned
        # tree; any internal non-member node must have all child paths
        # leading to members.
        stack = [self.tree.root]
        while stack:
            spec = stack.pop()
            if spec.path in self.paths:
                # Members must actually exist in the tree with the right
                # shape (ComponentSpec construction already checked this
                # when descending from the root).
                continue
            if spec.path not in prefixes or spec.is_leaf:
                raise InvalidCutError(
                    "tree path through %s reaches no cut member" % (spec,)
                )
            stack.extend(spec.children())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.paths)

    def __contains__(self, path: Path) -> bool:
        return tuple(path) in self.paths

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cut)
            and other.tree.width == self.tree.width
            and other.paths == self.paths
        )

    def __hash__(self) -> int:
        return hash((self.tree.width, self.paths))

    def members(self) -> List[ComponentSpec]:
        """All member components, sorted by path (pre-order)."""
        return [self.tree.node(path) for path in sorted(self.paths)]

    def levels(self) -> List[int]:
        """Levels of all members."""
        return [len(path) for path in self.paths]

    def member_covering(self, path: Path) -> Optional[Path]:
        """The member whose subtree contains ``path``, if any."""
        path = tuple(path)
        for end in range(len(path) + 1):
            if path[:end] in self.paths:
                return path[:end]
        return None

    # ------------------------------------------------------------------
    # reconfiguration (pure — returns new cuts)
    # ------------------------------------------------------------------
    def split(self, path: Path) -> "Cut":
        """The cut with member ``path`` replaced by its children."""
        path = tuple(path)
        if path not in self.paths:
            raise InvalidCutError("cannot split %r: not a cut member" % (path,))
        spec = self.tree.node(path)
        if spec.is_leaf:
            raise InvalidCutError("cannot split the balancer %s" % (spec,))
        new_paths = set(self.paths)
        new_paths.remove(path)
        new_paths.update(child.path for child in spec.children())
        return Cut(self.tree, new_paths)

    def merge(self, path: Path) -> "Cut":
        """The cut with the children of ``path`` replaced by ``path``."""
        path = tuple(path)
        spec = self.tree.node(path)
        child_paths = [child.path for child in spec.children()]
        if not all(p in self.paths for p in child_paths):
            raise InvalidCutError(
                "cannot merge %r: not all children are cut members" % (path,)
            )
        new_paths = set(self.paths)
        new_paths.difference_update(child_paths)
        new_paths.add(path)
        return Cut(self.tree, new_paths)


class CutNetwork:
    """An executable ``BITONIC[w]`` built from the members of a cut.

    Supports three interchangeable semantics:

    * token-level: :meth:`feed_token` routes one token hop by hop and
      returns its network output wire (and counter value);
    * batch: :meth:`feed_counts` propagates per-input-wire token counts
      through the members in topological order (quiescent-state
      semantics — provably equal to any token interleaving);
    * reconfiguration: :meth:`split_member` / :meth:`merge_member`
      replace members in place with the Section 2.2 state transfer.

    The network tracks cumulative per-output-wire counts so the step
    property can be checked at any quiescent point.
    """

    def __init__(
        self,
        cut: Cut,
        convention: MergerConvention = MergerConvention.AHS94,
        wiring=None,
    ):
        self.tree = cut.tree
        self.width = cut.tree.width
        self.wiring = wiring if wiring is not None else Wiring(cut.tree, convention)
        self.states: GuardedMap[Path, ComponentState] = GuardedMap(
            {spec.path: ComponentState(spec) for spec in cut.members()}
        )
        self.output_counts = PerWireCounters(self.width)
        self.tokens_in = AtomicCounter()
        self.tokens_out = AtomicCounter()
        self._edges: Dict[Tuple[Path, int], Tuple] = {}
        self._input_map: Dict[int, Tuple[Path, int]] = {}
        self._topo_cache: Optional[List[Path]] = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def cut(self) -> Cut:
        """The current cut (recomputed from live members)."""
        return Cut(self.tree, self.states.keys())

    def members(self) -> List[ComponentState]:
        """Live member states, in pre-order."""
        return [self.states[path] for path in sorted(self.states)]

    def member_paths(self) -> FrozenSet[Path]:
        return frozenset(self.states)

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

    def input_layer(self) -> List[Path]:
        """Members that receive network input wires."""
        return sorted({self._input(w)[0] for w in range(self.width)})

    def output_layer(self) -> List[Path]:
        """Members whose outputs are network outputs."""
        return sorted(
            path
            for path, state in self.states.items()
            if self.wiring.is_output_boundary(state.spec)
        )

    def output_base(self, path: Path) -> int:
        """First network output wire covered by an output-layer member."""
        return self.wiring.network_output_index(self.states[path].spec, 0)

    # ------------------------------------------------------------------
    # token semantics
    # ------------------------------------------------------------------
    def feed_token(self, wire: int, trace: Optional[TokenTrace] = None) -> Tuple[int, int]:
        """Route one token entering network input ``wire``.

        Returns ``(output_wire, value)`` where ``value`` is the counter
        value handed to the token: the ``n``-th token to leave output
        wire ``j`` receives ``n * width + j`` (zero-based), so across all
        tokens the values are exactly ``0, 1, 2, ...`` in a quiescent
        network.
        """
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

    # ------------------------------------------------------------------
    # batch (quiescent-count) semantics
    # ------------------------------------------------------------------
    def feed_counts(self, input_counts: Sequence[int]) -> List[int]:
        """Inject ``input_counts[i]`` tokens on each input wire ``i``.

        Propagates counts through members in topological order and
        returns the per-output-wire counts of this batch. Cumulative
        counts are tracked in :attr:`output_counts`.
        """
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
            for port, emitted in enumerate(state.route_batch(port_counts)):
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

    def verify_step_property(self) -> None:
        """Raise :class:`~repro.errors.StepPropertyViolation` if the
        cumulative quiescent output counts violate the step property."""
        check_step_property(self.output_counts)

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------
    def split_member(self, path: Path) -> List[Path]:
        """Split the member at ``path`` into its children, transferring
        state per Section 2.2. Returns the new member paths."""
        path = tuple(path)
        state = self.states.get(path)
        if state is None:
            raise InvalidCutError("cannot split %r: not a live member" % (path,))
        spec = state.spec
        if spec.is_leaf:
            raise InvalidCutError("cannot split the balancer %s" % (spec,))
        children = split_child_states(self.wiring, spec, state.arrivals)
        self.states.take(path)
        new_paths = []
        for child_state in children:
            self.states.put(child_state.spec.path, child_state)
            new_paths.append(child_state.spec.path)
        self._invalidate()
        return new_paths

    def merge_member(self, path: Path) -> Path:
        """Merge the children of ``path`` back into one component,
        transferring state per Section 2.2. Returns ``path``."""
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
            self.states.take(p)
        self.states.put(path, merged)
        self._invalidate()
        return path

    def merge_member_recursive(self, path: Path) -> Path:
        """Merge ``path``'s whole live subtree back into one component."""
        path = tuple(path)
        spec = self.tree.node(path)
        for child in spec.children():
            if child.path not in self.states:
                covering = self.cut.member_covering(child.path)
                if covering is None:
                    self.merge_member_recursive(child.path)
        return self.merge_member(path)
