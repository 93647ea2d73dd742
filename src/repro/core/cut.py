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
from operator import index as as_index
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.atomics import PerWireCounters
from repro.core.components import ComponentState, TokenTrace
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
    def _of(cls, tree: DecompositionTree, paths: FrozenSet[Path]) -> "Cut":
        """A cut from ``paths`` already known to form one: no re-walk."""
        cut = cls.__new__(cls)
        cut.tree = tree
        cut.paths = paths
        return cut

    @classmethod
    def singleton(cls, tree: DecompositionTree) -> "Cut":
        """The trivial cut: the whole network as one component."""
        return cls(tree, [()])

    @classmethod
    def level(cls, tree: DecompositionTree, level: int) -> "Cut":
        """The uniform cut with every member at ``level``."""
        return cls(tree, [s.path for s in tree.iter_level(level)])

    @classmethod
    def leaves(cls, tree: DecompositionTree) -> "Cut":
        """The balancer-level cut: every member a leaf (for ``T_w`` the
        deepest level; other structures have leaves at several levels)."""
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
            and other.tree.root == self.tree.root
            and other.paths == self.paths
        )

    def __hash__(self) -> int:
        return hash((self.tree.root, self.paths))

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
    # A split or merge of a cut is a cut (Definition 2.1): each checks its
    # own precondition and builds the result without the whole-cut walk.
    def split(self, path: Path) -> "Cut":
        """The cut with member ``path`` replaced by its children."""
        path = tuple(path)
        if path not in self.paths:
            raise InvalidCutError("cannot split %r: not a cut member" % (path,))
        spec = self.tree.node(path)
        if spec.is_leaf:
            raise InvalidCutError("cannot split the balancer %s" % (spec,))
        children = frozenset(child.path for child in spec.children())
        return Cut._of(self.tree, (self.paths - {path}) | children)

    def merge(self, path: Path) -> "Cut":
        """The cut with the children of ``path`` replaced by ``path``."""
        path = tuple(path)
        spec = self.tree.node(path)
        if spec.is_leaf:
            raise InvalidCutError("cannot merge the balancer %s: it has no children" % (spec,))
        children = frozenset(child.path for child in spec.children())
        if not children <= self.paths:
            raise InvalidCutError(
                "cannot merge %r: not all children are cut members" % (path,)
            )
        return Cut._of(self.tree, (self.paths - children) | {path})


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

    Both token semantics walk one int-indexed hop table (:meth:`_compile`);
    a batch walks the slot plan compiled from its filled rows
    (:meth:`_compile_plan`), every member stepped inline in one loop. Both
    are dropped by whoever changes the member set or swaps a state object:
    write through the reconfiguration methods, never ``states`` itself.

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
        self.states = {spec.path: ComponentState(spec) for spec in cut.members()}
        self.output_counts = PerWireCounters(self.width)
        self.tokens_in = 0
        self.tokens_out = 0
        self._invalidate()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def cut(self) -> Cut:
        """The current cut (recomputed from live members)."""
        return Cut(self.tree, self.states)

    def members(self) -> List[ComponentState]:
        """Live member states, in pre-order."""
        return [self.states[path] for path in sorted(self.states)]

    def member_paths(self) -> FrozenSet[Path]:
        return frozenset(self.states)

    def _invalidate(self) -> None:
        self._table: Optional[tuple] = None
        self._topo: Optional[List[int]] = None
        self._plan: Optional[tuple] = None

    def _compile(self) -> tuple:
        """Number the live members ``0..n-1`` in pre-order (O(members), no
        wiring call) as ``(members, index, rows, inputs, steps)``: ``rows[i][out_port]``
        is ``(j, in_port)`` for the next member, ``(-1, out_wire)`` for a network
        output, ``None`` until a token first needs it; ``inputs[wire]`` likewise;
        ``steps[i]`` is ``(members[i], its width, rows[i])``, what a hop reads."""
        index = {path: i for i, path in enumerate(sorted(self.states))}
        members = [self.states[path] for path in index]
        rows = [[None] * state.spec.width for state in members]
        steps = [(state, len(row), row) for state, row in zip(members, rows)]
        table = self._table = (members, index, rows, [None] * self.width, steps)
        return table

    def _resolve(self, i: int, port: int) -> Tuple[int, int]:
        """Fill ``rows[i][port]`` through the wiring, on first use."""
        members, index, rows = (self._table or self._compile())[:3]
        kind, *dest = self.wiring.resolve_output(members[i].spec, port, index)
        entry = rows[i][port] = (
            (-1, dest[0]) if kind == "out" else (index[dest[0].path], dest[1])
        )
        return entry

    def _resolve_input(self, wire: int) -> Tuple[int, int]:
        """Fill ``inputs[wire]`` through the wiring, on first use."""
        _, index, _, inputs, _ = self._table or self._compile()
        spec, port = self.wiring.resolve_network_input(wire, index)
        entry = inputs[wire] = (index[spec.path], port)
        return entry

    def _edge(self, path: Path, port: int) -> Tuple:
        """Destination of (member, output port), in paths."""
        members, index, rows = (self._table or self._compile())[:3]
        i = index[path]
        j, dest = rows[i][port] or self._resolve(i, port)
        return ("out", dest) if j < 0 else ("member", members[j].spec.path, dest)

    def _input(self, wire: int) -> Tuple[Path, int]:
        members, _, _, inputs, _ = self._table or self._compile()
        i, port = inputs[wire] or self._resolve_input(wire)
        return members[i].spec.path, port

    def _successors(self) -> List[List[int]]:
        """Every member's successor members, ascending (fills every row)."""
        rows = (self._table or self._compile())[2]
        return [
            sorted({(row[p] or self._resolve(i, p))[0] for p in range(len(row))} - {-1})
            for i, row in enumerate(rows)
        ]

    def member_graph(self) -> Dict[Path, set]:
        """Adjacency (member path -> successor member paths)."""
        paths = list((self._table or self._compile())[1])
        return {paths[i]: {paths[j] for j in js} for i, js in enumerate(self._successors())}

    def _order(self) -> List[int]:
        """Member indices in an order compatible with the wire DAG."""
        if self._topo is None:
            graph = self._successors()
            indegree = [0] * len(graph)
            for succs in graph:
                for succ in succs:
                    indegree[succ] += 1
            ready = [i for i, deg in enumerate(indegree) if deg == 0]
            order: List[int] = []
            while ready:
                i = ready.pop()
                order.append(i)
                for succ in graph[i]:
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        ready.append(succ)
            if len(order) != len(graph):
                raise StructureError("member graph is not acyclic")
            self._topo = order
        return self._topo

    def topological_order(self) -> List[Path]:
        """Members in an order compatible with the wire DAG."""
        paths = list((self._table or self._compile())[1])
        return [paths[i] for i in self._order()]

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
        try:
            wire = as_index(wire)
        except TypeError:
            raise StructureError("input wire %r is not an integer" % (wire,)) from None
        if not 0 <= wire < self.width:
            raise StructureError("input wire %d out of range" % wire)
        _, _, _, inputs, steps = self._table or self._compile()
        i, port = inputs[wire] or self._resolve_input(wire)
        self.tokens_in += 1
        while i >= 0:
            # ComponentState.route_token inline: the table's ports need no check.
            state, width, row = steps[i]
            if trace is not None:
                trace.hops.append(state.spec)
            total = state.total
            state.total = total + 1
            arrivals = state.arrivals
            arrivals[port] = arrivals.get(port, 0) + 1
            out_port = total % width
            i, port = row[out_port] or self._resolve(i, out_port)
        value = self.output_counts.fetch_increment(port) * self.width + port
        self.tokens_out += 1
        if trace is not None:
            trace.output_wire = port
            trace.value = value
        return port, value

    # ------------------------------------------------------------------
    # batch (quiescent-count) semantics
    # ------------------------------------------------------------------
    def _compile_plan(self) -> tuple:
        """The batch walk's slot plan ``(steps, wires, outputs)`` over one
        flat ``pending`` list: ``steps`` holds every member in
        :meth:`_order` as ``(state, width, base, dests)``, its input ports
        being slots ``base .. base + width - 1`` and its output port ``p``
        feeding slot ``dests[p]`` (``dests`` runs twice round, so a rotation
        is a slice); the network outputs are the slots from ``outputs`` on,
        and ``wires[wire]`` is the slot network input ``wire`` feeds."""
        members, _, rows, inputs, _ = self._table or self._compile()
        order = self._order()  # fills every row
        bases = [0] * len(rows)
        outputs = 0
        for i in order:
            bases[i] = outputs
            outputs += len(rows[i])

        def slot(j: int, port: int) -> int:
            return (outputs if j < 0 else bases[j]) + port

        steps = []
        for i in order:
            dests = [slot(*entry) for entry in rows[i]]
            steps.append((members[i], len(dests), bases[i], tuple(dests + dests)))
        wires = [slot(*(inputs[w] or self._resolve_input(w))) for w in range(self.width)]
        plan = self._plan = (steps, wires, outputs)
        return plan

    def feed_counts(self, input_counts: Sequence[int]) -> List[int]:
        """Inject ``input_counts[i]`` tokens on each input wire ``i``.

        Propagates counts through members in topological order and
        returns the per-output-wire counts of this batch. Cumulative
        counts are tracked in :attr:`output_counts`.

        One loop over the slot plan (:meth:`_compile_plan`): a member's
        share is :func:`~repro.core.components.balanced_counts` from its
        counter, inline, and moves ``total`` and ``arrivals`` as
        :meth:`ComponentState.route_counts` does; a member nothing reached
        is left untouched.
        """
        if len(input_counts) != self.width:
            raise StructureError(
                "expected %d input counts, got %d" % (self.width, len(input_counts))
            )
        steps, wires, outputs = self._plan or self._compile_plan()
        pending = [0] * (outputs + self.width)
        total = 0
        for wire, count in enumerate(input_counts):
            try:
                count = as_index(count)
            except TypeError:
                count = -1
            if count < 0:
                raise StructureError("token count on wire %d is not an integer >= 0" % wire)
            pending[wires[wire]] += count
            total += count
        for state, width, base, dests in steps:
            if width == 2:  # BalancingNetwork's split: the top takes the odd token on an even counter
                top = pending[base]
                bottom = pending[base + 1]
                n = top + bottom
                if not n:
                    continue
                arrivals = state.arrivals
                if top:
                    arrivals[0] = arrivals.get(0, 0) + top
                if bottom:
                    arrivals[1] = arrivals.get(1, 0) + bottom
                start = state.total
                state.total = start + n
                up = (n + (~start & 1)) >> 1
                pending[dests[0]] += up
                pending[dests[1]] += n - up
                continue
            arrived = pending[base:base + width]
            n = sum(arrived)
            if not n:
                continue
            arrivals = state.arrivals
            for port, count in enumerate(arrived):
                if count:
                    arrivals[port] = arrivals.get(port, 0) + count
            start = state.total
            state.total = start + n
            # The wires from the counter on, once round: the first rem take one more.
            share, rem = divmod(n, width)
            x = start % width
            ring = dests[x:x + width]
            for slot in ring[:rem]:
                pending[slot] += share + 1
            if share:
                for slot in ring[rem:]:
                    pending[slot] += share
        batch_out = pending[outputs:]
        for wire, count in enumerate(batch_out):
            self.output_counts.increment(wire, count)
        self.tokens_in += total
        self.tokens_out += total
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
        del self.states[path]
        self.states.update((child.spec.path, child) for child in children)
        self._invalidate()
        return [child.spec.path for child in children]

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
            del self.states[p]
        self.states[path] = merged
        self._invalidate()
        return path

    def merge_member_recursive(self, path: Path) -> Path:
        """Merge ``path``'s whole live subtree back into one component."""
        path = tuple(path)
        states = self.states
        # A member at or above ``path`` covers every child: nothing below
        # to merge, and merge_member refuses.
        if not any(path[:end] in states for end in range(len(path) + 1)):
            for child in self.tree.node(path).children():
                if child.path not in states:
                    self.merge_member_recursive(child.path)
        return self.merge_member(path)

    def adopt_states(self, states: Iterable[ComponentState]) -> None:
        """Swap in ``states`` (a deployment's copied counters, say) for
        the live members at their paths; the member set is unchanged."""
        for state in states:
            if state.spec.path not in self.states:
                raise InvalidCutError("cannot adopt %s: not a live member" % (state.spec,))
            self.states[state.spec.path] = state
        self._invalidate()
