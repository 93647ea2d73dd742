"""The adaptive counting network system — the paper's artefact, runnable.

:class:`AdaptiveCountingSystem` wires every substrate together: the
decomposition tree and component wiring (Section 2), the Chord ring with
consistent hashing and size estimation (Sections 1.4/3.1), the
discrete-event message bus, the per-node hosts, the split/merge
protocols (Section 2.2), the decentralised rules (Section 3.2),
membership changes and crash recovery (Section 3.4), and client-side
input lookup (Section 3.5).

Typical use::

    system = AdaptiveCountingSystem(width=64, seed=1)
    for _ in range(50):
        system.add_node()
    system.converge()                  # rules split components
    values = [system.next_value() for _ in range(100)]
    assert sorted(values) == list(range(100))
    print(system.metrics())            # effective width/depth
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.chord.ring import ChordNode, ChordRing
from repro.core.atomics import PerWireCounters
from repro.core.components import ComponentState, balanced_count_at
from repro.core.cut import Cut, CutNetwork
from repro.core.decomposition import ComponentSpec, DecompositionTree
from repro.core.metrics import NetworkMetrics, measure
from repro.core.verification import check_step_property
from repro.core.wiring import MergerConvention, Wiring
from repro.errors import ComponentNotFound, ProtocolError
from repro.obs import recorder as _obs
from repro.runtime.combining import Combiner, CombiningConfig
from repro.runtime.directory import ComponentDirectory
from repro.runtime.host import NodeHost
from repro.runtime.lookup import InputLookup, LookupResult
from repro.runtime.membership import CrashReport, MembershipManager
from repro.runtime.reconfig import Reconfigurator
from repro.runtime.rules import RulesEngine
from repro.runtime.audit import StateAuditor
from repro.runtime.stabilization import Stabilizer
from repro.runtime.tokens import Token, TokenStats
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.node import MessageBus

Path = Tuple[int, ...]

#: Tokens give up after this many re-resolution attempts (only reachable
#: when recovery is disabled and the network has a permanent hole).
MAX_REROUTES = 64

#: Delay before a token retries after hitting a missing component.
RETRY_DELAY = 1.0


@dataclass
class SystemStats:
    """Control-plane statistics for one system instance."""

    splits: int = 0
    merges: int = 0
    handoffs: int = 0
    crashes: int = 0
    recoveries: int = 0
    control_messages: int = 0
    lookup_tries: List[int] = field(default_factory=list)
    lookup_hops: List[int] = field(default_factory=list)
    dropped_tokens: int = 0
    disturbed_tokens: int = 0


class AdaptiveCountingSystem:
    """A complete, simulated deployment of the adaptive bitonic network."""

    def __init__(
        self,
        width: int,
        seed: int = 0,
        initial_nodes: int = 1,
        latency: Optional[LatencyModel] = None,
        service_time: float = 0.0,
        step_multiplier: int = 4,
        hysteresis: int = 0,
        convention: MergerConvention = MergerConvention.AHS94,
        auto_stabilize: bool = True,
        combining: Optional[CombiningConfig] = None,
        tree=None,
        wiring=None,
    ):
        if (tree is None) != (wiring is None):
            raise ProtocolError("pass tree and wiring together, or neither")
        if tree is not None and tree.width != width:
            raise ProtocolError("width %d disagrees with the tree's %d" % (width, tree.width))
        self.tree = tree if tree is not None else DecompositionTree(width)
        self.width = self.tree.width
        self.wiring = wiring if wiring is not None else Wiring(self.tree, convention)
        self.ring = ChordRing(seed=seed)
        self.rng = random.Random(seed + 1)
        self.sim = Simulator()
        self.bus = MessageBus(self.sim, latency or ConstantLatency(1.0), service_time)
        #: ``bus.send`` and ``_undelivered``, bound once for the hop.
        self._send = self.bus.send
        self._on_undelivered = self._undelivered
        self.control_latency = 1.0
        self.step_multiplier = step_multiplier
        self.auto_stabilize = auto_stabilize
        self.directory = ComponentDirectory(self.tree, self.ring)
        #: Hoisted C-level liveness/owner probe for the per-hop path.
        self._owner_of = self.directory.owner_reader()
        self.hosts: Dict[int, NodeHost] = {}
        # Sorted list of live node ids, maintained incrementally by the
        # membership layer so the token hot path never re-sorts
        # ``self.hosts`` per injection.
        self._live_nodes: List[int] = []
        self.stats = SystemStats()
        self.token_stats = TokenStats()
        self.injected_per_wire = PerWireCounters(self.width)
        self.output_counts = PerWireCounters(self.width)
        self.lost_components: Set[Path] = set()
        #: Split-registry entries of nodes crashed since the last
        #: :meth:`stabilize`: the merge duties recovery must re-assign.
        self.lost_registry: Set[Path] = set()
        #: Issued tokens that have neither retired nor dropped (nor been
        #: lost in a crashed host's buffers). The tokens are the
        #: emitted-but-not-arrived ledger: each records the (path, port)
        #: it is owed to and whether it is on the bus toward it now, so
        #: a hop keeps no table and recovery (a crash report, a merge
        #: drain, ``Stabilizer.reconstruct``) walks this set instead.
        self.live_tokens: Set[Token] = set()
        # Injected tokens whose input lookup failed and is pending a
        # retry, per network wire: counted in ``injected_per_wire`` but
        # not yet owed to any component.
        self._inject_pending = PerWireCounters(self.width)
        self._token_counter = 0
        self._next_wire = 0
        self._retire_callbacks: List[Callable[[Token], None]] = []
        self.combiner = (
            Combiner(self, combining) if combining and combining.enabled else None
        )
        self.reconfig = Reconfigurator(self)
        self.rules = RulesEngine(self, hysteresis)
        self.membership = MembershipManager(self)
        self.stabilizer = Stabilizer(self)
        self.auditor = StateAuditor(self)
        self.lookup = InputLookup(self)
        # Bootstrap: the first node hosts the whole network as a single
        # component (Section 1.2: "initially, the entire bitonic network
        # resides on one node").
        first = self.membership.join()
        self.hosts[first.node_id].install(ComponentState(self.tree.root))
        self.directory.register((), first.node_id)
        for _ in range(initial_nodes - 1):
            self.add_node()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_node(self, name: Optional[str] = None) -> ChordNode:
        """A node joins the p2p network (Section 3.4: no counting-network
        change beyond consistent-hash handoffs)."""
        return self.membership.join(name)

    def remove_node(self, node_id: Optional[int] = None) -> int:
        """A node leaves gracefully, handing off its components."""
        if node_id is None:
            node_id = self.rng.choice(self._live_nodes)
        self.membership.leave(node_id)
        return node_id

    def crash_node(self, node_id: Optional[int] = None) -> CrashReport:
        """A node crashes, losing its state; recovery restores a legal
        network state (unless ``auto_stabilize`` is off)."""
        if node_id is None:
            node_id = self.rng.choice(self._live_nodes)
        report = self.membership.crash(node_id)
        self.lost_components.update(report.lost_components)
        self.lost_registry.update(report.lost_registry_entries)
        if self.auto_stabilize:
            self.stabilize()
        return report

    def stabilize(self) -> List[Path]:
        """Run crash recovery now; returns the restored component paths."""
        began_at = self.sim.now
        restored = self.stabilizer.stabilize()
        self.lost_components.clear()
        self.lost_registry.clear()
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.stabilization(began_at, self.sim.now, len(restored))
        return restored

    def note_node_joined(self, node_id: int) -> None:
        """Membership-layer hook: keep the sorted live-node list fresh."""
        insort(self._live_nodes, node_id)

    def note_node_left(self, node_id: int) -> None:
        """Membership-layer hook: a node left (gracefully or by crash)."""
        index = bisect_left(self._live_nodes, node_id)
        if index < len(self._live_nodes) and self._live_nodes[index] == node_id:
            del self._live_nodes[index]

    @property
    def num_nodes(self) -> int:
        return len(self.ring)

    # ------------------------------------------------------------------
    # adaptation
    # ------------------------------------------------------------------
    def converge(self, max_rounds: int = 64) -> int:
        """Let every node apply the Section 3.2 rules until no node acts.

        Returns the number of evaluation rounds. Raises if the rules do
        not reach a fixpoint within ``max_rounds``. They always should:
        level estimates are stable between membership changes, and a
        split or merge deferred as inexact (only ever with tokens in
        flight) is an action, so the next round starts at quiescence.
        """
        for round_index in range(max_rounds):
            actions = 0
            for node_id in sorted(self.hosts):
                host = self.hosts.get(node_id)
                if host is not None:
                    actions += self.rules.evaluate(host)
            self.run_until_quiescent()
            if actions == 0:
                return round_index + 1
        raise ProtocolError("rules did not converge within %d rounds" % max_rounds)

    def split_to(self, cut: Cut) -> int:
        """Split live components, breadth-first, until the deployed cut
        is ``cut``; returns the number of splits.

        A cut left alone by :meth:`converge` is a static deployment on
        this system's own hop: the leaf cut is Section 2's "simple
        approach" (one object per balancer), the root cut a central
        counter. Raises :class:`ProtocolError` if ``cut`` is of another
        tree or does not refine the live cut, or if a split defers.
        """
        if cut.tree is not self.tree:
            raise ProtocolError("the cut is of another tree")
        live = sorted(self.directory.live_paths())
        for path in live:
            if cut.member_covering(path) not in (None, path):
                raise ProtocolError("the cut does not refine live component %r" % (path,))
        queue = deque(live)
        splits = 0
        while queue:
            path = queue.popleft()
            if path in cut.paths:
                continue
            children = self.reconfig.split(path)
            if not children:
                raise ProtocolError("the split of %r deferred" % (path,))
            splits += 1
            queue.extend(children)
        return splits

    # ------------------------------------------------------------------
    # token plane
    # ------------------------------------------------------------------
    def inject_token(
        self, wire: Optional[int] = None, from_node: Optional[int] = None
    ) -> Token:
        """A client sends one token into the network.

        ``wire`` defaults to round-robin over the input wires (a client
        may choose any); ``from_node`` (for DHT hop accounting) defaults
        to a random live node.
        """
        if wire is None:
            wire = self._next_wire
            self._next_wire = (self._next_wire + 1) % self.width
        if from_node is None and self._live_nodes:
            from_node = self.rng.choice(self._live_nodes)
        token = Token(self._token_counter, wire, self.sim.now)
        self._token_counter += 1
        self.token_stats.issued.increment()
        self.live_tokens.add(token)
        self.injected_per_wire.increment(wire)
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.token_injected(token)
        self._attempt_injection(token, wire, from_node)
        return token

    def _attempt_injection(self, token: Token, wire: int, from_node) -> None:
        """Look up the input component and send; if the lookup hits a
        crash hole, the client retries until recovery restores it."""
        try:
            result = self.find_input(wire, from_node)
        except ComponentNotFound:
            token.reroutes += 1
            obs = _obs.ACTIVE
            if obs.enabled:
                obs.token_rerouted(self.sim.now, token)
            if token.reroutes > MAX_REROUTES:
                self._drop(token)
                return
            self._inject_pending.increment(wire)

            def retry_injection() -> None:
                self._inject_pending.decrement(wire)
                self._attempt_injection(token, wire, from_node)

            self.sim.schedule(RETRY_DELAY, retry_injection)
            return
        self.send_token(result.path, result.port, token)

    def find_input(self, wire: int, from_node: Optional[int] = None) -> LookupResult:
        """Section 3.5's input-component lookup, with stats recorded."""
        result = self.lookup.find(wire, from_node)
        self.stats.lookup_tries.append(result.tries)
        self.stats.lookup_hops.append(result.dht_hops)
        return result

    def send_token(self, path: Path, port: int, token: Token) -> None:
        """Forward a token to input ``port`` of the component at ``path``.

        The token itself is the message: it is marked owed to
        (``path``, ``port``) — its emitter has counted it as departed
        toward that input — and stays so across bounces and retry waits
        until it arrives; a reroute to a new address moves the debt.
        With combining enabled, the token may wait up to the combining
        window at the sender so companions headed to the same component
        share one message.
        """
        if path.__class__ is not tuple:
            path = tuple(path)
        owner = self._owner_of(path)
        if owner is None:
            self.reroute_token(path, port, token)
            return
        obs = _obs.ACTIVE
        key = (path, port)
        if token.owed != key:
            if token.owed is not None:
                self._unowe(token)  # a reroute moves the debt
            token.owed = key
            if obs.enabled:
                obs.owed_delta(1)
        if self.combiner is not None:
            self.combiner.offer(path, token)
            return
        token.hops += 1
        token.in_flight = True
        if obs.enabled:
            obs.token_hop(self.sim.now, token, path, port, 1)
        self._send(owner, token, "token", self._on_undelivered)

    def dispatch_batch(self, path: Path, tokens) -> None:
        """Ship ``tokens`` — each already owed to an input of ``path`` by
        :meth:`send_token` — as one message, a tuple of tokens."""
        path = tuple(path)
        owner = self._owner_of(path)
        if owner is None:
            for token in tokens:
                self.reroute_token(path, token.owed[1], token)
            return
        obs = _obs.ACTIVE
        for token in tokens:
            token.hops += 1
            token.in_flight = True
            if obs.enabled:
                obs.token_hop(self.sim.now, token, path, token.owed[1], len(tokens))
        message = tokens[0] if len(tokens) == 1 else tuple(tokens)
        self._send(owner, message, "token", self._on_undelivered)

    def _undelivered(self, message) -> None:
        """The bus dropped a token message (its owner is gone): every
        token in it is off the bus, still owed, and retries."""
        for token in (message,) if message.__class__ is Token else message:
            token.in_flight = False
            self._retry(token.owed[0], token.owed[1], token)

    def _unowe(self, token: Token) -> None:
        """The token arrived somewhere (or was dropped): settle its debt."""
        if token.owed is None:
            return
        token.owed = None
        token.in_flight = False
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.owed_delta(-1)

    def owed_by_port(self, path: Path) -> Counter:
        """Per input port of ``path``, the tokens counted as emitted
        toward it that have not arrived: in flight on the bus, bounced
        and awaiting a retry, or waiting in a combining buffer. One walk
        of the live tokens, made at recovery and never on the hop."""
        path = tuple(path)
        return Counter(
            token.owed[1]
            for token in self.live_tokens
            if token.owed is not None and token.owed[0] == path
        )

    def tokens_owed(self, path: Path, port: int) -> int:
        """Tokens owed to the one input (``path``, ``port``)."""
        return self.owed_by_port(path)[port]

    def tokens_in_flight(self, paths) -> int:
        """Tokens on the bus toward any component in ``paths`` now."""
        return sum(
            1 for token in self.live_tokens if token.in_flight and token.owed[0] in paths
        )

    def _drop(self, token: Token) -> None:
        """Give up on a token that exhausted ``MAX_REROUTES``."""
        self.stats.dropped_tokens += 1
        self.token_stats.record_dropped(token)
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.token_dropped(self.sim.now, token)
        self._unowe(token)
        self.live_tokens.discard(token)

    def _retry(self, path: Path, port: int, token: Token) -> None:
        token.reroutes += 1
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.token_rerouted(self.sim.now, token)
        if token.reroutes > MAX_REROUTES:
            self._drop(token)
            return
        self.sim.schedule(RETRY_DELAY, lambda: self.send_token(path, port, token))

    def reroute_token(self, path: Path, port: int, token: Token) -> None:
        """Re-resolve a token addressed to a component that is gone.

        :meth:`WiringBase.resolve_input` says where the address lives
        now: merged into an ancestor or split into descendants (re-send
        there), live again at a new home, or in a crash hole, whole or
        partial (retry until the owner map or recovery catches up).
        """
        path = tuple(path)
        found, spec, in_port = self.wiring.resolve_input(
            self.tree.node(path), port, self.directory.live_paths()
        )
        if found == "missing" or spec.path == path:
            self._retry(path, port, token)
            return
        token.reroutes += 1
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.token_rerouted(self.sim.now, token)
        self.send_token(spec.path, in_port, token)

    def retire_token(
        self, token: Token, state: ComponentState, out_port: int, wire: int
    ) -> None:
        """A token leaves the network on output ``wire`` with its value.

        The value is computed *locally* by the output component: it is
        the ``n``-th token this component ever emitted on this port
        (a closed form of its counter), so ``value = (n-1)*width +
        wire`` — globally unique and gap-free while no tokens are lost.
        """
        emitted = balanced_count_at(0, state.total, state.width, out_port)
        token.value = (emitted - 1) * self.width + wire
        token.exit_wire = wire
        token.retired_at = self.sim.now
        self.live_tokens.discard(token)
        self.output_counts.increment(wire)
        self.token_stats.record_retired(token)
        for callback in self._retire_callbacks:
            callback(token)

    def on_retire(self, callback: Callable[[Token], None]) -> None:
        """Register a callback invoked whenever a token retires."""
        self._retire_callbacks.append(callback)

    def next_value(self) -> int:
        """Convenience: inject one token, run to quiescence, return its
        counter value (the distributed-counter application)."""
        token = self.inject_token()
        self.run_until_quiescent()
        if token.value is None:
            raise ProtocolError("token %d did not retire" % token.token_id)
        return token.value

    # ------------------------------------------------------------------
    # simulator control
    # ------------------------------------------------------------------
    def advance(self, delta: float) -> None:
        """Let ``delta`` simulated time pass (processing due events)."""
        self.sim.run_until(self.sim.now + delta)

    def run_until_quiescent(self, max_events: int = 10_000_000) -> None:
        """Process events until nothing is pending."""
        self.sim.run_until_idle(max_events)

    def drain_paths(self, paths: Set[Path]) -> None:
        """Step the simulator until no token is in flight toward
        ``paths`` (used by the merge protocol). Combining buffers are
        flushed so no token lingers on an internal wire of the subtree."""
        while True:
            if self.combiner is not None:
                self.combiner.flush_all()
            if not self.tokens_in_flight(paths):
                return
            if not self.sim.step():
                raise ProtocolError("drain stalled with tokens in flight")

    def publish_pool_stats(self) -> Dict[str, Dict[str, int]]:
        """Snapshot both freelists (envelopes, event handles)
        into the active recorder's gauges and return the snapshot.

        Called at section boundaries (bench scenarios, experiment
        epochs) — deliberately not per event, so pooling costs no obs
        traffic on the hot path.
        """
        snapshot = {
            "envelopes": self.bus.pool_stats(),
            "handles": self.sim.pool_stats(),
        }
        obs = _obs.ACTIVE
        if obs.enabled:
            for name, stats in snapshot.items():
                obs.pool_stats(
                    name, stats["created"], stats["reused"], stats["free"]
                )
        return snapshot

    def resolve_edge(self, spec: ComponentSpec, out_port: int):
        """Where (``spec``, output ``out_port``) leads under the live cut.

        ``("missing", path, port)`` marks a crash hole: the token is
        addressed to the hole's subtree root and retried until
        stabilisation restores a member there.

        Every other resolution goes into the directory's edge table,
        which every host reads: the answer names paths, not owners, so
        it holds for whoever hosts ``spec`` until the live set changes
        along the descent to the destination.
        """
        resolved = self.wiring.resolve_output(
            spec, out_port, self.directory.live_paths()
        )
        if resolved[0] != "out":
            resolved = (resolved[0], resolved[1].path, resolved[2])
        if resolved[0] != "missing":
            self.directory.remember_edge((spec.path, out_port), resolved)
        return resolved

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def snapshot_cut(self) -> Cut:
        """The currently deployed cut."""
        return self.directory.as_cut()

    def snapshot_network(self) -> CutNetwork:
        """An offline :class:`CutNetwork` mirroring the live deployment
        (copied states), for metrics and verification."""
        network = CutNetwork(self.snapshot_cut(), wiring=self.wiring)
        hosts, owner = self.hosts, self.directory.owner
        network.adopt_states([hosts[owner(p)].components[p].copy() for p in network.states])
        network.output_counts.reset(self.output_counts.snapshot())
        return network

    def metrics(self) -> NetworkMetrics:
        """Effective width/depth and component count (Definitions 1.1/1.2)."""
        return measure(self.snapshot_network())

    def components_per_node(self) -> List[int]:
        """Component counts across live nodes (Lemma 3.5's quantity)."""
        return [host.component_count() for host in self.hosts.values()]

    def component_levels(self) -> List[int]:
        """Levels of all live components (Lemma 3.4's quantity)."""
        return sorted(len(path) for path in self.directory.live_paths())

    def node_levels(self) -> List[int]:
        """Every node's current level estimate ``ell_v``."""
        return [self.rules.node_level(host) for host in self.hosts.values()]

    def verify(self) -> None:
        """Check global invariants; raises on violation.

        * the directory is a valid cut with every component at its home;
        * every component is quiescent (arrivals == departures);
        * every issued token is accounted for: retired, or — only with
          recovery disabled — counted as dropped after exhausting
          ``MAX_REROUTES`` (the documented give-up behaviour, flagged
          distinctly from a genuine loss);
        * the quiescent output distribution has the step property
          (checked only when nothing was dropped: a dropped token never
          exits, so its absence legitimately perturbs the distribution).
        """
        self.directory.check_consistent()
        for host in self.hosts.values():
            for path, state in host.components.items():
                if state.arrived_total() != state.total:
                    raise ProtocolError(
                        "component %r not quiescent: %d arrived, %d routed"
                        % (path, state.arrived_total(), state.total)
                    )
        accounted = self.token_stats.retired + self.token_stats.dropped
        if accounted != self.token_stats.issued:
            raise ProtocolError(
                "%d tokens issued but only %d accounted for "
                "(%d retired + %d dropped): %d lost without a trace"
                % (
                    self.token_stats.issued,
                    accounted,
                    self.token_stats.retired,
                    self.token_stats.dropped,
                    self.token_stats.issued - accounted,
                )
            )
        if self.token_stats.dropped == 0:
            check_step_property(self.output_counts)
