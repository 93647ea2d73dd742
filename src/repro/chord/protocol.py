"""The Chord maintenance protocol, as real messages over the simulator.

The paper *assumes* a Chord-like routing substrate (Section 1.4); the
rest of this package queries an always-consistent ring, which is the
right model for the paper's claims (they are not about routing-table
convergence). This module implements the substrate itself — the
protocol of Stoica et al. — so that assumption is discharged rather
than modelled:

* ``find_successor`` routing through closest-preceding fingers;
* joins that bootstrap through any existing node;
* the ``stabilize``/``notify`` round that repairs successor pointers;
* ``fix_fingers`` (one finger per round) and ``check_predecessor``;
* successor *lists* so crashes do not disconnect the ring.

Everything is message-passing over :class:`repro.sim.node.MessageBus`
with latencies and (simulated-time) RPC timeouts; no node ever reads
another's state directly. Tests drive churn against it and check the
ring converges to the ground truth and lookups route correctly.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.chord.identifiers import IdentifierSpace
from repro.errors import RingError
from repro.obs import recorder as _obs
from repro.sim.events import EventHandle, Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.node import MessageBus, SimulatedProcess

#: Successor-list length (Chord suggests Theta(log N); fixed is fine at
#: our scales and keeps the protocol deterministic).
SUCCESSOR_LIST = 4

#: How long a node waits for an RPC reply before declaring failure.
RPC_TIMEOUT = 10.0

#: How many times a joining node re-issues its join query before giving
#: up (a dead bootstrap must not leave the joiner spinning forever).
MAX_JOIN_ATTEMPTS = 8


class _Rpc:
    """One in-flight remote call (slotted: one per message on the wire)."""

    __slots__ = ("method", "args", "reply_to", "call_id")

    def __init__(self, method: str, args: tuple, reply_to: int, call_id: int):
        self.method = method
        self.args = args
        self.reply_to = reply_to
        self.call_id = call_id


class _Reply:
    __slots__ = ("call_id", "value")

    def __init__(self, call_id: int, value: object):
        self.call_id = call_id
        self.value = value


def _between(space_size: int, left: int, right: int, point: int) -> bool:
    """point in the clockwise-open interval (left, right).

    ``left == right`` denotes the full circle (every point but ``left``),
    which is what a self-successor means during bootstrap.
    """
    if left == right:
        return point != left
    return point != left and (point - left) % space_size < (right - left) % space_size


class ProtocolNode(SimulatedProcess):
    """One Chord node running the maintenance protocol."""

    def __init__(self, network: "ChordProtocolNetwork", node_id: int):
        self.network = network
        self.node_id = node_id
        self.space = network.space
        self.successors: List[int] = [node_id]  # successor list, nearest first
        self.predecessor: Optional[int] = None
        self.fingers: List[Optional[int]] = [None] * self.space.bits
        self._next_finger = 0
        self.alive = True
        #: A node is *joined* once it knows its successor in the ring.
        #: Until then it neither answers RPCs nor runs maintenance, so a
        #: half-joined node can never claim ring membership (a lesson
        #: from Zave's Chord analysis: the original fire-and-forget join
        #: lets a node whose bootstrap died form a second ring).
        self.joined = False
        self._join_bootstrap: Optional[int] = None
        self._join_attempts = 0
        #: call_id -> (reply continuation, timeout-event handle). The
        #: handle lets the reply path *cancel* the timeout guard instead
        #: of leaving it in the event heap as a dead no-op closure until
        #: its fire time — under churn workloads those dead timers used
        #: to dominate the queue (every successful RPC left one behind).
        self._pending: Dict[int, Tuple[Callable[[object], None], EventHandle]] = {}
        self._call_ids = itertools.count()

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------
    def call(
        self,
        target: int,
        method: str,
        args: tuple,
        on_reply: Callable[[object], None],
        on_timeout: Optional[Callable[[], None]] = None,
    ) -> None:
        call_id = next(self._call_ids)
        rpc = _Rpc(method, args, self.node_id, call_id)
        obs = _obs.ACTIVE
        if obs.enabled:
            issued_at = self.network.sim.now
            obs.rpc_issued(issued_at, method)
            inner_reply = on_reply

            def on_reply(value, _inner=inner_reply, _issued=issued_at):
                now = self.network.sim.now
                recorder = _obs.ACTIVE
                if recorder.enabled:
                    recorder.rpc_replied(now, method, now - _issued)
                _inner(value)

        def expire(_undelivered: object = None) -> None:
            if not self.alive:
                return  # a dead node's timers must not mutate its state
            entry = self._pending.pop(call_id, None)
            if entry is not None:
                # Undeliverable path: the timer is still armed; cancel
                # it so it never fires as a dead event (a no-op when we
                # *are* the timer firing).
                self.network.sim.cancel(entry[1])
                recorder = _obs.ACTIVE
                if recorder.enabled:
                    recorder.rpc_timeout(self.network.sim.now, method)
                if on_timeout is not None:
                    on_timeout()

        timer = self.network.sim.schedule(RPC_TIMEOUT, expire)
        self._pending[call_id] = (on_reply, timer)
        self.network.bus.send(target, rpc, kind="chord", on_undeliverable=expire)

    def handle_message(self, message) -> None:
        if not self.alive:
            return
        if isinstance(message, _Reply):
            entry = self._pending.pop(message.call_id, None)
            if entry is not None:
                on_reply, timer = entry
                self.network.sim.cancel(timer)
                on_reply(message.value)
            return
        if isinstance(message, _Rpc):
            if not self.joined:
                # Not yet part of the ring: answering lookups here could
                # splice a later joiner onto our private self-loop. Stay
                # silent; the caller's RPC timeout covers us.
                return
            value = getattr(self, "rpc_" + message.method)(*message.args)
            self.network.bus.send(
                message.reply_to, _Reply(message.call_id, value), kind="chord"
            )

    # ------------------------------------------------------------------
    # RPC endpoints (what other nodes may ask of us)
    # ------------------------------------------------------------------
    def rpc_get_state(self):
        """Predecessor + successor list, for stabilisation."""
        return (self.predecessor, list(self.successors))

    def rpc_notify(self, candidate: int):
        """A node believes it is our predecessor."""
        if self.predecessor is None or _between(
            self.space.size, self.predecessor, self.node_id, candidate
        ):
            self.predecessor = candidate
        return True

    def rpc_ping(self):
        return True

    def rpc_closest_preceding(self, key: int):
        """Our best routing step toward ``key``."""
        for finger in reversed(self.fingers):
            if finger is not None and _between(
                self.space.size, self.node_id, key, finger
            ):
                return finger
        for succ in self.successors:
            if _between(self.space.size, self.node_id, key, succ):
                return succ
        return self.node_id

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def find_successor(
        self, key: int, on_found: Callable[[int, int], None], hops: int = 0
    ) -> None:
        """Asynchronously resolve ``successor(key)``; calls
        ``on_found(owner, hops)``."""
        succ = self.successor
        if _between(self.space.size, self.node_id, succ, key) or key == succ:
            on_found(succ, hops)
            return
        step = self.rpc_closest_preceding(key)
        if step == self.node_id:
            on_found(succ, hops)
            return

        def forwarded(result):
            owner, total_hops = result
            on_found(owner, total_hops)

        self.call(
            step,
            "find_successor_sync",
            (key, hops + 1),
            forwarded,
            on_timeout=lambda: self._route_around(step, key, on_found, hops),
        )

    def rpc_find_successor_sync(self, key: int, hops: int):
        """Synchronous-looking recursive resolution (each recursion is a
        real message; the reply carries the answer back along the RPC
        chain)."""
        succ = self.successor
        if _between(self.space.size, self.node_id, succ, key) or key == succ:
            return (succ, hops)
        step = self.rpc_closest_preceding(key)
        if step == self.node_id:
            return (succ, hops)
        # NOTE: to keep replies synchronous we resolve the rest of the
        # path by directly asking the network's live node object; the
        # hop count still reflects every node-to-node step. (A fully
        # callback-chained version would add code, not fidelity.)
        next_node = self.network.node_if_alive(step)
        if next_node is None:
            return (succ, hops)
        return next_node.rpc_find_successor_sync(key, hops + 1)

    def _route_around(self, dead: int, key: int, on_found, hops: int) -> None:
        self._drop_peer(dead)
        self.find_successor(key, on_found, hops + 1)

    # ------------------------------------------------------------------
    # joining
    # ------------------------------------------------------------------
    def begin_join(self, bootstrap_id: int) -> None:
        """Drive our own join through ``bootstrap_id``.

        The join is node-initiated and retried: if the bootstrap crashes
        before answering, we re-issue the query while it is still
        registered and give up after :data:`MAX_JOIN_ATTEMPTS`, staying
        un-joined (and therefore invisible to the ring) rather than
        looping back to ourselves.
        """
        self._join_bootstrap = bootstrap_id
        self._send_join_query()

    def _send_join_query(self) -> None:
        bootstrap = self._join_bootstrap
        if bootstrap is None:
            return
        self._join_attempts += 1

        def admitted(result) -> None:
            if self.joined:
                return  # a duplicate reply from a retried query
            owner, _hops = result
            self.successors = [owner]
            self.joined = True
            # Stabilize immediately rather than waiting for the next
            # maintenance round: this splices the successor's list into
            # ours and announces us via notify. Until that happens our
            # list has a single entry, and a crash of that one node
            # would strand us in a permanent self-loop — a second ring
            # (found by the Pass-5 model checker at n = 3).
            self.stabilize()

        self.call(
            bootstrap,
            "find_successor_sync",
            (self.node_id, 0),
            admitted,
            on_timeout=self._retry_join,
        )

    def _retry_join(self) -> None:
        if self.joined or self._join_attempts >= MAX_JOIN_ATTEMPTS:
            return
        self._send_join_query()

    # ------------------------------------------------------------------
    # maintenance rounds
    # ------------------------------------------------------------------
    @property
    def successor(self) -> int:
        return self.successors[0] if self.successors else self.node_id

    def _drop_peer(self, peer: int) -> None:
        self.successors = [s for s in self.successors if s != peer] or [self.node_id]
        if self.predecessor == peer:
            self.predecessor = None
        self.fingers = [None if f == peer else f for f in self.fingers]

    def stabilize(self) -> None:
        """Ask our successor for its predecessor; adopt a closer one;
        refresh the successor list; notify. A lone node asks itself,
        which is how the two-node bootstrap closes the ring."""
        if not self.joined:
            return
        succ = self.successor

        def got_state(state) -> None:
            if succ != self.successor:
                return  # stale reply: our successor changed mid-flight
            pred, succ_list = state
            if (
                pred is not None
                and pred != self.node_id
                and _between(self.space.size, self.node_id, succ, pred)
            ):
                self.successors.insert(0, pred)
                self.successors = list(dict.fromkeys(self.successors))[:SUCCESSOR_LIST]
            else:
                # Splice our successor's list after it (fault tolerance).
                merged = [succ] + [s for s in succ_list if s != self.node_id]
                self.successors = list(dict.fromkeys(merged))[:SUCCESSOR_LIST]
            new_succ = self.successor
            if new_succ != self.node_id:
                self.call(
                    new_succ,
                    "notify",
                    (self.node_id,),
                    lambda _ok: None,
                    on_timeout=lambda: self._drop_peer(new_succ),
                )
            elif self.predecessor not in (None, self.node_id):
                self.rpc_notify(self.predecessor)

        self.call(
            succ, "get_state", (), got_state, on_timeout=lambda: self._drop_peer(succ)
        )

    def fix_one_finger(self) -> None:
        if not self.joined:
            return
        index = self._next_finger
        self._next_finger = (self._next_finger + 1) % self.space.bits
        key = (self.node_id + (1 << index)) % self.space.size

        def found(owner: int, _hops: int) -> None:
            if not self.alive:
                return  # resolved after we crashed: nothing to install
            self.fingers[index] = owner

        self.find_successor(key, found)

    def check_predecessor(self) -> None:
        if not self.joined:
            return
        pred = self.predecessor
        if pred is None:
            return

        def dead() -> None:
            if self.predecessor == pred:
                self.predecessor = None

        self.call(pred, "ping", (), lambda _ok: None, on_timeout=dead)


class ChordProtocolNetwork:
    """A set of protocol nodes on one simulator, plus drive helpers."""

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        space: Optional[IdentifierSpace] = None,
    ):
        self.space = space or IdentifierSpace()
        self.sim = Simulator()
        self.bus = MessageBus(self.sim, latency or ConstantLatency(1.0))
        self.rng = random.Random(seed)
        self.nodes: Dict[int, ProtocolNode] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def node_if_alive(self, node_id: int) -> Optional[ProtocolNode]:
        node = self.nodes.get(node_id)
        return node if node is not None and node.alive else None

    def create_first(self, node_id: Optional[int] = None) -> ProtocolNode:
        if self.nodes:
            raise RingError("network already bootstrapped")
        node = self._spawn(node_id)
        node.predecessor = node.node_id
        node.joined = True
        return node

    def _spawn(self, node_id: Optional[int]) -> ProtocolNode:
        if node_id is None:
            node_id = self.space.random_id(self.rng)
            while node_id in self.nodes:
                node_id = self.space.random_id(self.rng)
        node = ProtocolNode(self, node_id)
        self.nodes[node_id] = node
        self.bus.register(node_id, node)
        return node

    def join(self, bootstrap_id: int, node_id: Optional[int] = None) -> ProtocolNode:
        """A new node joins through any live node.

        The join query is issued (and retried) by the *joining* node;
        until the answer arrives it is not part of the ring — it runs no
        maintenance, answers no RPCs, and ``joined`` stays False, so a
        bootstrap crash mid-join leaves a cleanly un-joined node rather
        than a second one-node ring.
        """
        bootstrap = self.node_if_alive(bootstrap_id)
        if bootstrap is None:
            raise RingError("bootstrap node %#x is not alive" % bootstrap_id)
        node = self._spawn(node_id)
        node.begin_join(bootstrap_id)
        return node

    def crash(self, node_id: int) -> None:
        node = self.nodes.pop(node_id, None)
        if node is None:
            raise RingError("no such node %#x" % node_id)
        node.alive = False
        # A dead node's timeout guards can never act (the alive check
        # above would no-op them anyway); cancel them so they leave the
        # event heap immediately instead of firing as dead events.
        while node._pending:
            _call_id, (_handler, timer) = node._pending.popitem()
            self.sim.cancel(timer)
        self.bus.unregister(node_id)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run_rounds(self, rounds: int, spacing: float = 20.0) -> None:
        """Run ``rounds`` maintenance rounds on every node."""
        for round_index in range(rounds):
            for node in list(self.nodes.values()):
                if not node.alive:
                    continue
                self.sim.schedule(0.0, node.stabilize)
                self.sim.schedule(1.0, node.fix_one_finger)
                self.sim.schedule(2.0, node.check_predecessor)
            self.sim.run_until(self.sim.now + spacing)
        self.sim.run_until_idle()

    def lookup(self, start_id: int, key: int):
        """Resolve ``successor(key)`` via the live protocol; returns
        ``(owner, hops)`` after running the simulator to completion."""
        start = self.node_if_alive(start_id)
        if start is None:
            raise RingError("start node %#x is not alive" % start_id)
        result: List = []
        start.find_successor(key, lambda owner, hops: result.append((owner, hops)))
        self.sim.run_until_idle()
        if not result:
            raise RingError("lookup of %#x produced no answer" % key)
        return result[0]

    # ------------------------------------------------------------------
    # verification helpers
    # ------------------------------------------------------------------
    def true_ring(self) -> List[int]:
        return sorted(self.nodes)

    def true_successor(self, node_id: int) -> int:
        ring = self.true_ring()
        index = ring.index(node_id)
        return ring[(index + 1) % len(ring)]

    def is_converged(self) -> bool:
        """Every live node's first successor matches the true ring."""
        return all(
            node.successor == self.true_successor(node.node_id)
            for node in self.nodes.values()
        )

    def converged_predecessors(self) -> bool:
        ring = self.true_ring()
        for node in self.nodes.values():
            index = ring.index(node.node_id)
            if node.predecessor != ring[(index - 1) % len(ring)]:
                return False
        return True
