"""The counting-tree baseline of Section 1.3, deployed on the simulator.

Section 2's other baselines need no module of their own: a static
``BITONIC[w]`` with one object per balancer (the paper's "simple
approach") is the leaf cut of ``T_w``, and a central counter its root
cut, so both run on :class:`~repro.runtime.system.AdaptiveCountingSystem`
pinned with :meth:`~repro.runtime.system.AdaptiveCountingSystem.split_to`.
A counting tree [SZ96] is not a cut of any decomposition tree, so it
gets this deployment: each toggle and leaf counter is an object hashed
onto a ring of nodes, on the same bus, so throughput, latency and
message-count comparisons are apples-to-apples.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.chord.hashing import name_to_point
from repro.chord.ring import ChordRing
from repro.core.diffracting import CountingTree
from repro.errors import ProtocolError
from repro.runtime.tokens import Token, TokenStats
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.node import MessageBus, SimulatedProcess


class CountingTreeDeployment(SimulatedProcess):
    """A counting tree [SZ96] with each toggle hashed to a node.

    A message is ``(token, tree_node)``, ``tree_node`` a heap index:
    toggles are ``1 .. num_leaves - 1``, leaf counters the rest. Every
    node of the ring is registered with this one handler, each with its
    own service queue.
    """

    def __init__(
        self,
        depth: int,
        num_nodes: int,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        service_time: float = 0.0,
    ):
        if num_nodes < 1:
            raise ProtocolError("a deployment needs at least one node")
        self.tree = CountingTree(depth)
        self.ring = ChordRing(seed=seed)
        self.sim = Simulator()
        self.bus = MessageBus(self.sim, latency or ConstantLatency(1.0), service_time)
        self.token_stats = TokenStats()
        self._token_counter = 0
        self._homes: Dict[int, int] = {}
        for _ in range(num_nodes):
            self.bus.register(self.ring.join().node_id, self)

    @property
    def num_objects(self) -> int:
        return 2 * self.tree.num_leaves - 1  # toggles + leaf counters

    def _send(self, token: Token, tree_node: int) -> None:
        home = self._homes.get(tree_node)
        if home is None:
            name = "ctree/%d/%d" % (self.tree.depth, tree_node)
            home = self.ring.successor(name_to_point(name, self.ring.space)).node_id
            self._homes[tree_node] = home
        token.hops += 1
        self.bus.send(home, (token, tree_node), kind="token")

    def inject_token(self, wire: Optional[int] = None) -> Token:
        token = Token(self._token_counter, wire or 0, self.sim.now)
        self._token_counter += 1
        self.token_stats.issued.increment()
        self._send(token, 1)
        return token

    def handle_message(self, message) -> None:
        token, tree_node = message
        if tree_node < self.tree.num_leaves:
            self._send(token, self.tree.step(tree_node))
            return
        token.exit_wire, token.value = self.tree.leaf_value(tree_node)
        token.retired_at = self.sim.now
        self.token_stats.record_retired(token)

    def run_until_quiescent(self) -> None:
        self.sim.run_until_idle()
