"""Static deployments: the baselines of Section 2's motivating example.

The paper's "simple approach" deploys a static ``BITONIC[w]`` with one
object per balancer, hashed onto the nodes — ``w log w (log w + 1)/4``
objects regardless of the system size. This module runs that deployment
(and the centralised counter and counting-tree baselines) on the same
ring/simulator substrate as the adaptive system, so throughput, latency
and message-count comparisons are apples-to-apples.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.chord.hashing import name_to_point
from repro.chord.ring import ChordRing
from repro.core.atomics import PerWireCounters, TokenLedger
from repro.core.diffracting import CountingTree
from repro.core.network import BalancingNetwork
from repro.errors import ProtocolError
from repro.runtime.tokens import Token, TokenStats
from repro.sim.events import Simulator
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.node import MessageBus, SimulatedProcess


class _Deployment:
    """Shared substrate: a ring of nodes, a bus, token statistics."""

    def __init__(
        self,
        num_nodes: int,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        service_time: float = 0.0,
    ):
        if num_nodes < 1:
            raise ProtocolError("a deployment needs at least one node")
        self.ring = ChordRing(seed=seed)
        self.sim = Simulator()
        self.bus = MessageBus(self.sim, latency or ConstantLatency(1.0), service_time)
        self.rng = random.Random(seed + 1)
        self.token_stats = TokenStats()
        self._token_counter = 0
        self._processes: Dict[int, "_ObjectHost"] = {}
        for _ in range(num_nodes):
            node = self.ring.join()
            host = _ObjectHost(self)
            self._processes[node.node_id] = host
            self.bus.register(node.node_id, host)

    def object_home(self, name: str) -> int:
        return self.ring.successor(name_to_point(name, self.ring.space)).node_id

    def new_token(self, entry_wire: int) -> Token:
        token = Token(self._token_counter, entry_wire, self.sim.now)
        self._token_counter += 1
        self.token_stats.issued.increment()
        return token

    def retire(self, token: Token, wire: int, value: int) -> None:
        token.exit_wire = wire
        token.value = value
        token.retired_at = self.sim.now
        self.token_stats.record_retired(token)

    def run_until_quiescent(self) -> None:
        self.sim.run_until_idle()

    def handle(self, message) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def num_objects(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class _ObjectHost(SimulatedProcess):
    """All object logic lives in the deployment; hosts just dispatch."""

    def __init__(self, deployment: _Deployment):
        self.deployment = deployment

    def handle_message(self, message) -> None:
        self.deployment.handle(message)


class StaticBitonicDeployment(_Deployment):
    """One object per balancer of a static balancer-level network.

    A token at (layer, wire) is processed by the balancer object owning
    that wire in that layer (one message per layer it actually crosses);
    wires without a balancer in a layer are pass-throughs costing
    nothing, exactly as in the paper's simple approach.
    """

    def __init__(self, network: BalancingNetwork, num_nodes: int, **kwargs):
        super().__init__(num_nodes, **kwargs)
        self.network = network
        self.width = network.width
        # (layer, wire) -> balancer index within the layer.
        self._wire_to_balancer: List[Dict[int, int]] = []
        for layer in network.layers:
            mapping = {}
            for index, (top, bottom) in enumerate(layer):
                mapping[top] = index
                mapping[bottom] = index
            self._wire_to_balancer.append(mapping)
        self._toggles: TokenLedger[Tuple[int, int]] = TokenLedger()
        self._homes: Dict[Tuple[int, int], int] = {}
        self.output_counts = PerWireCounters(self.width)
        self._position = {wire: j for j, wire in enumerate(network.output_order)}

    @property
    def num_objects(self) -> int:
        return self.network.num_balancers

    def _balancer_home(self, layer: int, index: int) -> int:
        key = (layer, index)
        home = self._homes.get(key)
        if home is None:
            home = self.object_home("bal/%d/%d/%d" % (self.width, layer, index))
            self._homes[key] = home
        return home

    def _next_stop(self, layer: int, wire: int):
        """First balancer at or after ``layer`` that touches ``wire``."""
        for at in range(layer, len(self.network.layers)):
            index = self._wire_to_balancer[at].get(wire)
            if index is not None:
                return at, index
        return None

    def inject_token(self, wire: Optional[int] = None) -> Token:
        if wire is None:
            wire = self.rng.randrange(self.width)
        token = self.new_token(wire)
        self._forward(token, 0, wire)
        return token

    def _forward(self, token: Token, layer: int, wire: int) -> None:
        stop = self._next_stop(layer, wire)
        if stop is None:
            position = self._position[wire]
            value = self.output_counts.fetch_increment(position) * self.width + position
            self.retire(token, position, value)
            return
        at, index = stop
        token.hops += 1
        self.bus.send(self._balancer_home(at, index), (token, at, index, wire), kind="token")

    def handle(self, message) -> None:
        token, layer, index, wire = message
        key = (layer, index)
        toggle = self._toggles.fetch_post(key)
        top, bottom = self.network.layers[layer][index]
        out_wire = top if toggle % 2 == 0 else bottom
        self._forward(token, layer + 1, out_wire)


class CentralCounterDeployment(_Deployment):
    """The zero-parallelism baseline: one counter object on one node."""

    def __init__(self, num_nodes: int, **kwargs):
        super().__init__(num_nodes, **kwargs)
        self._home = self.object_home("central-counter")
        self._count = 0

    @property
    def num_objects(self) -> int:
        return 1

    def inject_token(self, wire: Optional[int] = None) -> Token:
        token = self.new_token(wire or 0)
        token.hops += 1
        self.bus.send(self._home, token, kind="token")
        return token

    def handle(self, token) -> None:
        self.retire(token, 0, self._count)
        self._count += 1


class CountingTreeDeployment(_Deployment):
    """A counting tree [SZ96] with each toggle hashed to a node."""

    def __init__(self, depth: int, num_nodes: int, **kwargs):
        super().__init__(num_nodes, **kwargs)
        self.tree = CountingTree(depth)
        self.depth = depth
        self._homes: Dict[int, int] = {}

    @property
    def num_objects(self) -> int:
        return 2 * self.tree.num_leaves - 1  # toggles + leaf counters

    def _node_home(self, tree_node: int) -> int:
        home = self._homes.get(tree_node)
        if home is None:
            home = self.object_home("ctree/%d/%d" % (self.depth, tree_node))
            self._homes[tree_node] = home
        return home

    def inject_token(self, wire: Optional[int] = None) -> Token:
        token = self.new_token(wire or 0)
        token.hops += 1
        self.bus.send(self._node_home(1), (token, 1, 0), kind="token")
        return token

    def handle(self, message) -> None:
        token, tree_node, level = message
        if level == self.depth:
            # Leaf counter: hand out the value.
            position = tree_node - self.tree.num_leaves
            label = self.tree._bit_reverse(position)
            value = self.tree.leaf_counts.fetch_increment(label) * self.tree.num_leaves + label
            self.retire(token, label, value)
            return
        toggles = self.tree._toggles
        bit = toggles[tree_node]
        toggles[tree_node] = bit ^ 1
        child = 2 * tree_node + bit
        token.hops += 1
        self.bus.send(self._node_home(child), (token, child, level + 1), kind="token")
