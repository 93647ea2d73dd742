"""Per-node hosting of components and the token data plane.

A :class:`NodeHost` is the process running on one physical node. It
holds the components hashed to the node, routes arriving tokens through
them, buffers tokens for components that are frozen mid-reconfiguration
(Section 2.2's "temporarily stop routing"), and keeps the node-local
state the splitting/merging rules need: the node's last level estimate
and the list of components it has split but not yet merged
(Section 3.2).

Out-neighbour addresses are remembered per (component, output port) as
Section 3.5 prescribes, in the directory's edge table, which forgets an
edge only when the live set changes along it; the per-host hit/miss
counters feed the routing-efficiency experiment.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.chord.ring import ChordNode
from repro.core.components import ComponentState
from repro.errors import ProtocolError
from repro.obs import recorder as _obs
from repro.runtime.tokens import Token
from repro.sim.node import SimulatedProcess

Path = Tuple[int, ...]


class NodeHost(SimulatedProcess):
    """The runtime process of one physical node."""

    def __init__(self, node: ChordNode, system):
        self.node = node
        self.system = system
        self.components: Dict[Path, ComponentState] = {}
        self.frozen: Set[Path] = set()
        self.buffers: Dict[Path, List[Tuple[int, Token]]] = {}
        #: Components this node split and has not merged back yet
        #: (Section 3.2's merge rule scans this list). Add entries only
        #: through :meth:`record_splits`.
        self.split_registry: Set[Path] = set()
        #: The level estimate the rules last evaluated this node at.
        self.last_level: Optional[int] = None
        #: True while the last rules evaluation here took no action and
        #: deferred nothing, and no input of the rules (components,
        #: frozen set, registry additions) has changed since: with the
        #: level still ``last_level``, evaluating again would do nothing.
        self.settled = False
        #: Hoisted probe of the directory's edge table (one ``dict.get``).
        self._edge_of = system.directory.edge_reader()
        self.cache_hits = 0
        self.cache_misses = 0
        self.tokens_routed = 0

    @property
    def node_id(self) -> int:
        return self.node.node_id

    # ------------------------------------------------------------------
    # component management (called by the reconfiguration layer)
    # ------------------------------------------------------------------
    def install(self, state: ComponentState, frozen: bool = False) -> None:
        path = state.spec.path
        if path in self.components:
            raise ProtocolError("component %r already on node %s" % (path, self.node.name))
        self.components[path] = state
        if frozen:
            self.frozen.add(path)
        self.settled = False

    def remove(self, path: Path) -> ComponentState:
        try:
            state = self.components.pop(path)
        except KeyError:
            raise ProtocolError(
                "component %r not on node %s" % (path, self.node.name)
            ) from None
        self.frozen.discard(path)
        self.settled = False
        return state

    def freeze(self, path: Path) -> None:
        if path not in self.components:
            raise ProtocolError("cannot freeze %r: not hosted here" % (path,))
        self.frozen.add(path)
        self.settled = False

    def unfreeze(self, path: Path) -> None:
        self.frozen.discard(path)
        self.settled = False

    def record_splits(self, paths: Iterable[Path]) -> None:
        """Take on the merge duty for ``paths``: a split made here, a
        leaving node's registry, or an orphan adopted after a crash.
        (Removing an entry creates no work, so it is a plain
        ``split_registry`` update.)"""
        self.split_registry.update(paths)
        self.settled = False

    def drain_buffer(self, path: Path) -> List[Tuple[int, Token]]:
        """Take (and clear) the tokens buffered for a frozen component."""
        return self.buffers.pop(path, [])

    # ------------------------------------------------------------------
    # token plane
    # ------------------------------------------------------------------
    def handle_message(self, message) -> None:
        """A token arrived — it is its own message and names the input
        it is owed to. The single token that dominates uncombined
        traffic is handled in this frame, the component's step included;
        a combined batch (a tuple of tokens) is fed back here one token
        at a time."""
        if message.__class__ is not Token:
            for token in message:
                self.handle_message(token)
            return
        system = self.system
        path, port = message.owed
        message.in_flight = False  # off the bus; owed until its component is found
        state = self.components.get(path)
        if state is None:
            system.reroute_token(path, port, message)
            return
        message.owed = None  # arrived: system._unowe, in this frame
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.owed_delta(-1)
        frozen = self.frozen
        if frozen and path in frozen:
            self.buffers.setdefault(path, []).append((port, message))
            return
        self.tokens_routed += 1
        # ComponentState.route_token, inline (as CutNetwork.feed_token
        # steps its members): the port came off the wiring, so it needs
        # no range check.
        total = state.total
        state.total = total + 1
        arrivals = state.arrivals
        arrivals[port] = arrivals.get(port, 0) + 1
        out_port = total % state.spec.width
        dest = self._edge_of((path, out_port))
        if dest is None:
            self.cache_misses += 1
            dest = system.resolve_edge(state.spec, out_port)
        else:
            self.cache_hits += 1
        if dest[0] == "out":
            system.retire_token(message, state, out_port, dest[1])
        else:
            system.send_token(dest[1], dest[2], message)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def component_count(self) -> int:
        return len(self.components)
