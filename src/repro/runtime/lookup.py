"""Finding an input component (Section 3.5).

A client that wants to inject a token on network input wire ``i`` picks
the input balancer leaf that would own the wire in the fully-split
network and walks up the ancestor chain — at most ``log w - 1`` names —
until a name resolves to a live component. Each name resolution is a
DHT lookup, whose hop count we also report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.chord.fingers import lookup as chord_lookup
from repro.errors import ComponentNotFound

Path = Tuple[int, ...]


@dataclass(frozen=True)
class LookupResult:
    """Outcome of one input-component lookup."""

    path: Path
    port: int
    tries: int  # names tried (paper bound: log w - 1)
    dht_hops: int  # total Chord routing hops over all tries


class InputLookup:
    """Client-side lookup against the live directory."""

    def __init__(self, system):
        self.system = system
        #: wire -> input leaf. The mapping is a property of the fixed
        #: tree/wiring, so it is computed once per wire, not per token.
        self._leaves: dict = {}
        #: wire -> (directory generation, path, port, tries, hash point).
        #: A resolved lookup stays valid until the deployed cut changes
        #: (the directory generation stamp moves), so repeat injections
        #: on a wire skip the ancestor walk — the same remember-your-
        #: out-neighbour caching Section 3.5 applies on the token plane,
        #: applied at the client. DHT hops are still counted per call by
        #: routing to the remembered component's hash point.
        self._resolved: dict = {}

    def _input_leaf(self, wire: int):
        """:meth:`WiringBase.input_leaf`, memoised per wire."""
        leaf = self._leaves.get(wire)
        if leaf is None:
            leaf = self._leaves[wire] = self.system.wiring.input_leaf(wire)
        return leaf

    def find(self, wire: int, start_node_id: int = None) -> LookupResult:
        """Locate the live component accepting network input ``wire``."""
        system = self.system
        tree = system.tree
        generation = system.directory.generation
        cached = self._resolved.get(wire)
        if cached is not None and cached[0] == generation:
            _, path, port, tries, point = cached
            hops = 0
            if start_node_id is not None and len(system.ring) > 0:
                _owner, hops = chord_lookup(system.ring, start_node_id, point)
            return LookupResult(path, port, tries, hops)
        spec = self._input_leaf(wire)
        tries = 0
        hops = 0
        while True:
            tries += 1
            if start_node_id is not None and len(system.ring) > 0:
                _owner, step_hops = chord_lookup(
                    system.ring, start_node_id, system.directory.hash_point(spec.path)
                )
                hops += step_hops
            if system.directory.is_live(spec.path):
                break
            parent = tree.parent(spec)
            if parent is None:
                raise ComponentNotFound(
                    "no live component on the ancestor chain of wire %d" % wire
                )
            spec = parent
        member, port = system.wiring.resolve_network_input(
            wire, system.directory.live_paths()
        )
        if member.path != spec.path:
            raise ComponentNotFound(
                "directory changed during lookup of wire %d" % wire
            )
        self._resolved[wire] = (
            generation,
            member.path,
            port,
            tries,
            system.directory.hash_point(member.path),
        )
        return LookupResult(member.path, port, tries, hops)
