"""Self-stabilising crash recovery (Section 3.4, after [HT03]).

When a node crashes, the components it hosted — and the tokens queued in
them — are gone. Recovery restores the network to a *legal* state (one
reachable by some execution), as self-stabilisation promises; it cannot
resurrect the lost tokens, so the quiescent output distribution may
afterwards be imbalanced by up to the number of lost tokens — the crash
benchmark measures exactly this gap.

Recovery actions, all local in the sense of the paper:

* every lost component is recreated at its current hash home with state
  reconstructed from its in-neighbours: an in-neighbour's counter says
  exactly how many tokens it emitted toward each input port of the lost
  component (counters emit round-robin, so the per-port emission count
  is a closed form of the total). For input-boundary ports the clients'
  injection ledger plays the in-neighbour role.
* merge responsibility for splits recorded by the crashed node is
  re-assigned: any non-live component with live descendants and no
  registered splitter is adopted by the current home of its name.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.components import ComponentState, balanced_count_at
from repro.core.decomposition import ComponentSpec
from repro.core.wiring import BoundaryRef, PortRef
from repro.errors import ProtocolError

Path = Tuple[int, ...]


class Stabilizer:
    """Rebuilds lost components and merge duties after crashes."""

    def __init__(self, system):
        self.system = system

    # ------------------------------------------------------------------
    # source tracing
    # ------------------------------------------------------------------
    def input_source(self, spec: ComponentSpec, port: int):
        """Who feeds (``spec``, input ``port``): ``("net", wire)`` for a
        network input, else ``("member", path, out_port)`` naming the
        live emitter."""
        system = self.system
        tree = system.tree
        wiring = system.wiring
        current, q = spec, port
        while True:
            parent = tree.parent(current)
            if parent is None:
                return ("net", q)
            source_port = wiring.parent_input_source(parent, current.path[-1], q)
            if source_port is not None:
                current, q = parent, source_port
                continue
            sibling_index, out_port = self._crossing_source(parent, current.path[-1], q)
            emitter = parent.child(sibling_index)
            # Descend to the live member actually emitting this wire.
            live = system.directory.live_paths()
            while emitter.path not in live:
                if emitter.is_leaf:
                    raise ProtocolError(
                        "no live emitter found for %s port %d" % (spec, port)
                    )
                emitter, out_port = self._boundary_output_source(emitter, out_port)
            return ("member", emitter.path, out_port)

    def _crossing_source(self, parent: ComponentSpec, child_index: int, port: int):
        """Which sibling output feeds (``child_index``, ``port``) inside
        ``parent`` (inverse of ``child_output_dest`` for internal wires)."""
        wiring = self.system.wiring
        children = parent.children()
        for sibling in range(parent.num_children()):
            if sibling == child_index:
                continue
            for out_port in range(children[sibling].width):
                dest = wiring.child_output_dest(parent, sibling, out_port)
                if (
                    isinstance(dest, PortRef)
                    and dest.child == child_index
                    and dest.port == port
                ):
                    return sibling, out_port
        raise ProtocolError(
            "no sibling feeds child %d port %d of %s" % (child_index, port, parent)
        )

    def _boundary_output_source(self, parent: ComponentSpec, port: int):
        """Which child output becomes ``parent``'s boundary output ``port``
        (inverse of ``child_output_dest`` for boundary wires)."""
        wiring = self.system.wiring
        for index, child in enumerate(parent.children()):
            for out_port in range(child.width):
                dest = wiring.child_output_dest(parent, index, out_port)
                if isinstance(dest, BoundaryRef) and dest.port == port:
                    return child, out_port
        raise ProtocolError(
            "no child emits boundary port %d of %s" % (port, parent)
        )

    # ------------------------------------------------------------------
    # reconstruction
    # ------------------------------------------------------------------
    def reconstruct(self, path: Path) -> ComponentState:
        """Rebuild a lost component's state from its neighbours.

        An in-neighbour's counter says how many tokens it emitted toward
        each input port — but emitted is not arrived. Tokens still on
        the bus, bounced and awaiting a retry, or (for network inputs)
        stuck in an injection-retry loop were counted by their source
        and have *not* been routed by the lost component; counting them
        as arrivals would advance the reconstructed round-robin pointer
        past phantom tokens and permanently skew the output distribution
        when they really arrive. Subtract the owed ledger so the
        restored state is one the component could actually have reached.
        """
        system = self.system
        spec = system.tree.node(tuple(path))
        arrivals = {}
        for port in range(spec.width):
            source = self.input_source(spec, port)
            if source[0] == "net":
                count = (
                    system.injected_per_wire[source[1]]
                    - system._inject_pending[source[1]]
                )
            else:
                _, emitter_path, out_port = source
                owner = system.directory.owner(emitter_path)
                emitter = system.hosts[owner].components[emitter_path]
                count = balanced_count_at(0, emitter.total, emitter.width, out_port)
                system.stats.control_messages += 2  # query + reply
            count -= system.tokens_owed(path, port)
            if count > 0:
                arrivals[port] = count
        total = sum(arrivals.values())
        return ComponentState(spec, total, arrivals)

    def stabilize(self) -> List[Path]:
        """Recreate every directory-lost component; returns their paths.

        Components lost to crashes are exactly the cut holes: paths that
        must be live for the directory to be a valid cut again. We
        recover each at the level it had when it was lost (neighbour
        caches remember who they were talking to).
        """
        system = self.system
        restored: List[Path] = []
        for path in self._missing_paths():
            state = self.reconstruct(path)
            home = system.directory.home(path)
            system.hosts[home].install(state)
            system.directory.register(path, home)
            restored.append(path)
            system.stats.control_messages += 2
            system.stats.recoveries += 1
        if restored:
            system.advance(2 * system.control_latency)
        self._adopt_orphan_merges()
        return restored

    def _missing_paths(self) -> List[Path]:
        """The holes in the deployed cut (lost components), recorded by
        the membership layer when the crash happened."""
        return sorted(self.system.lost_components)

    def _adopt_orphan_merges(self) -> None:
        """Ensure every split component still has a responsible merger."""
        system = self.system
        registered = set()
        for host in system.hosts.values():
            registered.update(host.split_registry)
        live = system.directory.live_paths()
        # Non-live ancestors of live members are exactly the split
        # components awaiting a merge decision.
        split_paths = set()
        for path in live:
            for end in range(len(path)):
                split_paths.add(path[:end])
        for path in sorted(split_paths - registered, key=len):
            home = system.directory.home(path)
            system.hosts[home].split_registry.add(path)
            system.stats.control_messages += 1
