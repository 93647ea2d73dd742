"""Self-stabilising crash recovery (Section 3.4, after [HT03]).

When a node crashes, the components it hosted — and the tokens queued in
them — are gone. Recovery restores the network to a *legal* state (one
reachable by some execution), as self-stabilisation promises; it cannot
resurrect the lost tokens, so the step property is promised only while
none died in a crashed host's buffers (``verify()``; bench C2).

Recovery actions, all local in the sense of the paper:

* every lost component is recreated at its current hash home with state
  reconstructed from its in-neighbours: an in-neighbour's counter says
  exactly how many tokens it emitted toward each input port of the lost
  component (counters emit round-robin, so the per-port emission count
  is a closed form of the total). For input-boundary ports the clients'
  injection ledger plays the in-neighbour role.
* merge responsibility for splits recorded by the crashed node is
  re-assigned: each entry of its split registry that is still split and
  that no surviving node has registered is adopted by the current home
  of its name.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.components import ComponentState, balanced_count_at
from repro.core.decomposition import ComponentSpec
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
        wiring = system.wiring
        current, q = wiring.ascend_input(spec, port, ())
        parent = system.tree.parent(current)
        if parent is None:
            return ("net", q)
        sibling_index, out_port = wiring.sibling_source(parent, current.path[-1], q)
        emitter = parent.child(sibling_index)
        # Descend to the live member actually emitting this wire.
        live = system.directory.live_paths()
        while emitter.path not in live:
            if emitter.is_leaf:
                raise ProtocolError(
                    "no live emitter found for %s port %d" % (spec, port)
                )
            index, out_port = wiring.boundary_source(emitter, out_port)
            emitter = emitter.child(index)
        return ("member", emitter.path, out_port)

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
        when they really arrive. Subtract what the live tokens say is
        still owed (one walk per lost component) so the restored state
        is one the component could actually have reached.
        """
        system = self.system
        path = tuple(path)
        return self.state_from_sources(
            path, system.owed_by_port(path), system._inject_pending, query_cost=2
        )

    def state_from_sources(self, path: Path, owed, pending, query_cost: int):
        """The state of ``path`` that its sources account for: per input
        port, what the in-neighbour's counter (or, for a network input,
        the injection ledger less the ``pending`` lookups on that wire)
        says was emitted toward it, less the ``owed`` not yet arrived.
        Each neighbour read is charged ``query_cost`` control messages.
        """
        system = self.system
        spec = system.tree.node(path)
        arrivals = {}
        for port in range(spec.width):
            source = self.input_source(spec, port)
            if source[0] == "net":
                count = system.injected_per_wire[source[1]] - pending[source[1]]
            else:
                _, emitter_path, out_port = source
                owner = system.directory.owner(emitter_path)
                emitter = system.hosts[owner].components[emitter_path]
                count = balanced_count_at(0, emitter.total, emitter.width, out_port)
                system.stats.control_messages += query_cost
            count -= owed[port]
            if count > 0:
                arrivals[port] = count
        return ComponentState(spec, sum(arrivals.values()), arrivals)

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
        """Re-assign the merge duties the crashed nodes held.

        Every split component has a registrant except between a crash
        and this call: a split registers at the splitter, a leave hands
        the registry to the successor, a merge clears the path and its
        subtree on every host. A crash and the restoration above leave
        the set of split paths as it was, so the orphans are among the
        crashed nodes' own entries: nothing else is read.
        """
        system = self.system
        directory = system.directory
        for path in system.lost_registry:
            if directory.has_live_below(path) and not any(
                path in host.split_registry for host in system.hosts.values()
            ):
                system.hosts[directory.home(path)].record_splits((path,))
                system.stats.control_messages += 1
