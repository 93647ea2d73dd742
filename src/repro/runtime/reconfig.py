"""The split and merge protocols of Section 2.2, over the simulator.

Both wait for an exact point
(:func:`repro.core.splitmerge.transfer_is_exact`): mid-stream a MIX[8]
with 94 tokens in on each input half can have sent 96 and 92 out of its
output halves, where its children would have sent 94 and 94.

Splitting component ``c`` (initiated by its host ``v``):

1. ``v`` freezes ``c`` — arriving tokens are buffered;
2. the child components are created with the exact state transfer of
   :mod:`repro.core.splitmerge` and installed at their hash homes
   (one install + ack round trip per child, modelled as control latency
   and message counts);
3. ``c`` is removed, the split is recorded in ``v``'s split registry,
   and the buffered tokens are forwarded to the children through the
   local input wiring.

Merging ``c``'s subtree (initiated by the node that split ``c``):

1. every live member of the subtree that receives tokens from *outside*
   the subtree (the input boundary — exactly the members whose path
   below ``c`` uses only top/bottom child indices) is frozen;
2. the subtree drains: the protocol waits until no token is in flight
   toward a subtree member, so the subtree is internally quiescent
   (a refinement of the paper's sketch, which buffers at every member;
   draining keeps the merged state exact — see DESIGN.md);
3. live descendant states are collected and folded bottom-up with
   :func:`repro.core.splitmerge.merge_child_states` (the paper's
   recursive merge), the merged component is installed at ``h(c)``, the
   children are removed, and buffered boundary tokens are re-addressed
   to ``c``'s input ports and forwarded (or, if the fold is not exact,
   the boundary thaws and forwards them to the members they came to).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.components import ComponentState
from repro.core.decomposition import ComponentSpec
from repro.core.splitmerge import merge_child_states, split_child_states, transfer_is_exact
from repro.errors import ComponentNotFound, ProtocolError
from repro.runtime.host import NodeHost
from repro.staticcheck.cuts import validate_merge, validate_split

Path = Tuple[int, ...]


class Reconfigurator:
    """Executes split/merge protocols against the running system."""

    def __init__(self, system):
        self.system = system

    # ------------------------------------------------------------------
    # split
    # ------------------------------------------------------------------
    def split(self, path: Path) -> List[Path]:
        """Split the live component at ``path``; returns the child paths,
        or ``[]`` (and changes nothing) if the transfer is not exact."""
        system = self.system
        path = tuple(path)
        owner = system.directory.owner(path)
        host: NodeHost = system.hosts[owner]
        state = host.components.get(path)
        if state is None:
            raise ProtocolError("directory says %r is on %s, but it is not" % (path, owner))
        # Static gate (repro.staticcheck): reject the reconfiguration up
        # front — target not live, not a component, or a balancer —
        # before any freeze or state transfer happens.
        validate_split(system.tree, system.directory.live_paths(), path)
        spec = state.spec
        children = split_child_states(system.wiring, spec, state.arrivals)
        if state.total and not transfer_is_exact(system.wiring, spec, state.total, children):
            return []
        host.freeze(path)
        # One install + ack round trip per child, concurrently.
        system.stats.control_messages += 2 * len(children)
        system.advance(2 * system.control_latency)
        new_paths: List[Path] = []
        for child_state in children:
            child_path = child_state.spec.path
            home = system.directory.home(child_path)
            system.hosts[home].install(child_state)
            system.directory.register(child_path, home)
            new_paths.append(child_path)
        host.remove(path)
        system.directory.unregister(path)
        host.record_splits((path,))
        system.stats.splits += 1
        # Forward the tokens buffered while frozen into the children.
        for port, token in host.drain_buffer(path):
            ref = system.wiring.parent_input_dest(spec, port)
            system.send_token(spec.child(ref.child).path, ref.port, token)
        return new_paths

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def input_boundary(self, path: Path, subtree: List[Path]) -> List[Path]:
        """The subtree members that receive tokens from outside it:
        those with an input port that climbs the input wiring to
        ``path`` (for the bitonic tree, exactly the top/bottom indices
        0 and 1 all the way; asked of the wiring so the merge protocol
        works for any recursive structure)."""
        tree, wiring = self.system.tree, self.system.wiring
        path = tuple(path)
        return [m for m in subtree if wiring.is_input_boundary(tree.node(m), path)]

    def merge(self, path: Path, initiator: NodeHost) -> Optional[Path]:
        """Merge the live subtree below ``path`` back into one component;
        returns ``path``, or ``None`` if the fold is not exact."""
        system = self.system
        path = tuple(path)
        if system.directory.is_live(path):
            initiator.split_registry.discard(path)
            return path
        subtree = system.directory.live_descendants(path)
        if not subtree:
            raise ComponentNotFound("nothing to merge at %r" % (path,))
        # Static gate (repro.staticcheck): the live descendants must
        # partition the subtree exactly, or the folded counter state
        # would misaccount past tokens (token conservation).
        validate_merge(system.tree, system.directory.live_paths(), path)
        # Phase 1: freeze the input boundary (one message per member).
        boundary = self.input_boundary(path, subtree)
        system.stats.control_messages += len(boundary)
        for member in boundary:
            system.hosts[system.directory.owner(member)].freeze(member)
        system.advance(system.control_latency)
        # Phase 2: drain in-flight tokens headed into the subtree.
        system.drain_paths(set(subtree))
        # Phase 3: collect states, fold bottom-up, install the parent.
        system.stats.control_messages += 2 * len(subtree)
        hosts = {member: system.hosts[system.directory.owner(member)] for member in subtree}
        merged = self._fold(
            system.tree.node(path),
            {member: host.components[member] for member, host in hosts.items()},
        )
        if merged is None:
            for member in boundary:
                hosts[member].unfreeze(member)
                for port, token in hosts[member].drain_buffer(member):
                    system.send_token(member, port, token)
            return None
        buffered: List[Tuple[Path, int, object]] = []
        for member, owner_host in hosts.items():
            for port, token in owner_host.drain_buffer(member):
                buffered.append((member, port, token))
            owner_host.remove(member)
            system.directory.unregister(member)
        system.advance(2 * system.control_latency)
        home = system.directory.home(path)
        system.hosts[home].install(merged)
        system.directory.register(path, home)
        # The split of ``path``, and any sub-split bookkeeping inside
        # the subtree, is now moot on every host.
        moot = {path, *subtree}
        for host in system.hosts.values():
            host.split_registry.difference_update(moot)
        system.stats.merges += 1
        # Phase 4: re-address buffered boundary tokens to the parent.
        # ``path`` is live again, so the wiring resolves each one to it
        # (and raises for a token that was not externally fed).
        for member, port, token in buffered:
            _, _, parent_port = system.wiring.resolve_input(
                system.tree.node(member), port, system.directory.live_paths()
            )
            system.send_token(path, parent_port, token)
        return path

    def _fold(
        self, spec: ComponentSpec, states: Dict[Path, ComponentState]
    ) -> Optional[ComponentState]:
        """Recursively merge collected states up to ``spec``; ``None`` if
        the transfer at some level is not exact."""
        if spec.path in states:
            return states[spec.path]
        child_states = []
        for child in spec.children():
            state = self._fold(child, states)
            if state is None:
                return None
            child_states.append(state)
        merged = merge_child_states(self.system.wiring, spec, child_states)
        exact = transfer_is_exact(self.system.wiring, spec, merged.total, child_states)
        return merged if exact else None
