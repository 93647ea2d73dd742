"""Node joins and leaves (Section 3.4).

* **Join** — the counting network itself needs no change; only the
  consistent-hash placement shifts: components whose hash point now
  falls on the new node are handed over. (If the system has grown
  enough, the rules engine will later split components — that is a
  separate, rule-driven action.)
* **Graceful leave** — before leaving, the node moves every component it
  hosts to the component's new home (its ring successor), and hands its
  split registry to the successor, which takes over the responsibility
  of merging what the departed node split.
* **Crash** — handled by :mod:`repro.runtime.stabilization`; this module
  only removes the node and reports what was lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.chord.ring import ChordNode
from repro.errors import MembershipError
from repro.runtime.host import NodeHost

Path = Tuple[int, ...]


@dataclass
class CrashReport:
    """What a crash destroyed or disturbed, for the recovery experiment.

    ``disturbed_tokens`` counts tokens that were in flight toward the
    lost components at crash time: they are *not* lost (they retry and
    retire), and reconstruction subtracts them as still owed, so they
    displace nothing. Only ``lost_buffered_tokens`` — tokens that died in
    the crashed host's buffers — can break the step property; while
    there are none, ``verify()`` holds the outputs to it exactly.
    """

    node_id: int
    lost_components: List[Path] = field(default_factory=list)
    lost_buffered_tokens: int = 0
    lost_registry_entries: List[Path] = field(default_factory=list)
    disturbed_tokens: int = 0


class MembershipManager:
    """Ring membership changes wired to the hosting layer."""

    def __init__(self, system):
        self.system = system

    # ------------------------------------------------------------------
    # join
    # ------------------------------------------------------------------
    def join(self, name: Optional[str] = None) -> ChordNode:
        system = self.system
        node = system.ring.join(name)
        host = NodeHost(node, system)
        system.hosts[node.node_id] = host
        system.note_node_joined(node.node_id)
        system.bus.register(node.node_id, host)
        self._rehome_components(node.node_id)
        return node

    def _rehome_components(self, joiner: int) -> None:
        """Move the components whose hash home is now ``joiner``.

        Every component sits at its hash home (``check_consistent``'s
        invariant, which every operation preserves), and a join only
        takes points from the joiner's ring successor, so nobody else
        can lose one: O(components on one host).
        """
        system = self.system
        old_host = system.hosts[system.ring.succ_k(joiner, 1).node_id]
        moves = 0
        for path in sorted(old_host.components):
            home = system.directory.home(path)
            if home == old_host.node_id:
                continue
            moves += 1
            was_frozen = path in old_host.frozen
            buffered = old_host.drain_buffer(path)
            state = old_host.remove(path)
            new_host = system.hosts[home]
            new_host.install(state, frozen=was_frozen)
            if buffered:
                new_host.buffers[path] = buffered
            system.directory.register(path, home)
            system.stats.control_messages += 2  # state transfer + ack
        if moves:
            system.advance(2 * system.control_latency)
            system.stats.handoffs += moves

    # ------------------------------------------------------------------
    # graceful leave
    # ------------------------------------------------------------------
    def leave(self, node_id: int) -> None:
        system = self.system
        if node_id not in system.hosts:
            raise MembershipError("no such node %#x" % node_id)
        if len(system.ring) == 1:
            raise MembershipError("cannot remove the last node")
        host = system.hosts[node_id]
        successor = system.ring.succ_k(node_id, 1)
        system.ring.remove(node_id)
        # Hand split-registry duty to the successor (Section 3.4).
        successor_host = system.hosts[successor.node_id]
        if host.split_registry:
            successor_host.record_splits(host.split_registry)
            system.stats.control_messages += 1
        # Move hosted components to their new homes (the successor, by
        # consistent hashing — recomputed per component for exactness).
        for path in list(host.components):
            was_frozen = path in host.frozen
            buffered = host.drain_buffer(path)
            state = host.remove(path)
            home = system.directory.home(path)
            new_host = system.hosts[home]
            new_host.install(state, frozen=was_frozen)
            if buffered:
                new_host.buffers[path] = buffered
            system.directory.register(path, home)
            system.stats.control_messages += 2
            system.stats.handoffs += 1
        system.bus.unregister(node_id)
        del system.hosts[node_id]
        system.note_node_left(node_id)
        system.advance(2 * system.control_latency)

    # ------------------------------------------------------------------
    # crash
    # ------------------------------------------------------------------
    def crash(self, node_id: int) -> CrashReport:
        system = self.system
        if node_id not in system.hosts:
            raise MembershipError("no such node %#x" % node_id)
        if len(system.ring) == 1:
            raise MembershipError("cannot crash the last node")
        host = system.hosts[node_id]
        report = CrashReport(node_id)
        report.lost_components = sorted(host.components)
        for buffer in host.buffers.values():  # these tokens die with the host
            report.lost_buffered_tokens += len(buffer)
            system.live_tokens.difference_update(token for _port, token in buffer)
        report.lost_registry_entries = sorted(host.split_registry)
        report.disturbed_tokens = system.tokens_in_flight(host.components)
        system.stats.disturbed_tokens += report.disturbed_tokens
        system.ring.remove(node_id)
        system.bus.unregister(node_id)
        for path in report.lost_components:
            system.directory.unregister(path)
        del system.hosts[node_id]
        system.note_node_left(node_id)
        system.stats.crashes += 1
        return report
