"""Self-stabilising state audit (Section 3.4, after [HT03]).

The paper: "If the network was reset to an illegal state by a fault,
then it will recover to reach a legal state, through local stabilization
actions." [HT03] shows how to make balancing networks self-stabilising;
the paper notes the technique "can be easily extended to the more
general components".

Our components admit exactly that extension, because a component's
legal state is *locally checkable*: at quiescence, a component's counter
must equal the number of tokens its in-neighbours ever emitted toward it
(a closed form of their counters, plus the clients' injection ledger for
input-boundary ports). The audit visits each component, recomputes that
expectation from its in-neighbours (the same tracing machinery crash
recovery uses), and overwrites any disagreeing state — a per-component
local action.

Guarantees (mirrored in the bench):

* a *sound* network passes the audit untouched (no false repairs);
* after arbitrary counter corruption, one audit pass restores a legal
  state: every subsequent token is routed as if the corruption never
  happened, and the residual output imbalance is bounded by the number
  of tokens mis-routed while corrupted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.components import ComponentState

Path = Tuple[int, ...]


@dataclass
class AuditReport:
    """What one audit pass found and fixed."""

    components_checked: int = 0
    repaired: List[Path] = field(default_factory=list)
    messages: int = 0

    @property
    def clean(self) -> bool:
        return not self.repaired


class StateAuditor:
    """Audits and repairs component states against their in-neighbours."""

    def __init__(self, system):
        self.system = system

    def expected_state(self, path: Path) -> ComponentState:
        """The state a component must have at quiescence, derived purely
        from its in-neighbours and the client injection ledger."""
        nothing = Counter()  # at quiescence nothing is owed or pending
        return self.system.stabilizer.state_from_sources(
            tuple(path), nothing, nothing, query_cost=0
        )

    def audit(self, repair: bool = True) -> AuditReport:
        """Check every live component; optionally repair mismatches.

        Components are visited in topological order of the member graph
        so an upstream repair is in place before its downstream
        neighbours are checked against it.
        """
        system = self.system
        report = AuditReport()
        snapshot = system.snapshot_network()
        for path in snapshot.topological_order():
            report.components_checked += 1
            report.messages += 2  # neighbour queries, round trip
            owner = system.directory.owner(path)
            actual = system.hosts[owner].components[path]
            expected = self.expected_state(path)
            if actual.total != expected.total or actual.arrivals != expected.arrivals:
                report.repaired.append(path)
                if repair:
                    actual.total = expected.total
                    actual.arrivals = dict(expected.arrivals)
        if report.repaired:
            system.stats.control_messages += report.messages
        return report


def corrupt_components(system, rng, count: int) -> List[Path]:
    """Fault injection: scramble the counters of ``count`` random live
    components (the [Dij74]-style transient fault the paper considers).
    Returns the corrupted paths."""
    paths = sorted(system.directory.live_paths())
    rng.shuffle(paths)
    victims = paths[: min(count, len(paths))]
    for path in victims:
        owner = system.directory.owner(path)
        state = system.hosts[owner].components[path]
        state.total = rng.randrange(0, max(4 * state.width, state.total + 1))
        if state.arrivals and rng.random() < 0.5:
            port = rng.choice(sorted(state.arrivals))
            state.arrivals[port] = rng.randrange(0, state.arrivals[port] + 3)
    return victims
