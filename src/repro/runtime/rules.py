"""The decentralised splitting/merging rules of Section 3.2.

Each node ``v`` maintains the local invariant: *every component residing
on ``v`` is at level >= ell_v* (its level estimate).

* **Splitting rule** — split every hosted component whose level is below
  ``ell_v`` (recursively: freshly created children may hash back to
  ``v`` and still violate the invariant).
* **Merging rule** — ``v`` reconsiders its past splits: for every entry
  ``c`` in its split registry, if ``level(c) >= ell_v`` the split is no
  longer required and ``v`` initiates the merge of ``c``. The paper
  triggers this check when ``ell_v`` decreases; we additionally run it
  on every evaluation of an unsettled host (registry entries inherited
  from departed nodes would otherwise linger), and the ``hysteresis``
  parameter widens the merge threshold for the ablation experiment
  (merge only when ``level(c) >= ell_v + hysteresis``). A merge over a
  crash hole waits for recovery to fill it.

Both rules read only the host's components, frozen set, split registry
and ``ell_v``. So a host whose last evaluation did nothing is *settled*
(``NodeHost.settled``) until one of those changes, and evaluating it
again costs one level probe, or none if it hosts nothing and holds no
duty: an evaluation that took no action has already dropped every stale
registry entry, so it would take none again.
"""

from __future__ import annotations

from typing import Tuple

from repro.chord.estimation import LevelEstimator
from repro.errors import ComponentNotFound
from repro.runtime.host import NodeHost


class RulesEngine:
    """Evaluates the Section 3.2 rules for one node at a time."""

    def __init__(self, system, hysteresis: int = 0):
        if hysteresis < 0:
            raise ValueError("hysteresis must be nonnegative")
        self.system = system
        self.hysteresis = hysteresis
        # One estimator for the engine's lifetime: it reads the live
        # ring by reference, and caching it keeps the precomputed phi
        # table out of the per-node evaluation path.
        self._estimator = LevelEstimator(
            system.width, system.ring, system.step_multiplier, tree=system.tree
        )

    def node_level(self, host: NodeHost) -> int:
        """The node's current level estimate ``ell_v`` (Section 3.1)."""
        return self._estimator.level_estimate(host.node_id)

    def evaluate(self, host: NodeHost) -> int:
        """Apply both rules at ``host``; returns the number of actions,
        deferred splits and merges included (a merge waiting on a crash
        hole is not one: it leaves the host unsettled instead)."""
        if host.settled and not (host.components or host.split_registry):
            return 0  # nothing to split or merge at any level
        level = self.node_level(host)
        if host.settled and level == host.last_level:
            return 0
        host.last_level = level
        actions = 0
        waiting = False
        # Splitting rule: enforce the invariant, recursively.
        progressed = True
        while progressed:
            progressed = False
            for path in sorted(host.components):
                state = host.components[path]
                if (
                    len(path) < level
                    and not state.spec.is_leaf
                    and path not in host.frozen
                ):
                    actions += 1
                    if self.system.reconfig.split(path):
                        progressed = True
                        break  # the component map changed; rescan
        # Merging rule: reconsider earlier splits.
        lost = self.system.lost_components
        for path in sorted(host.split_registry, key=len, reverse=True):
            if len(path) >= level + self.hysteresis:
                if lost and any(
                    len(hole) > len(path) and hole[: len(path)] == path
                    for hole in lost
                ):
                    # Part of the subtree is a crash hole: its state is
                    # gone until stabilize() rebuilds it, so keep the
                    # duty and retry on a later evaluation.
                    waiting = True
                    continue
                try:
                    self.system.reconfig.merge(path, host)
                    actions += 1
                except ComponentNotFound:
                    # The subtree vanished (e.g. merged away by a wider
                    # merge); drop the stale registry entry.
                    host.split_registry.discard(path)
        host.settled = not actions and not waiting
        return actions
