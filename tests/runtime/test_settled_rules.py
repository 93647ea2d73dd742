"""Differential oracle: a rules round that skips settled hosts is exact.

``RulesEngine.evaluate`` returns at once for a settled host (its last
evaluation did nothing, nothing the rules read has changed, and its
level is the same or it has nothing to split or merge). :func:`scan_converge`
is ``converge()`` as it was before that check: every host evaluated in
every round. Twin systems built alike and driven through the same
seeded grows, leaves and crashes — with tokens in flight, so splits and
merges defer — must agree after every call on the round count, the
owner map, each host's components, frozen set and registry, and
``SystemStats``.
"""

import random

import pytest

from repro.errors import ProtocolError
from repro.runtime.combining import CombiningConfig
from repro.runtime.reconfig import Reconfigurator
from repro.runtime.system import AdaptiveCountingSystem
from repro.sim.latency import UniformLatency


def scan_converge(system, max_rounds=64):
    """``converge()`` with no settled skip: each host evaluated afresh."""
    for round_index in range(max_rounds):
        actions = 0
        for node_id in sorted(system.hosts):
            host = system.hosts.get(node_id)
            if host is not None:
                host.settled = False
                actions += system.rules.evaluate(host)
        system.run_until_quiescent()
        if actions == 0:
            return round_index + 1
    raise ProtocolError("rules did not converge within %d rounds" % max_rounds)


def state_of(system):
    directory = system.directory
    return (
        {path: directory.owner(path) for path in directory.live_paths()},
        {
            node_id: (dict(host.components), set(host.frozen), set(host.split_registry))
            for node_id, host in system.hosts.items()
        },
        system.stats,
    )


def drive_twins(seed, hysteresis, combining, auto_stabilize, operations=90):
    """Grow from 8 to about 200 nodes, then leave and crash back down,
    converging both twins after most operations. Returns the real twin
    and how many of its hosts a merge over a crash hole left waiting."""
    real, scan = (
        AdaptiveCountingSystem(
            width=64,
            seed=seed,
            initial_nodes=8,
            latency=UniformLatency(0.5, 2.0, random.Random(seed)),
            hysteresis=hysteresis,
            combining=combining,
            auto_stabilize=auto_stabilize,
        )
        for _ in range(2)
    )
    twins = (real, scan)
    rng = random.Random(seed)

    def converge():
        assert real.converge() == scan_converge(scan)
        assert state_of(real) == state_of(scan)

    converge()
    waiting = 0
    for step in range(operations):
        growing = step < operations // 2
        tokens, burst = rng.randrange(64), rng.randrange(1, 8)
        crash = not growing and rng.random() < 0.4
        for system in twins:
            system.advance(1.0)
            for _ in range(tokens):
                system.inject_token()  # in flight when the rules run
            if growing:
                for _ in range(burst):
                    system.add_node()
            else:
                for _ in range(min(burst, system.num_nodes - 9)):
                    system.remove_node()
            if crash and system.num_nodes > 8:
                if not auto_stabilize:
                    # A token dropped at a hole would leave a subtree
                    # whose fold is never exact: let none reach one.
                    system.run_until_quiescent()
                system.crash_node()
        if crash and not auto_stabilize:
            converge()  # over the crash hole: a merge above it waits
            waiting += sum(not host.settled for host in real.hosts.values())
            for system in twins:
                system.stabilize()
        if rng.random() < 0.8:
            converge()
    for system in twins:
        system.run_until_quiescent()
    converge()
    return real, waiting


@pytest.mark.parametrize("auto_stabilize", [True, False], ids=["recover", "holes"])
@pytest.mark.parametrize(
    "combining", [None, CombiningConfig(window=1.0)], ids=["plain", "combining"]
)
@pytest.mark.parametrize("hysteresis", [0, 1])
def test_settled_rounds_equal_the_full_scan(
    hysteresis, combining, auto_stabilize, monkeypatch
):
    deferred = []
    split = Reconfigurator.split

    def recorded_split(self, path):
        children = split(self, path)
        if not children:
            deferred.append(path)
        return children

    monkeypatch.setattr(Reconfigurator, "split", recorded_split)
    system, waiting = drive_twins(15, hysteresis, combining, auto_stabilize)
    # The run met what the settled check must not skip past.
    assert deferred and system.stats.merges and system.stats.crashes
    assert waiting if not auto_stabilize else not waiting
    system.directory.check_consistent()
