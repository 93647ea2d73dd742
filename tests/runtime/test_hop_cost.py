"""A hop costs a counter step and a message — as counts, not seconds.

The default hop is one Python frame per stage (``_run`` pops ->
``Envelope.arrive`` -> ``NodeHost.handle_message`` ->
``ComponentState.route_token`` -> ``send_token`` -> ``MessageBus.send``
-> ``Simulator.schedule_pooled``) and keeps no ledger: the tokens say
what is owed. These gates hold both halves of that trade with
``sys.setprofile`` event counts, which repeat exactly on any runner: a
hop makes few calls and no ledger call, and the readers that replaced
the ledgers walk the live tokens once per lost component at recovery
and never on the hop.
"""

import sys

import pytest

from repro.core.atomics import TokenLedger
from repro.runtime.system import AdaptiveCountingSystem

LEDGER_CODE = {TokenLedger.post.__code__, TokenLedger.settle.__code__}


class WalkCountingSet(set):
    """A live-token set that counts how often it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.fixture
def system():
    system = AdaptiveCountingSystem(width=16, seed=3, initial_nodes=256)
    system.converge()
    for _ in range(64):  # warm up: every edge resolved, both pools filled
        system.inject_token()
    system.run_until_quiescent()
    system.live_tokens = WalkCountingSet(system.live_tokens)
    return system


def steady_tokens(system, tokens=500):
    for _ in range(tokens):
        system.advance(0.1)
        system.inject_token()
    system.run_until_quiescent()


def test_calls_per_hop(system):
    counts = {"call": 0, "c_call": 0, "ledger": 0}

    def profiler(frame, event, _arg):
        if event in counts:
            counts[event] += 1
            if event == "call" and frame.f_code in LEDGER_CODE:
                counts["ledger"] += 1

    hops_before = system.token_stats.total_hops.get()
    sys.setprofile(profiler)
    try:
        steady_tokens(system)
    finally:
        sys.setprofile(None)
    hops = system.token_stats.total_hops.get() - hops_before
    system.verify()
    assert hops >= 500 * 10  # BITONIC[16] fully split: 10 balancers a token
    # Before PR 20: 38.5 Python calls, 31.8 C calls, 6 ledger calls a hop;
    # 18.51 until ``ComponentState.total`` became the int it wrapped
    # (17.31); 16.21 since ``NodeHost.tokens_routed`` (one call a hop)
    # and ``_token_counter`` (one a token) are ints too.
    assert counts["call"] / hops <= 17
    assert counts["c_call"] / hops <= 24
    assert counts["ledger"] == 0
    assert system.live_tokens.walks == 0  # nothing reads the ledger on the hop


def test_recovery_walks_the_live_tokens_once_per_lost_component(system):
    system.auto_stabilize = False
    for _ in range(40):  # tokens in flight while nodes crash
        system.inject_token()
    system.advance(2.0)
    crashes = 0
    while len(system.lost_components) < 3:
        system.crash_node()
        crashes += 1
    assert system.live_tokens.walks == crashes  # one walk a crash report
    lost = len(system.lost_components)
    system.live_tokens.walks = 0
    assert len(system.stabilize()) == lost
    assert system.live_tokens.walks == lost  # not one per input port
    system.run_until_quiescent()
    assert not system.live_tokens
