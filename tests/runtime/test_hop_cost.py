"""A hop costs a counter step and a message — as counts, not seconds.

The default hop is one Python frame per layer: ``_run`` pops the
arrival -> ``Envelope.arrive`` (one mailbox probe, the service slot,
``Simulator.claim_inline_slot``, the envelope back on its freelist) ->
``NodeHost.handle_message`` (the component's mod-k step inline) ->
``AdaptiveCountingSystem.send_token`` -> ``MessageBus.send`` (an
envelope off the freelist, the latency model's ``sample``) ->
``Simulator.schedule_at_pooled`` (a handle off the freelist, the
insert). An arrival that shares its instant with other events is
delivered in its own pop too: only a positive service time (or a spent
``max_events`` budget) adds ``Envelope.deliver``, which re-enters
``arrive``, and a second ``schedule_at_pooled``. No ledger is
kept: the tokens say what is owed. These gates hold both halves of that
trade with ``sys.setprofile`` event counts, which repeat exactly on any
runner and on Python 3.9 to 3.13: a hop makes few calls, and none into
``ComponentState.route_token``, ``AtomicCounter.increment`` or a
ledger; the readers that replaced the ledgers walk the live tokens once
per lost component at recovery and never on the hop.
"""

import sys
from random import Random

import pytest

from repro.core.atomics import AtomicCounter, TokenLedger
from repro.core.components import ComponentState
from repro.runtime.host import NodeHost
from repro.runtime.system import AdaptiveCountingSystem
from repro.sim.events import Simulator
from repro.sim.latency import DiscreteLatency
from repro.sim.node import Envelope, MessageBus

LEDGER_CODE = {TokenLedger.post.__code__, TokenLedger.settle.__code__}
#: Frames a hop must never enter.
OFF_HOP_CODE = LEDGER_CODE | {ComponentState.route_token.__code__}
#: The hop's own frames, which may not call ``AtomicCounter.increment``
#: (a token's injection and retirement may: they are not a hop).
HOP_CODE = {
    Envelope.arrive.__code__,
    Envelope.deliver.__code__,
    NodeHost.handle_message.__code__,
    AdaptiveCountingSystem.send_token.__code__,
    MessageBus.send.__code__,
    Simulator.schedule_at_pooled.__code__,
    Simulator.claim_inline_slot.__code__,
}
INCREMENT_CODE = AtomicCounter.increment.__code__


class WalkCountingSet(set):
    """A live-token set that counts how often it is iterated."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def warm_system(latency=None):
    system = AdaptiveCountingSystem(width=16, seed=3, initial_nodes=256, latency=latency)
    system.converge()
    for _ in range(64):  # warm up: every edge resolved, both pools filled
        system.inject_token()
    system.run_until_quiescent()
    system.live_tokens = WalkCountingSet(system.live_tokens)
    return system


@pytest.fixture
def system():
    return warm_system()


def steady_tokens(system, tokens=500):
    for _ in range(tokens):
        system.advance(0.1)
        system.inject_token()
    system.run_until_quiescent()


def burst_tokens(system, instants=20, burst=25):
    """Same-instant bursts: an arrival shares its instant with others
    (its delivery queued behind them until deliveries ran on arrival)."""
    for _ in range(instants):
        system.advance(1.0)
        for _ in range(burst):
            system.inject_token()
    system.run_until_quiescent()


def profile_hops(system, drive):
    """Per hop: Python and C calls; and the calls the hop must not make."""
    counts = {"call": 0, "c_call": 0, "ledger": 0, "off_hop": 0, "increment_on_hop": 0}

    def profiler(frame, event, _arg):
        if event in counts:
            counts[event] += 1
            if event == "call":
                code = frame.f_code
                if code in LEDGER_CODE:
                    counts["ledger"] += 1
                if code in OFF_HOP_CODE:
                    counts["off_hop"] += 1
                if code is INCREMENT_CODE and frame.f_back.f_code in HOP_CODE:
                    counts["increment_on_hop"] += 1

    hops_before = system.token_stats.total_hops.get()
    sys.setprofile(profiler)
    try:
        drive(system)
    finally:
        sys.setprofile(None)
    hops = system.token_stats.total_hops.get() - hops_before
    system.verify()
    assert hops >= 500 * 10  # BITONIC[16] fully split: 10 balancers a token
    assert counts["ledger"] == counts["off_hop"] == counts["increment_on_hop"] == 0
    assert system.live_tokens.walks == 0  # nothing reads the ledger on the hop
    return counts["call"] / hops, counts["c_call"] / hops


def test_calls_per_hop(system):
    calls, c_calls = profile_hops(system, steady_tokens)
    # Before PR 20: 38.5 Python calls, 31.8 C calls, 6 ledger calls a hop;
    # 18.51 until ``ComponentState.total`` became the int it wrapped
    # (17.31); 16.21 once ``NodeHost.tokens_routed`` (one call a hop)
    # and ``_token_counter`` (one a token) were ints too; 10.21 Python
    # and 15.57 C calls since one frame a layer (the mailbox bus, the
    # bare event handle and the host's inline step).
    assert calls <= 12
    assert c_calls <= 17


def test_calls_per_queued_hop():
    system = warm_system(DiscreteLatency([0.5, 1.0, 2.0], Random(7)))
    calls, c_calls = profile_hops(system, burst_tokens)
    # 21.72 Python and 29.92 C calls before one frame a layer; 14.72
    # and 25.92 after; 9.72 and 16.92 (16.82 on 3.9) since a zero-service
    # arrival is delivered in its own pop and ``DiscreteLatency`` draws
    # in its own frame.
    assert calls <= 10
    assert c_calls <= 18


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
