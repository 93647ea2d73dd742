"""Differential oracle: the tokens are the ledger the parent kept in dicts.

Until PR 20 every hop posted and settled two ledgers on the system
(``_owed``: (path, port) -> tokens emitted toward that input that have
not arrived; ``_inflight``: path -> tokens on the bus toward it). The
tokens themselves now carry that state (``Token.owed``,
``Token.in_flight``) and recovery reads it off ``system.live_tokens``.

:class:`ShadowLedgers` is the parent's bookkeeping moved here verbatim —
``_owe`` / ``_unowe`` / ``note_token_arrived`` on ledgers of its own —
and :class:`ShadowedSystem` drives it from wrappers at exactly the
points the parent did: dispatch, arrival, bounce, drop, and (through
``_owe``'s move) reroute. One rule differs from the parent's, on purpose:
an arrival takes the token off the bus at whichever host it reaches, but
settles its debt only where the component (or its frozen buffer) is — a
token that reached a stale home stays owed through its retry wait, or a
``reconstruct()`` in that window would count it as arrived (ROADMAP item
1(a)). After every membership operation of two seeded
churn runs with tokens in flight the public readers must agree with the
shadow, each crash report must count the disturbed tokens the shadow
counts, and the invariant the deletion rests on must hold: *a token on
the bus is owed to exactly the address it travels to*.
"""

import random

import pytest

from repro.core.atomics import TokenLedger
from repro.runtime.combining import CombiningConfig
from repro.runtime.host import NodeHost
from repro.runtime.system import AdaptiveCountingSystem
from repro.runtime.tokens import Token


class ShadowLedgers:
    """The parent's ledgers and the three methods that kept them;
    ``key_of`` stands in for the ``Token.owed`` field they updated."""

    def __init__(self):
        self._inflight = TokenLedger()
        self._owed = TokenLedger()
        self.key_of = {}
        self.moves = 0  # debts a reroute moved (coverage, not bookkeeping)

    def _owe(self, path, port, token):
        key = (path, port)
        if self.key_of.get(token) == key:
            return
        self.moves += token in self.key_of
        self._unowe(token)
        self.key_of[token] = key
        self._owed.post(key)

    def _unowe(self, token):
        key = self.key_of.pop(token, None)
        if key is None:
            return
        self._owed.settle(key)

    def note_token_arrived(self, path):
        # The parent clamped at zero here; a clamp would mean an arrival
        # nobody dispatched, which the oracle should not paper over.
        assert self._inflight.settle(path) >= 0


def tokens_of(message):
    """(path, port, token) for each token a bus message carries: one
    token, or a combined tuple of them, all owed to one component."""
    tokens = [message] if isinstance(message, Token) else list(message)
    assert tokens and all(isinstance(token, Token) for token in tokens)
    assert len({token.owed[0] for token in tokens}) == 1
    return [(token.owed[0], token.owed[1], token) for token in tokens]


class ShadowedSystem(AdaptiveCountingSystem):
    """The system under test with the parent's bookkeeping run beside it."""

    def __init__(self, **kwargs):
        self.shadow = ShadowLedgers()
        self.shadow_live = set()
        self.lost_in_buffers = 0
        self.stale_arrivals = 0  # coverage: tokens that kept their debt at a stale home
        super().__init__(**kwargs)
        self.on_retire(self.shadow_live.discard)

    # -- the parent's call sites ---------------------------------------
    def inject_token(self, *args, **kwargs):
        token = super().inject_token(*args, **kwargs)
        self.shadow_live.add(token)  # its first hop is still on the bus
        return token

    def send_token(self, path, port, token):
        path = tuple(path)
        if self._owner_of(path) is not None:  # else: reroute_token re-enters here
            self.shadow._owe(path, port, token)
            if self.combiner is None:  # the parent's _dispatch_one
                self.shadow._inflight.post(path)
        super().send_token(path, port, token)

    def dispatch_batch(self, path, tokens):
        path = tuple(path)
        if self._owner_of(path) is not None:
            for token in tokens:
                self.shadow._owe(path, token.owed[1], token)
            self.shadow._inflight.post(path, len(tokens))
        super().dispatch_batch(path, tokens)

    def _undelivered(self, message):  # _one_undelivered / _batch_undelivered
        for path, _port, _token in tokens_of(message):
            self.shadow.note_token_arrived(path)
        super()._undelivered(message)

    def _drop(self, token):  # the parent's _retry gave up: _unowe
        self.shadow._unowe(token)
        self.shadow_live.discard(token)
        super()._drop(token)

    def arrived(self, host, message):  # the parent's _handle_one / _handle_tokens
        for path, port, token in tokens_of(message):
            # The address the message travels to is the debt it carries.
            assert token.in_flight and token.owed == (path, port)
            assert self.shadow.key_of[token] == (path, port)
            self.shadow.note_token_arrived(path)
            if path in host.components:  # a stale home settles nothing
                self.shadow._unowe(token)
            else:
                self.stale_arrivals += 1

    def crash_checked(self, node_id):
        host = self.hosts[node_id]
        disturbed = sum(self.shadow._inflight.get(path, 0) for path in host.components)
        for buffer in host.buffers.values():
            self.lost_in_buffers += len(buffer)
            self.shadow_live.difference_update(token for _port, token in buffer)
        report = self.crash_node(node_id)
        assert report.disturbed_tokens == disturbed
        return report

    # -- the comparison --------------------------------------------------
    def check(self):
        shadow = self.shadow
        assert self.live_tokens == self.shadow_live
        stats = self.token_stats
        assert len(self.live_tokens) == (
            stats.issued.get() - stats.retired.get() - stats.dropped.get() - self.lost_in_buffers
        )
        keys = set(shadow._owed.keys())
        keys.update(token.owed for token in self.live_tokens if token.owed is not None)
        for path in self.lost_components:
            keys.update((path, port) for port in range(self.tree.node(path).width))
        for path, port in keys:
            assert self.tokens_owed(path, port) == shadow._owed.balance((path, port))
        for path in {path for path, _port in keys} | set(shadow._inflight.keys()):
            assert self.tokens_in_flight({path}) == shadow._inflight.get(path, 0)
        for token in self.live_tokens:
            assert token.owed == shadow.key_of.get(token)
        # On the bus <=> flagged in flight, and owed where it is headed.
        on_bus = []
        for envelope in self.bus._envelopes:
            if envelope.kind == "token":
                for path, port, token in tokens_of(envelope.message):
                    assert token.owed == (path, port)
                    on_bus.append(token)
        assert len(on_bus) == len(set(on_bus))
        assert set(on_bus) == {token for token in self.live_tokens if token.in_flight}


@pytest.fixture
def shadowed_hosts(monkeypatch):
    """Every host reports an arriving message to its system's shadow."""
    original = NodeHost.handle_message

    def handle_message(host, message):
        # A combined tuple comes back here one token at a time.
        if isinstance(message, Token):
            host.system.arrived(host, message)
        original(host, message)

    monkeypatch.setattr(NodeHost, "handle_message", handle_message)


def churn(system, seed, operations=300, crashes_per_stabilize=1):
    """Seeded joins, leaves, crashes and ``converge()`` with tokens in
    flight — growth first, then shrinkage, so components split and merge
    under the tokens; the shadow is compared after every operation."""
    rng = random.Random(seed)
    system.converge()
    for step in range(operations):
        for _ in range(rng.randrange(5)):
            system.inject_token()
        roll = rng.random()
        if step >= operations - 8:
            # Last, because both losses poison later merges: tokens
            # buffered at a frozen component die with its host, and with
            # recovery deferred the tokens headed for the hole give up.
            path = rng.choice(sorted(system.directory.live_paths()))
            owner = system.directory.owner(path)
            system.hosts[owner].freeze(path)
            system.advance(1.5)
            system.crash_checked(owner)
            if not system.auto_stabilize:
                system.check()
                system.advance(70.0)
                system.check()
                system.stabilize()
        elif roll < (0.45 if step < operations // 2 else 0.10):
            system.add_node()
        elif roll < 0.55 and system.num_nodes > 12:
            system.remove_node()
            if rng.random() < 0.5:
                # Merge under tokens that bounced off the leaver and
                # wait to retry: their debt must move to the parent.
                system.check()
                system.converge()
        elif roll < 0.70 and system.num_nodes > 12:
            for _ in range(crashes_per_stabilize):
                system.crash_checked(rng.choice(system._live_nodes))
                system.check()
            if not system.auto_stabilize:
                system.stabilize()
        elif roll < 0.85:
            system.converge()
        else:
            system.advance(rng.choice((0.5, 1.0, 2.0)))
        system.check()
    system.run_until_quiescent()
    system.check()
    assert not system.live_tokens and not system.shadow._owed.keys()
    # The run met the cases the wrappers stand at.
    assert system.bus.messages_dropped.get() and system.lost_in_buffers
    assert system.stale_arrivals
    assert system.stats.splits and system.stats.merges


def test_shadow_agrees_with_combining_on(shadowed_hosts):
    system = ShadowedSystem(
        width=32, seed=5, initial_nodes=24, combining=CombiningConfig(window=0.5)
    )
    churn(system, seed=5)
    assert system.combiner.stats.largest_batch > 1
    # A token waiting in a combining buffer while its destination splits
    # or merges is rerouted with its debt: the reroute must move it.
    assert system.shadow.moves


def test_shadow_agrees_with_recovery_deferred(shadowed_hosts):
    system = ShadowedSystem(width=32, seed=2, initial_nodes=24, auto_stabilize=False)
    churn(system, seed=2, crashes_per_stabilize=3)
    assert system.token_stats.dropped.get()
