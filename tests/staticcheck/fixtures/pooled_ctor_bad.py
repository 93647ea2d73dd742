"""Negative fixture for RSC307: a pooled record built outside home.

``Envelope`` is freelist-pooled; constructing it directly anywhere in
``repro.*`` other than its home module bypasses the pool's field-reset
and generation-stamp discipline. The lint is module-scoped, so the test
feeds this file to ``lint_source`` with an explicit ``module="repro..."``
override (its on-disk path is under ``tests/``, which is exempt by
design). Lives under ``fixtures/`` so ``lint_paths`` skips it in
repo-wide runs.
"""

from repro.runtime.tokens import Token, TokenMsg
from repro.sim.node import Envelope


def hand_rolled_send(bus, process, to_address, message):
    # BAD: direct Envelope construction bypasses the bus freelist.
    envelope = Envelope(process, to_address, message, "msg", None, None)
    bus.deliver(envelope)


def fine_paths(system, path, port, wire):
    # OK: Token and TokenMsg are not pooled (exact-name rule).
    token = Token(system.next_id(), wire, system.sim.now)
    return TokenMsg(path, port, token)
