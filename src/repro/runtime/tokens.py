"""Tokens and token bookkeeping for the distributed runtime.

:class:`Token` is the hottest record in the system — one per injection,
and it *is* the message of every hop: it carries the (path, port) it is
addressed and owed to, so a hop allocates no message and keeps no table
(a combined batch travels as a tuple of tokens). It is a
hand-rolled ``__slots__`` class rather than a dataclass: no
per-instance ``__dict__``, cheaper attribute access, and cheaper
mutation of the hop/reroute counters en route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.atomics import AtomicCounter
from repro.obs import recorder as _obs


class Token:
    """One client token traversing the adaptive counting network."""

    __slots__ = (
        "token_id",
        "entry_wire",
        "issued_at",
        "hops",
        "reroutes",
        "retired_at",
        "exit_wire",
        "value",
        "owed",
        "in_flight",
    )

    def __init__(
        self,
        token_id: int,
        entry_wire: int,
        issued_at: float,
        hops: int = 0,
        reroutes: int = 0,
        retired_at: Optional[float] = None,
        exit_wire: Optional[int] = None,
        value: Optional[int] = None,
    ):
        self.token_id = token_id
        self.entry_wire = entry_wire
        self.issued_at = issued_at
        self.hops = hops
        self.reroutes = reroutes
        self.retired_at = retired_at
        self.exit_wire = exit_wire
        self.value = value
        #: The (path, port) this token is addressed and owed to (emitted
        #: toward but not yet arrived at), or None; ``in_flight`` says
        #: it is on the bus toward it now (not bounced, buffered or
        #: waiting to retry). Crash recovery reads both off the live
        #: tokens when reconstructing a lost component's arrivals.
        self.owed = None
        self.in_flight = False

    @property
    def latency(self) -> Optional[float]:
        if self.retired_at is None:
            return None
        return self.retired_at - self.issued_at

    def __repr__(self):
        return "Token(id=%d, wire=%d, value=%r)" % (
            self.token_id,
            self.entry_wire,
            self.value,
        )


@dataclass
class TokenStats:
    """Aggregate token-plane statistics for one run.

    ``dropped`` counts tokens that exhausted their reroute budget and
    gave up (only reachable with recovery disabled); every issued token
    either retires or drops, so ``retired + dropped == issued`` at
    quiescence.
    """

    # Each statistic is an AtomicCounter: the counters compare/add like
    # the plain ints they replaced, and `stats.issued += n` still works
    # (one named add, same object).
    issued: AtomicCounter = field(default_factory=AtomicCounter)
    retired: AtomicCounter = field(default_factory=AtomicCounter)
    dropped: AtomicCounter = field(default_factory=AtomicCounter)
    total_hops: AtomicCounter = field(default_factory=AtomicCounter)
    total_reroutes: AtomicCounter = field(default_factory=AtomicCounter)
    latencies: list = field(default_factory=list)

    def record_retired(self, token: Token) -> None:
        self.retired.increment()
        self.total_hops.increment(token.hops)
        self.total_reroutes.increment(token.reroutes)
        self.latencies.append(token.latency)
        obs = _obs.ACTIVE
        if obs.enabled:
            obs.token_retired(token)

    def record_dropped(self, token: Token) -> None:
        self.dropped.increment()

    @property
    def mean_hops(self) -> float:
        retired = self.retired.get()
        return self.total_hops.get() / retired if retired else 0.0

    @property
    def mean_latency(self) -> float:
        valid = [latency for latency in self.latencies if latency is not None]
        return sum(valid) / len(valid) if valid else 0.0
