"""Message combining on the token plane.

A classic optimisation in the counting-network literature: tokens headed
for the same component within a short window travel as one message, so
the per-token message cost drops by the batching factor while the
counter semantics (which is arrival-order insensitive and batchable,
see :meth:`repro.core.components.ComponentState.route_batch`) is
untouched. The price is up to ``window`` extra latency per hop.

A combined message is a tuple of tokens: each token names the input it
is owed to (``Token.owed``), so the batch needs no header of its own.
Disabled by default (``window = 0`` reproduces the paper's one-message-
per-token behaviour); the ablation bench sweeps the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.runtime.tokens import Token

Path = Tuple[int, ...]


@dataclass
class CombiningConfig:
    """Combining parameters.

    ``window`` — how long (simulated time) a token may wait at its
    sender for companions; 0 disables combining entirely.
    ``max_batch`` — flush early once this many tokens are waiting.
    """

    window: float = 0.0
    max_batch: int = 64

    def __post_init__(self):
        if self.window < 0:
            raise SimulationError("combining window cannot be negative")
        if self.max_batch < 1:
            raise SimulationError("combining max_batch must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.window > 0


@dataclass
class CombiningStats:
    """How much combining actually saved."""

    tokens_buffered: int = 0
    batches_sent: int = 0
    largest_batch: int = 0

    @property
    def mean_batch(self) -> float:
        return self.tokens_buffered / self.batches_sent if self.batches_sent else 0.0


class Combiner:
    """Per-system combining buffers, flushed by simulator events."""

    def __init__(self, system, config: CombiningConfig):
        self.system = system
        self.config = config
        self.stats = CombiningStats()
        self._buffers: Dict[Path, List[Token]] = {}

    def offer(self, path: Path, token: Token) -> None:
        """Queue a token, already owed to an input of ``path``, for
        combined delivery there."""
        buffer = self._buffers.get(path)
        self.stats.tokens_buffered += 1
        if buffer is None:
            self._buffers[path] = [token]
            self.system.sim.schedule(self.config.window, lambda: self.flush(path))
        else:
            buffer.append(token)
            if len(buffer) >= self.config.max_batch:
                self.flush(path)

    def flush(self, path: Path) -> None:
        """Ship the waiting batch (no-op if already flushed early)."""
        tokens = self._buffers.pop(path, None)
        if not tokens:
            return
        self.stats.batches_sent += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(tokens))
        self.system.dispatch_batch(path, tokens)

    def flush_all(self) -> None:
        for path in list(self._buffers):
            self.flush(path)

    @property
    def pending(self) -> int:
        return sum(len(tokens) for tokens in self._buffers.values())
