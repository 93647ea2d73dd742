"""An in-process counting network driven by OS threads.

:class:`ThreadedCountingNetwork` walks the flat
``rows[layer][wire] -> (draw, (next_top, next_bottom))`` layout — the
cybozu ``CountingNetwork4/8`` shape — built from the layers
:func:`repro.core.network.compile_topology` validated, with one
:class:`TickCounter` per balancer (its low bit the toggle) and one per
output wire: each a GIL-atomic fetch-and-add, so a token takes no lock.

The retirement counters follow the exemplar's numbering: output ``j``'s
counter starts at ``j`` and every retirement fetch-adds ``width``, so
output ``j`` hands out ``j, j + width, j + 2*width, ...`` and the union
across outputs is exactly ``{0, 1, ..., total - 1}`` — *iff* the
network balances. :meth:`ThreadedCountingNetwork.verify` checks that
at quiescence (zero lost tokens plus the step property).

Striping, as far as Python allows: C code aligns each output counter to
its own cache line; here every output gets its *own* counter (never one
over the whole array), so two threads retiring on different outputs
contend on nothing. Under the GIL no drawer locks; on a free-threaded
build every drawer, toggle and output alike, takes a lock of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from repro.core.atomics import LockedAtomicCounter, TickCounter
from repro.core.network import CompiledTopology
from repro.errors import StructureError

#: A ``rows[layer][wire]`` entry: a tick drawer and ``(next_top, next_bottom)``.
Hop = Tuple[Callable[[], int], Tuple[int, int]]


@dataclass(frozen=True)
class VerifyReport:
    """Quiescent-state verdict of a threaded run.

    ``lost_tokens`` is expected minus retired (0 when every thread's
    token came out somewhere); ``step_ok`` is the step property — with
    ``total`` tokens through a ``width``-wide network, output ``j``
    must have retired exactly ``ceil((total - j) / width)``.
    """

    total_expected: int
    total_retired: int
    per_output: Tuple[int, ...]
    step_ok: bool

    @property
    def lost_tokens(self) -> int:
        return self.total_expected - self.total_retired

    @property
    def ok(self) -> bool:
        return self.lost_tokens == 0 and self.step_ok


def _step_counts(total: int, width: int) -> List[int]:
    """Per-output retirement counts the step property demands."""
    return [(total + width - 1 - j) // width for j in range(width)]


def values_form_range(values: Iterable[int], total: int) -> bool:
    """Whether the handed-out values are exactly ``{0 .. total-1}`` —
    every rank issued once, none skipped, none duplicated."""
    try:
        seen = sorted(values)  # the only copy: a benchmark repeat hands in 555 555 ranks
    except TypeError:
        return False
    return len(seen) == total and all(v == i for i, v in enumerate(seen))


class ThreadedCountingNetwork:
    """A counting network whose tokens are the calling threads.

    ``fetch_and_inc(wire)`` is the whole client API: enter on ``wire``,
    traverse one atomic toggle per layer, retire on the reached
    output's striped counter, return a globally unique rank. Safe to
    call from any number of threads concurrently with no external
    locking.
    """

    def __init__(self, topology: CompiledTopology) -> None:
        self.width = width = topology.width
        self.topology = topology
        self._position: Dict[int, int] = topology.position()
        # Read-only after init: ``rows[layer][wire]`` is ``(draw, (next_top,
        # next_bottom))`` — the cybozu ``network_[layer][wire]`` layout
        # with, in place of the balancer's index, the tick drawer of its
        # own toggle (the low bit of a draw is the toggle's bit). An idle
        # wire passes straight through (``int()`` is 0).
        idle: List[Hop] = [(int, (wire, wire)) for wire in range(width)]
        self._rows: List[List[Hop]] = []
        for layer in topology.layers:
            row = idle[:]
            for pair in layer:
                row[pair[0]] = row[pair[1]] = (TickCounter().ticker(), pair)
            self._rows.append(row)
        # ``outputs[wire]`` draws the ranks of the output ``wire`` feeds:
        # output j's counter starts at j, so ranks interleave across outputs.
        self._outputs: List[Callable[[], int]] = [
            TickCounter(self._position[wire], width).ticker() for wire in range(width)
        ]

    def fetch_and_inc(self, wire: int) -> int:
        """Drive this thread's token from input ``wire`` to retirement;
        return the unique rank the reached output hands out."""
        if not 0 <= wire < self.width:
            raise StructureError("input wire %d out of range" % wire)
        for row in self._rows:
            draw, pair = row[wire]
            wire = pair[draw() & 1]
        return self._outputs[wire]()

    def counts(self) -> List[int]:
        """Tokens retired per output, decoded from the ``j + n * width``
        numbering. Call only at quiescence: a C ticker has no read but a
        draw (copying or pickling one is deprecated), so each output's
        next rank is drawn and the output re-seeded to hand it out next."""
        width, outputs = self.width, self._outputs
        per_output = [0] * width
        for wire, j in self._position.items():
            rank = outputs[wire]()
            outputs[wire] = TickCounter(rank, width).ticker()
            per_output[j] = (rank - j) // width
        return per_output

    def verify(self, total: int) -> VerifyReport:
        """Check conservation and the step property at quiescence —
        call only after every driving thread has been joined."""
        per_output = self.counts()
        return VerifyReport(
            total_expected=total,
            total_retired=sum(per_output),
            per_output=tuple(per_output),
            step_ok=per_output == _step_counts(total, self.width),
        )


class LockedCounterBaseline:
    """The centralized counter the network exists to beat.

    Same ``fetch_and_inc`` surface as the network (the ``wire``
    argument is accepted and ignored) so a benchmark drives both through
    one code path; every thread funnels through the one lock.
    """

    width = 1

    def __init__(self) -> None:
        self._ranks = LockedAtomicCounter(0)

    def fetch_and_inc(self, wire: int) -> int:
        return self._ranks.fetch_increment()

    def counts(self) -> List[int]:
        return [self._ranks.get()]

    def verify(self, total: int) -> VerifyReport:
        retired = self._ranks.get()
        return VerifyReport(
            total_expected=total,
            total_retired=retired,
            per_output=(retired,),
            step_ok=retired == total,
        )


__all__ = [
    "LockedCounterBaseline",
    "ThreadedCountingNetwork",
    "VerifyReport",
    "values_form_range",
]
