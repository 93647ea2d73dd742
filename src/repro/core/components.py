"""The single-counter component implementation of Section 2.2.

Whether a component is a ``BITONIC[k]``, ``MERGER[k]`` or ``MIX[k]``,
its implementation is the same: a single local counter. The next token
entering the component exits on output wire ``x = t mod k`` and the
counter advances.

Beyond the paper's single integer we keep two pieces of bookkeeping
(DESIGN.md D2/D3):

* the exact total ``t`` (Python ints are unbounded; the paper's counter
  is ``x = t mod k``), needed for exact merge initialisation, and
* per-input-port arrival tallies, needed for exact split initialisation:
  when a component splits, which child carried each past token depends
  on the port the token arrived on, so the children's states are the
  deterministic replay of the per-port arrival counts — a quantity the
  component can track locally in O(1) per token.

Neither changes the component's observable routing behaviour, which is
exactly the paper's mod-k counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core.decomposition import ComponentSpec
from repro.errors import StructureError


def balanced_counts(start: int, count: int, width: int) -> List[int]:
    """Per-wire token counts after a counter emits ``count`` tokens.

    The counter starts at state ``start`` (the wire the next token exits
    on) and emits tokens on wires ``start, start+1, ... mod width``.
    Wire ``j`` receives ``count // width`` tokens plus one extra if it is
    among the first ``count % width`` wires at or after ``start``: the
    row "extras first", rotated to begin at ``start``.
    """
    if count < 0:
        raise StructureError("token count must be nonnegative, got %d" % count)
    base, rem = divmod(count, width)
    row = [base + 1] * rem + [base] * (width - rem)
    split = width - start % width
    return row[split:] + row[:split]


def balanced_count_at(start: int, count: int, width: int, wire: int) -> int:
    """``balanced_counts(start, count, width)[wire]`` without the list."""
    base, rem = divmod(count, width)
    return base + (1 if (wire - start) % width < rem else 0)


def balanced_sum(total: int, width: int, wires) -> int:
    """Sum of the fresh-start balanced distribution over ``wires``.

    Equals the number of the first ``total`` round-robin tokens that land
    on the given wires when the counter starts at 0. ``wires`` is any
    iterable of wire indices.
    """
    base, rem = divmod(total, width)
    return sum(base + (1 if wire < rem else 0) for wire in wires)


class ComponentState:
    """Mutable runtime state of one live component.

    ``total`` is the exact number of tokens that have traversed the
    component; ``arrivals`` maps input port -> tokens received on that
    port (sparse; ports with zero arrivals are absent). The paper's
    counter is ``x = total % spec.width``; the route of the next token
    is a pure function of ``total``.
    """

    def __init__(
        self,
        spec: ComponentSpec,
        total: int = 0,
        arrivals: Optional[Dict[int, int]] = None,
    ) -> None:
        self.spec = spec
        self.total = int(total)
        self.arrivals: Dict[int, int] = dict(arrivals) if arrivals else {}

    @property
    def width(self) -> int:
        return self.spec.width

    @property
    def x(self) -> int:
        """The paper's counter: the wire the next token will exit on."""
        return self.total % self.width

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.width:
            raise StructureError(
                "input port %d out of range for %s" % (port, self.spec)
            )

    def route_token(self, in_port: int) -> int:
        """Consume one token arriving on ``in_port``; return its exit wire."""
        width = self.spec.width
        if not 0 <= in_port < width:
            self._check_port(in_port)
        total = self.total
        self.total = total + 1
        arrivals = self.arrivals
        arrivals[in_port] = arrivals.get(in_port, 0) + 1
        return total % width

    def route_batch(self, port_counts: Mapping[int, int]) -> List[int]:
        """Consume a batch of tokens; return per-output-wire counts.

        ``port_counts`` maps input port -> token count. Equivalent to the
        corresponding :meth:`route_token` calls in any order (the counter
        is arrival-order insensitive), but O(width + ports).
        """
        arrived = [0] * self.spec.width
        for port, n in port_counts.items():
            self._check_port(port)
            if n < 0:
                raise StructureError("negative token count on port %d" % port)
            arrived[port] = n
        return self.route_counts(arrived)

    def route_counts(self, arrived: List[int]) -> List[int]:
        """:meth:`route_batch` dense and unchecked: ``arrived[port]`` in,
        tokens per output wire out (:func:`balanced_counts` from ``x``,
        inline). ``CutNetwork.feed_counts`` restates this step inline over
        its slot plan."""
        width = self.spec.width
        total = self.total
        count = sum(arrived)
        self.total = total + count
        arrivals = self.arrivals
        for port, n in enumerate(arrived):
            if n:
                arrivals[port] = arrivals.get(port, 0) + n
        base, rem = divmod(count, width)
        if not rem:  # every wire alike: half the batches a balancer-sized member sees
            return [base] * width
        row = [base + 1] * rem + [base] * (width - rem)
        split = width - total % width
        return row[split:] + row[:split]

    def arrived_total(self) -> int:
        """Sum of per-port arrivals (== ``total`` at quiescence)."""
        return sum(self.arrivals.values())

    def copy(self) -> "ComponentState":
        return ComponentState(self.spec, self.total, dict(self.arrivals))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComponentState):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.total == other.total
            and self.arrivals == other.arrivals
        )

    # Mutable, like the dataclass it replaced: equality without hashing.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "ComponentState(spec=%r, total=%r, arrivals=%r)" % (
            self.spec,
            self.total,
            self.arrivals,
        )


@dataclass
class TokenTrace:
    """A token's journey through a cut network (for tests/examples)."""

    input_wire: int
    hops: List[ComponentSpec] = field(default_factory=list)
    output_wire: int = -1
    value: int = -1
