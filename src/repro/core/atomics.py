"""Counter facades: one named call site per shared counter update.

The simulator is single-threaded — a node handles one message at a
time — so a shared counter there is an ``int``, a toggle an ``int``
flipped with ``^ 1`` and a keyed table a ``dict``, and most of them
are exactly that. What is left in this module is the benchmark's
contract until ``perf/`` stops naming it:

* :class:`AtomicCounter` — ``perf/trace.py`` wraps ``increment`` as a
  boundary and ``perf/workloads.py`` reads ``.get()`` on nine of them:
  ``Simulator.events_run``, ``MessageBus.messages_sent`` /
  ``messages_delivered`` / ``messages_dropped`` and ``TokenStats``'
  ``issued`` / ``retired`` / ``dropped`` / ``total_hops`` /
  ``total_reroutes``; the simulated hop adds to the first three through
  the ``value`` slot, with no call;
* :class:`PerWireCounters` — ``increment`` is a traced boundary;
* :class:`TokenLedger` — ``post`` / ``settle`` are traced boundaries
  and ``perf/probes.py`` times the pair; nothing in ``src/`` uses it.

All three are plain Python with no synchronization, byte-identical
arithmetic to the raw ints and dicts they wrap, and implement the
arithmetic/comparison protocol (``int(c)``, ``c == 5``, ``c - other``,
iteration for the per-wire family), so read sites — step-property
checks, benchmarks, tests — treat them as the numbers they wrap.

Thread-safe primitives live beside them, for the one place OS threads
do run (:mod:`repro.threads`, the contrast experiment):

* :class:`TickCounter`, a fetch-and-add that is one C-level ``next()``
  on ``itertools.count`` under the GIL and locked without one: every
  toggle and output counter of the threaded network.
  :class:`ThreadSafeToggle`, one read mod 2, is timed by ``perf/probes.py``.
* :class:`LockedAtomicCounter` wraps every mutation *and every read* of
  an :class:`AtomicCounter` in a ``threading.Lock``. Read paths route
  through ``get()`` precisely so the subclass can intercept them: a
  comparison against a locked counter acquires that counter's lock for
  the read. It is the single lock of
  :class:`repro.threads.LockedCounterBaseline`, and ``perf/probes.py``
  times its ``fetch_increment``.
"""

from __future__ import annotations

import itertools
import sys
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

K = TypeVar("K", bound=Hashable)

Number = Union[int, float]


class AtomicCounter:
    """A single integer counter behind named atomic operations.

    ``increment``/``decrement`` return the *new* value;
    ``fetch_increment`` returns the *prior* value (the classic
    fetch-and-add, which is how counting networks hand out values).
    The counter compares and does arithmetic like the int it wraps.
    A single-threaded hot path may bump the public ``value`` slot
    directly (``c.value += 1``), as the simulated hop does, and skip the
    method frame; a :class:`LockedAtomicCounter` must not be used so.
    """

    __slots__ = ("value",)

    def __init__(self, initial: int = 0) -> None:
        self.value = int(initial)

    # -- named mutations ------------------------------------------------
    def increment(self, amount: int = 1) -> int:
        """Add ``amount``; return the new value."""
        value = self.value + amount
        self.value = value
        return value

    def fetch_increment(self, amount: int = 1) -> int:
        """Add ``amount``; return the value *before* the add."""
        value = self.value
        self.value = value + amount
        return value

    def decrement(self, amount: int = 1) -> int:
        """Subtract ``amount``; return the new value."""
        value = self.value - amount
        self.value = value
        return value

    def get(self) -> int:
        return self.value

    def set(self, value: int) -> None:
        self.value = int(value)

    # -- int facade -----------------------------------------------------
    # Every read dunder routes through get() so that LockedAtomicCounter
    # makes *reads* lock-consistent by overriding one method; comparisons
    # read the other side through its get() too (see _as_number), so a
    # locked counter on either side of `a == b` is read under its own
    # lock. Each side's lock is taken and released independently —
    # neither is held while acquiring the other — so cross-comparing
    # two locked counters cannot deadlock.
    def __int__(self) -> int:
        return self.get()

    def __index__(self) -> int:
        return self.get()

    def __bool__(self) -> bool:
        return bool(self.get())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AtomicCounter):
            return self.get() == other.get()
        if isinstance(other, (int, float)):
            return self.get() == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        # Explicit mirror of __eq__: preserves NotImplemented so
        # reflected comparisons against foreign types still work.
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __lt__(self, other: Any) -> bool:
        return self.get() < _as_number(other)

    def __le__(self, other: Any) -> bool:
        return self.get() <= _as_number(other)

    def __gt__(self, other: Any) -> bool:
        return self.get() > _as_number(other)

    def __ge__(self, other: Any) -> bool:
        return self.get() >= _as_number(other)

    def __add__(self, other: Any) -> Number:
        return self.get() + _as_number(other)

    def __radd__(self, other: Any) -> Number:
        return _as_number(other) + self.get()

    def __sub__(self, other: Any) -> Number:
        return self.get() - _as_number(other)

    def __rsub__(self, other: Any) -> Number:
        return _as_number(other) - self.get()

    def __mul__(self, other: Any) -> Number:
        return self.get() * _as_number(other)

    def __rmul__(self, other: Any) -> Number:
        return _as_number(other) * self.get()

    def __truediv__(self, other: Any) -> float:
        return self.get() / _as_number(other)

    def __rtruediv__(self, other: Any) -> float:
        return _as_number(other) / self.get()

    def __floordiv__(self, other: Any) -> Number:
        return self.get() // _as_number(other)

    def __mod__(self, other: Any) -> Number:
        return self.get() % _as_number(other)

    def __iadd__(self, other: int) -> "AtomicCounter":
        # `c += n` rebinds to the same object after one atomic add, so
        # legacy augmented-assignment call sites stay correct.
        self.increment(int(other))
        return self

    def __isub__(self, other: int) -> "AtomicCounter":
        self.decrement(int(other))
        return self

    def __neg__(self) -> int:
        return -self.value

    def __hash__(self) -> int:
        # Identity hash: the value mutates, so value-hashing would
        # corrupt any container holding the counter across an update.
        return object.__hash__(self)

    def __repr__(self) -> str:
        return "%s(%d)" % (type(self).__name__, self.value)


class LockedAtomicCounter(AtomicCounter):
    """:class:`AtomicCounter` with every mutation *and read* locked.

    The base class funnels all observation — ``int()``, ``bool()``,
    comparisons, arithmetic — through :meth:`get`, so locking it here
    makes the whole read surface lock-consistent with the writers.
    """

    __slots__ = ("_lock",)

    def __init__(self, initial: int = 0) -> None:
        super().__init__(initial)
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> int:
        with self._lock:
            return super().increment(amount)

    def fetch_increment(self, amount: int = 1) -> int:
        with self._lock:  # one frame: every LockedCounterBaseline rank is drawn here
            value = self.value
            self.value = value + amount
            return value

    def decrement(self, amount: int = 1) -> int:
        with self._lock:
            return super().decrement(amount)

    def set(self, value: int) -> None:
        with self._lock:
            super().set(value)

    def get(self) -> int:
        with self._lock:
            return super().get()


class PerWireCounters:
    """A fixed-width array of counters (one per output wire).

    Iteration, indexing, ``len`` and equality against plain sequences
    all behave like the ``[0] * width`` list this replaces, so step-
    property checks and tests read it unchanged; writes go through
    ``increment``/``fetch_increment``/``decrement``.
    """

    __slots__ = ("_values",)

    def __init__(self, width_or_values: Union[int, Iterable[int]]) -> None:
        if isinstance(width_or_values, int):
            self._values = [0] * width_or_values
        else:
            self._values = [int(v) for v in width_or_values]

    # -- named mutations ------------------------------------------------
    def increment(self, index: int, amount: int = 1) -> int:
        value = self._values[index] + amount
        self._values[index] = value
        return value

    def fetch_increment(self, index: int, amount: int = 1) -> int:
        value = self._values[index]
        self._values[index] = value + amount
        return value

    def decrement(self, index: int, amount: int = 1) -> int:
        value = self._values[index] - amount
        self._values[index] = value
        return value

    def get(self, index: int) -> int:
        return self._values[index]

    def set(self, index: int, value: int) -> None:
        self._values[index] = int(value)

    def reset(self, values: Optional[Iterable[int]] = None) -> None:
        if values is None:
            self._values = [0] * len(self._values)
        else:
            self._values = [int(v) for v in values]

    def snapshot(self) -> List[int]:
        return list(self._values)

    # -- sequence facade ------------------------------------------------
    def __getitem__(self, index: int) -> int:
        return self._values[index]

    def __setitem__(self, index: int, value: int) -> None:
        # Present for drop-in sequence compatibility (tests mutate the
        # raw counts); analyzed code uses the named methods instead.
        self._values[index] = int(value)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PerWireCounters):
            return self.snapshot() == other.snapshot()
        if isinstance(other, (list, tuple)):
            return self.snapshot() == list(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return object.__hash__(self)

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self._values)


# Looked up once: a failed getattr (a caught AttributeError) costs ~1 us a counter.
_GIL_CHECKER: Optional[Callable[[], bool]] = getattr(sys, "_is_gil_enabled", None)


def _gil_enabled() -> bool:
    """Whether this interpreter runs with the GIL (always true before
    the free-threaded builds of 3.13; ``sys._is_gil_enabled`` after)."""
    return _GIL_CHECKER is None or bool(_GIL_CHECKER())


class TickCounter:
    """A fetch-and-add for the shared-memory backend: the i-th draw
    returns ``start + i * step``.

    A draw is ``next()`` on an ``itertools.count``: one bytecode on a C
    iterator whose whole effect happens under the GIL, so concurrent
    draws each observe a distinct tick — a genuine fetch-and-add with no
    lock, no matter how many threads contend (the cybozu
    ``fetch_add``). On free-threaded builds (PEP 703, no GIL) a shared C
    iterator is no longer atomic, so the constructor detects that and
    routes every draw through an internal lock instead — same ticks,
    locked speed. There is no ``get``: a counter you could read
    mid-flight would need the lock the whole point is to avoid.
    """

    __slots__ = ("_ticks", "_lock")

    def __init__(self, start: int = 0, step: int = 1) -> None:
        self._ticks = itertools.count(start, step)
        self._lock: Optional[threading.Lock] = (
            None if _gil_enabled() else threading.Lock()
        )

    def draw(self) -> int:
        """Atomically advance; return the tick *before* the advance."""
        lock = self._lock
        if lock is None:
            return next(self._ticks)
        with lock:
            return next(self._ticks)

    def ticker(self) -> Callable[[], int]:
        """:meth:`draw`, to hoist into a hot path: under the GIL the
        C-level ``count.__next__`` itself, no Python frame."""
        return self._ticks.__next__ if self._lock is None else self.draw

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__


class ThreadSafeToggle(TickCounter):
    """A balancer toggle: a :class:`TickCounter` read mod 2.

    The i-th flip returns ``(initial + i) & 1``, the sequence of a plain
    ``bit ^= 1`` toggle (the cybozu ``Balancer2x2::get`` =
    ``fetch_add(&value, 1) % 2`` pattern), and the low bit of each
    :meth:`ticker` draw is the bit :meth:`flip` would have returned.
    """

    __slots__ = ()

    def __init__(self, initial: int = 0) -> None:
        super().__init__(int(initial) & 1)

    def flip(self) -> int:
        """Atomically toggle; return the bit *before* the flip."""
        lock = self._lock  # draw() inlined: a flip stays one frame
        if lock is None:
            return next(self._ticks) & 1
        with lock:
            return next(self._ticks) & 1


class TokenLedger(Generic[K]):
    """Keyed integer balances (owed tokens, in-flight counts, toggles).

    ``post`` adds to a key's balance, ``settle`` subtracts, and a
    balance that settles to zero is dropped — matching the sparse
    ``dict.get(k, 0) + 1`` / ``del`` idiom it replaces. ``fetch_post``
    is the keyed fetch-and-add.
    """

    __slots__ = ("_entries",)

    def __init__(self, initial: Optional[Mapping[K, int]] = None) -> None:
        self._entries: Dict[K, int] = dict(initial) if initial else {}

    # -- named mutations ------------------------------------------------
    def post(self, key: K, amount: int = 1) -> int:
        """Add ``amount`` to ``key``'s balance; return the new balance."""
        value = self._entries.get(key, 0) + amount
        if value:
            self._entries[key] = value
        else:
            self._entries.pop(key, None)
        return value

    def fetch_post(self, key: K, amount: int = 1) -> int:
        """Add ``amount`` to ``key``'s balance; return the prior one."""
        value = self._entries.get(key, 0)
        new = value + amount
        if new:
            self._entries[key] = new
        else:
            self._entries.pop(key, None)
        return value

    def settle(self, key: K, amount: int = 1) -> int:
        """Subtract ``amount`` from ``key``'s balance; return the new
        balance. A zero balance drops the entry."""
        # Inlined post(key, -amount): settle is on the per-hop hot path.
        entries = self._entries
        value = entries.get(key, 0) - amount
        if value:
            entries[key] = value
        else:
            entries.pop(key, None)
        return value

    def clear_balance(self, key: K) -> int:
        """Drop ``key`` entirely; return the balance it had."""
        return self._entries.pop(key, 0)

    def reset(self) -> None:
        self._entries = {}

    def reader(self) -> Callable[..., Any]:
        """A bound, C-level read callable (``dict.get``) for hot paths.

        The reader is safe to hoist; it must never be used to mutate.
        Missing keys read as ``None`` (the raw ``dict.get`` default),
        unlike :meth:`get`'s 0. A hoisted reader observes the dict it
        was created from: :meth:`reset` swaps the underlying dict and
        invalidates previously handed-out readers.
        """
        return self._entries.get

    # -- mapping facade -------------------------------------------------
    def balance(self, key: K) -> int:
        return self._entries.get(key, 0)

    def get(self, key: K, default: int = 0) -> int:
        return self._entries.get(key, default)

    def snapshot(self) -> Dict[K, int]:
        return dict(self._entries)

    def keys(self) -> Iterable[K]:
        return self._entries.keys()

    def items(self) -> Iterable[Tuple[K, int]]:
        return self._entries.items()

    def values(self) -> Iterable[int]:
        return self._entries.values()

    def __getitem__(self, key: K) -> int:
        return self._entries[key]

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TokenLedger):
            return self.snapshot() == other.snapshot()
        if isinstance(other, dict):
            return self.snapshot() == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return object.__hash__(self)

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self._entries)


def _as_number(other: Any) -> Number:
    if isinstance(other, AtomicCounter):
        # get(), not _value: a locked counter must be read under its lock.
        return other.get()
    if isinstance(other, (int, float)):
        return other
    raise TypeError(
        "expected an int, float or AtomicCounter, got %r" % type(other).__name__
    )


__all__ = [
    "AtomicCounter",
    "LockedAtomicCounter",
    "PerWireCounters",
    "ThreadSafeToggle",
    "TickCounter",
    "TokenLedger",
]
