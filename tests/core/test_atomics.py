"""The counter facades and the two thread-safe primitives beside them.

1. The facades (``AtomicCounter``, ``PerWireCounters``,
   ``TokenLedger``) are a zero-cost veneer — runs through
   them are **bit-identical** to plain-attribute arithmetic. The
   committed scenario pins (``SCENARIO_FINGERPRINTS.json``, reproduced
   in ``tests/scenarios/test_library.py``) hold that claim; the
   semantics cases below hold the API.
2. ``TickCounter`` (every drawer of ``repro.threads``), its
   ``ThreadSafeToggle`` and ``LockedAtomicCounter`` (the single-lock
   baseline's) really are safe under preemptive threads: a hammer
   drives each from many threads and asserts exact totals, on the GIL
   path and on the free-threaded (locked) path.
"""

import sys
import threading

import pytest

from repro.core import atomics
from repro.core.atomics import (
    AtomicCounter,
    LockedAtomicCounter,
    PerWireCounters,
    ThreadSafeToggle,
    TickCounter,
    TokenLedger,
)

THREADS = 8
OPS = 2000


def _hammer(worker):
    """Run ``worker`` on more threads than cores, preempting often."""
    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestLockedCounterUnderThreads:
    def test_locked_counter_exact_total(self):
        counter = LockedAtomicCounter()

        def worker():
            for _ in range(OPS):
                counter.increment()

        _hammer(worker)
        assert counter.get() == THREADS * OPS

    def test_fetch_increment_hands_out_unique_values(self):
        counter = LockedAtomicCounter()
        seen = [set() for _ in range(THREADS)]
        lanes = iter(range(THREADS))
        lane_lock = threading.Lock()

        def worker():
            with lane_lock:
                lane = next(lanes)
            for _ in range(OPS):
                seen[lane].add(counter.fetch_increment())

        _hammer(worker)
        combined = set().union(*seen)
        assert len(combined) == THREADS * OPS
        assert combined == set(range(THREADS * OPS))


@pytest.fixture(params=["native", "free-threaded"])
def toggle(request, monkeypatch):
    """A ``ThreadSafeToggle`` factory for both construction paths: the
    one this interpreter selects on its own (lock-free under the GIL),
    and the internal-lock fallback of a free-threaded build — forced,
    since no GIL build takes it by itself."""
    if request.param == "free-threaded":
        monkeypatch.setattr(atomics, "_gil_enabled", lambda: False)

    def build(initial=0):
        built = ThreadSafeToggle(initial)
        assert (built._lock is None) == atomics._gil_enabled()
        return built

    return build


class TestThreadSafeToggle:
    @pytest.mark.parametrize("initial", [0, 1])
    def test_flip_sequence_is_bit_identical_to_toggle_bit(self, toggle, initial):
        subject = toggle(initial)
        flips = [subject.flip() for _ in range(64)]
        assert flips == [(initial + i) & 1 for i in range(64)]

    @pytest.mark.parametrize("initial", [0, 1])
    def test_ticker_draws_the_flip_sequence(self, toggle, initial):
        """What ``ThreadedCountingNetwork`` hoists into its rows: the low
        bit of each draw is the bit ``flip()`` would have returned, and the
        two share the one tick counter."""
        subject = toggle(initial)
        draw = subject.ticker()
        bits = [draw() & 1 if i % 3 else subject.flip() for i in range(64)]
        assert bits == [(initial + i) & 1 for i in range(64)]
        # Lock-free under the GIL means no Python frame at all.
        assert (type(draw).__name__ == "method-wrapper") == atomics._gil_enabled()

    def test_contended_flips_split_exactly_in_half(self, toggle):
        subject = toggle()
        seen = [[] for _ in range(THREADS)]
        lanes = iter(seen)
        lane_lock = threading.Lock()

        def worker():
            with lane_lock:
                mine = next(lanes)
            mine.extend(subject.flip() for _ in range(OPS))

        _hammer(worker)
        bits = [bit for lane in seen for bit in lane]
        assert bits.count(0) == THREADS * OPS // 2
        assert bits.count(1) == THREADS * OPS // 2


@pytest.mark.parametrize("gil", [True, False], ids=["native", "free-threaded"])
def test_tick_counter_draws_start_plus_step_once_each(monkeypatch, gil):
    """An output counter of the threaded network: ``start, start + step,
    ...``, every tick drawn exactly once however the draws interleave."""
    if not gil:
        monkeypatch.setattr(atomics, "_gil_enabled", lambda: False)
    counter = TickCounter(3, 16)
    assert (counter._lock is None) == gil
    draw = counter.ticker()
    assert [draw() if i % 2 else counter.draw() for i in range(4)] == [3, 19, 35, 51]
    seen = [[] for _ in range(THREADS)]
    lanes = iter(seen)
    lane_lock = threading.Lock()

    def worker():
        with lane_lock:
            mine = next(lanes)
        mine.extend(draw() for _ in range(OPS))

    _hammer(worker)
    ticks = sorted(tick for lane in seen for tick in lane)
    assert ticks == list(range(67, 67 + 16 * THREADS * OPS, 16))


class TestFacadeSemantics:
    def test_counter_behaves_like_an_int(self):
        counter = AtomicCounter(3)
        assert int(counter) == 3
        assert counter == 3
        assert counter < 4
        assert counter + 1 == 4
        assert 10 - counter == 7
        assert counter * 2 == 6
        counter += 2
        assert isinstance(counter, AtomicCounter)
        assert counter.get() == 5

    def test_counters_compare_across_flavors(self):
        assert AtomicCounter(7) == LockedAtomicCounter(7)
        assert AtomicCounter(7) != LockedAtomicCounter(8)

    def test_per_wire_snapshot_and_indexing(self):
        wires = PerWireCounters(3)
        wires.increment(0)
        wires[2] = 9
        assert wires.snapshot() == [1, 0, 9]
        assert list(wires) == [1, 0, 9]
        assert len(wires) == 3

    def test_ledger_post_settle_lifecycle(self):
        ledger = TokenLedger()
        assert ledger.post("w") == 1
        assert ledger.fetch_post("w") == 1  # returns the prior balance
        assert ledger.balance("w") == 2
        assert ledger.settle("w") == 1
        assert ledger.clear_balance("w") == 1
        assert ledger.get("w") == 0
