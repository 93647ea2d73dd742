"""The atomics facade: single-thread determinism and locked-flavor safety.

Two certification claims back the thread-readiness story:

1. The single-thread flavor is a zero-cost veneer — runs through the
   facade counters are **bit-identical** to plain-attribute arithmetic.
   The committed scenario pins (``SCENARIO_FINGERPRINTS.json``,
   reproduced in ``tests/scenarios/test_library.py`` and, under the
   locked flavor, in ``test_atomics_parity.py``) hold that claim.
2. The locked flavor really is safe under preemptive threads — a
   hammer test drives every locked helper from many threads and
   asserts exact totals.
"""

import threading

import pytest

from repro.core.atomics import (
    FLAVORS,
    LOCKED,
    SINGLE_THREAD,
    AtomicCounter,
    GuardedMap,
    LockedAtomicCounter,
    LockedGuardedMap,
    LockedPerWireCounters,
    LockedTokenLedger,
    LockedToggleBit,
    PerWireCounters,
    TokenLedger,
    ToggleBit,
    flavor,
)

THREADS = 8
OPS = 2000


def _hammer(worker):
    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestLockedFlavorUnderThreads:
    def test_locked_counter_exact_total(self):
        counter = LockedAtomicCounter()

        def worker():
            for _ in range(OPS):
                counter.increment()

        _hammer(worker)
        assert counter.get() == THREADS * OPS

    def test_locked_fetch_increment_hands_out_unique_values(self):
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

    def test_locked_per_wire_exact_totals(self):
        width = 4
        wires = LockedPerWireCounters(width)

        def worker():
            for op in range(OPS):
                wires.increment(op % width)

        _hammer(worker)
        per_wire = THREADS * OPS // width
        assert wires.snapshot() == [per_wire] * width

    def test_locked_ledger_posts_and_settles_balance_out(self):
        ledger = LockedTokenLedger()

        def worker():
            for op in range(OPS):
                key = op % 5
                ledger.post(key)
                ledger.settle(key)

        _hammer(worker)
        assert all(balance == 0 for balance in ledger.values())

    def test_locked_toggle_even_flips_return_to_start(self):
        toggle = LockedToggleBit()

        def worker():
            for _ in range(OPS):  # OPS is even
                toggle.flip()

        _hammer(worker)
        assert toggle.read() == 0

    def test_locked_guarded_map_ensure_is_atomic(self):
        table = LockedGuardedMap()
        created = LockedAtomicCounter()

        def factory():
            created.increment()
            return []

        def worker():
            for _ in range(OPS):
                table.ensure("slot", factory).append(1)

        _hammer(worker)
        # ensure() must construct the slot exactly once; every append
        # after that lands in the same list.
        assert created.get() == 1
        assert len(table["slot"]) == THREADS * OPS


class TestFlavorSelection:
    def test_flavor_lookup(self):
        assert flavor("single-thread") is SINGLE_THREAD
        assert flavor("locked") is LOCKED
        assert set(FLAVORS) == {"single-thread", "locked"}

    def test_unknown_flavor_is_an_error(self):
        with pytest.raises(ValueError, match="unknown atomics flavor"):
            flavor("lock-free")

    def test_families_construct_their_own_types(self):
        assert type(SINGLE_THREAD.counter()) is AtomicCounter
        assert type(LOCKED.counter()) is LockedAtomicCounter
        assert type(SINGLE_THREAD.ledger()) is TokenLedger
        assert type(LOCKED.ledger()) is LockedTokenLedger


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

    def test_toggle_flip_returns_the_prior_bit(self):
        toggle = ToggleBit()
        assert toggle.flip() == 0
        assert toggle.flip() == 1
        assert toggle.read() == 0
        toggle.set(1)
        assert toggle.read() == 1

    def test_guarded_map_take_and_ensure(self):
        table = GuardedMap({"a": 1})
        assert table.take("a") == 1
        assert table.take("a", default=-1) == -1
        assert table.ensure("b", list) == []
        assert "b" in table
