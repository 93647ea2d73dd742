"""Regression pins for the atomics facade bug audit (ISSUE 8).

Three claims, each of which has a way of silently rotting:

1. ``__hash__`` is identity-based on both counters — a mutable
   counter hashed by value vanishes from any dict/set it keys the
   moment it increments.
2. ``__eq__``/``__ne__`` are a mirrored pair that return
   ``NotImplemented`` (not ``False``) for foreign types, so reflected
   comparisons still work.
3. ``LockedAtomicCounter`` takes its lock on *reads*, not just
   writes — ``get()``, ``int()``, comparisons and arithmetic all pass
   through ``self._lock``. Verified by swapping the lock for a counting
   probe.
"""

import threading

from repro.core.atomics import AtomicCounter, LockedAtomicCounter


class ProbeLock:
    """A context manager that counts acquisitions around a real lock."""

    def __init__(self):
        self.acquisitions = 0
        self._inner = threading.Lock()

    def __enter__(self):
        self.acquisitions += 1
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


def probed(helper):
    """Swap ``helper``'s lock for a probe; return the probe."""
    probe = ProbeLock()
    helper._lock = probe
    return probe


class TestHashIsIdentityStable:
    def test_hash_survives_mutation(self):
        for cls in (AtomicCounter, LockedAtomicCounter):
            counter = cls(1)
            before = hash(counter)
            counter.increment(41)
            assert hash(counter) == before, cls.__name__

    def test_counter_stays_findable_as_dict_key_after_increment(self):
        for cls in (AtomicCounter, LockedAtomicCounter):
            counter = cls()
            table = {counter: "entry"}
            bag = {counter}
            counter.increment()
            assert table[counter] == "entry", cls.__name__
            assert counter in bag, cls.__name__

    def test_equal_values_do_not_collide_as_keys(self):
        # Identity hashing means two equal-valued counters are distinct
        # keys — equality is for reading, identity is for containment.
        first, second = AtomicCounter(5), AtomicCounter(5)
        assert first == second
        assert len({first: 1, second: 2}) == 2


class TestEqNePair:
    def test_eq_returns_notimplemented_for_foreign_types(self):
        counter = AtomicCounter(3)
        assert counter.__eq__("3") is NotImplemented
        assert counter.__ne__("3") is NotImplemented
        # Python then falls back to identity:
        assert counter != "3"
        assert not (counter == "3")

    def test_ne_mirrors_eq(self):
        counter = AtomicCounter(3)
        for other in (3, 3.0, AtomicCounter(3), LockedAtomicCounter(3)):
            assert counter == other
            assert not (counter != other)
        for other in (4, 2.5, AtomicCounter(4), LockedAtomicCounter(4)):
            assert counter != other
            assert not (counter == other)


class TestLockedCounterReadsTakeTheLock:
    def test_get_and_int_facade_acquire(self):
        counter = LockedAtomicCounter(5)
        probe = probed(counter)
        assert counter.get() == 5
        assert int(counter) == 5
        assert bool(counter) is True
        assert probe.acquisitions == 3

    def test_comparisons_acquire(self):
        counter = LockedAtomicCounter(5)
        probe = probed(counter)
        assert counter == 5
        assert counter != 4
        assert counter < 6
        assert counter <= 5
        assert counter > 4
        assert counter >= 5
        assert probe.acquisitions == 6

    def test_arithmetic_acquires(self):
        counter = LockedAtomicCounter(6)
        probe = probed(counter)
        assert counter + 1 == 7
        assert 10 - counter == 4
        assert counter * 2 == 12
        assert counter / 2 == 3.0
        assert counter // 4 == 1
        assert counter % 4 == 2
        assert probe.acquisitions == 6

    def test_locked_counter_on_either_side_is_read_under_its_lock(self):
        left = LockedAtomicCounter(7)
        right = LockedAtomicCounter(7)
        left_probe, right_probe = probed(left), probed(right)
        assert left == right
        assert left_probe.acquisitions == 1
        assert right_probe.acquisitions == 1
        # A plain counter comparing against a locked one still locks
        # the locked side (reads route through other.get()).
        plain = AtomicCounter(7)
        assert plain == right
        assert plain < right + 1
        assert right_probe.acquisitions == 3

