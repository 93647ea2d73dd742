"""Calendar-queue equivalence: randomized wheel-vs-reference property suite.

The event core stores events in per-timestamp buckets anchored by a
small heap of distinct timestamps (`sim.events` module docstring). Its
correctness claim is *total-order equivalence* with a flat list of
``(time, seq)`` entries that runs the least time first and, of that
time's entries in scheduling order, the first — or, with ties shuffled
by an RNG, entry ``rng.randrange(n)`` of the ``n >= 2`` tied ones —
event for event, through nested scheduling and exact `max_events`
budgets. This suite checks the claim against an independent reference
implementation (written here, not shared code) across randomized
workloads built to collide timestamps hard.
"""

import itertools
import random
from collections import deque

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulator, shuffled_ties

#: Discrete time grid — few distinct values, many collisions, which is
#: exactly the regime the calendar queue reorganised storage for.
GRID = (0.0, 1.0, 1.0, 2.0, 2.5, 3.0)


def shuffled(seed):
    """A simulator whose ties are shuffled by ``Random(seed)``."""
    with shuffled_ties(random.Random(seed)):
        return Simulator()


class ReferenceSimulator:
    """The specification, reimplemented minimally: a flat list of
    ``(time, seq, callback)``. The next event has the least time; of
    the ``n`` entries at that time, in scheduling order, it is the
    first, or entry ``rng.randrange(n)`` when ties are shuffled and
    ``n >= 2``. The wheel must match it event for event."""

    def __init__(self, rng=None):
        self._entries = []
        self._seq = itertools.count()
        self.rng = rng
        self.now = 0.0
        self.events_run = 0

    def schedule_at(self, time, callback):
        if time < self.now:
            raise SimulationError("cannot schedule into the past")
        self._entries.append((time, next(self._seq), callback))

    def pending_times(self):
        return [time for time, _seq, _callback in self._entries]

    def pop(self):
        """Remove the next event, advance the clock to it, and return
        its callback."""
        head = min(self.pending_times())
        ties = [entry for entry in self._entries if entry[0] == head]
        index = 0
        if self.rng is not None and len(ties) > 1:
            index = self.rng.randrange(len(ties))
        entry = ties[index]
        self._entries.remove(entry)
        self.now = head
        return entry[2]

    def run_until_idle(self, max_events=None):
        executed = 0
        while self._entries:
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    "simulation did not quiesce within %d events" % max_events
                )
            callback = self.pop()
            executed += 1
            self.events_run += 1
            callback()
        return executed


def drive_workload(sim, seed, initial=40, depth_limit=2):
    """Run one seeded workload against ``sim`` (real or reference).

    Events fire on a collision-heavy grid; a firing event may schedule
    nested events (including same-instant ones, which must join the
    draining bucket in order).
    All random draws come from a workload-private RNG, so two engines
    executing events in the same order make identical draws — any
    order divergence shows up as diverging fired-label sequences.
    """
    rng = random.Random(seed)
    fired = []

    def make_event(label, depth):
        def fire():
            fired.append((label, sim.now))
            if depth < depth_limit and rng.random() < 0.5:
                for child in range(rng.randrange(1, 3)):
                    delay = rng.choice((0.0, 0.0, 0.5, 1.0))
                    sim.schedule_at(sim.now + delay, make_event((label, child), depth + 1))

        return fire

    for index in range(initial):
        time = rng.choice(GRID)
        sim.schedule_at(time, make_event(index, 0))
    sim.run_until_idle(max_events=100_000)
    return fired


class TestWheelHeapEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_fifo_order_matches_reference(self, seed):
        real = drive_workload(Simulator(), seed)
        reference = drive_workload(ReferenceSimulator(), seed)
        assert real == reference

    @pytest.mark.parametrize("seed", range(12))
    def test_perturbed_order_matches_reference(self, seed):
        # Separate but identically seeded tie RNGs: both engines draw
        # once per pop from a tie of two or more, in pop order.
        real = drive_workload(shuffled(seed + 1000), seed)
        reference = drive_workload(
            ReferenceSimulator(rng=random.Random(seed + 1000)), seed
        )
        assert real == reference

    def test_perturbed_policy_diverges_from_fifo(self):
        """The sanitizer's perturbation must actually perturb: on a
        collision-heavy workload some same-instant group runs in a
        different order than FIFO (time order itself never changes)."""
        diverged = False
        for seed in range(8):
            fifo = drive_workload(Simulator(), seed)
            perturbed = drive_workload(shuffled(seed), seed)
            assert [time for _label, time in fifo] == sorted(
                time for _label, time in fifo
            )
            if fifo != perturbed:
                diverged = True
        assert diverged

    @pytest.mark.parametrize("seed", range(4))
    def test_step_pops_like_the_run_loop(self, seed):
        """`step` and the run loop share the tie rule: stepping a
        shuffled simulator to idle fires what the reference fires."""

        class Stepped:
            def __init__(self, sim):
                self.sim = sim

            def __getattr__(self, name):
                return getattr(self.sim, name)

            def run_until_idle(self, max_events=None):
                while self.sim.step():
                    pass

        real = drive_workload(Stepped(shuffled(seed)), seed)
        reference = drive_workload(ReferenceSimulator(rng=random.Random(seed)), seed)
        assert real == reference

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("budget", [1, 7, 23])
    def test_budget_exhaustion_matches_reference(self, seed, budget):
        """`max_events` is exact in both engines: same fired prefix,
        and both raise (or both finish) at the same point."""

        def run(sim):
            rng = random.Random(seed)
            fired = []

            def make_event(label):
                def fire():
                    fired.append(label)
                    if rng.random() < 0.4:
                        sim.schedule_at(
                            sim.now + rng.choice((0.0, 1.0)),
                            make_event((label, "child")),
                        )

                return fire

            for index in range(20):
                sim.schedule_at(rng.choice(GRID), make_event(index))
            try:
                sim.run_until_idle(max_events=budget)
            except SimulationError:
                return fired, "raised"
            return fired, "quiesced"

        assert run(Simulator()) == run(ReferenceSimulator())
        assert run(shuffled(seed)) == run(ReferenceSimulator(rng=random.Random(seed)))

    @pytest.mark.parametrize("seed", range(8))
    def test_inline_claim_agrees_with_reference_head(self, seed):
        """`claim_inline_slot(now)` may succeed exactly when every
        queued event is strictly later than ``now`` — the condition the
        reference can state directly. A granted claim is charged like
        an executed event. Checked with FIFO and with shuffled ties,
        whose pops before the claim must match the reference's too."""
        for tie_seed in (None, seed + 2000):
            rng = random.Random(seed)
            if tie_seed is None:
                real, reference = Simulator(), ReferenceSimulator()
            else:
                real = shuffled(tie_seed)
                reference = ReferenceSimulator(rng=random.Random(tie_seed))
            real_fired, reference_fired = [], []
            for index in range(rng.randrange(1, 30)):
                time = rng.choice(GRID)
                real.schedule_at(time, lambda index=index: real_fired.append(index))
                reference.schedule_at(
                    time, lambda index=index: reference_fired.append(index)
                )
            horizon = rng.choice((0.0, 0.5, 1.0, 2.0, 3.0))
            real.run_until(horizon)
            while reference._entries and min(reference.pending_times()) < horizon:
                reference.pop()()
            reference.now = max(reference.now, horizon)
            assert real_fired == reference_fired
            expected = all(time > reference.now for time in reference.pending_times())
            before = real.events_run.get()
            assert real.claim_inline_slot(real.now) is expected
            assert real.events_run.get() - before == (1 if expected else 0)

    @pytest.mark.parametrize("tie_seed", [None, 0, 1, 2])
    @pytest.mark.parametrize("children", [0, 1, 3])
    def test_rescheduling_into_the_instant_a_callback_just_emptied(
        self, children, tie_seed
    ):
        """A bucket retires with its last entry, so a callback that
        schedules back into its own instant opens a fresh bucket there.
        Nothing can tell (`sim.events` docstring): same dispatch order
        as the reference, FIFO and shuffled, and
        `claim_inline_slot(now)` granted exactly when the reference
        holds no event at or before ``now`` — before the callback
        re-fills the instant and after."""

        def reference_claim(reference):
            if any(time <= reference.now for time in reference.pending_times()):
                return False
            reference.events_run += 1  # a granted claim is an executed event
            return True

        def run(sim, claim):
            fired = []

            def make_event(label, depth):
                def fire():
                    fired.append((label, sim.now, claim(sim)))
                    if depth < 2:
                        for child in range(children):
                            sim.schedule_at(sim.now, make_event((label, child), depth + 1))
                        fired.append(("refilled", claim(sim)))

                return fire

            for index in range(6):  # two events an instant
                sim.schedule_at(float(index % 3), make_event(index, 0))
            executed = sim.run_until_idle(max_events=10_000)
            return fired, executed, int(sim.events_run)

        if tie_seed is None:
            real_sim, reference_sim = Simulator(), ReferenceSimulator()
        else:
            real_sim = shuffled(tie_seed)
            reference_sim = ReferenceSimulator(rng=random.Random(tie_seed))
        real = run(real_sim, lambda sim: sim.claim_inline_slot(sim.now))
        reference = run(reference_sim, reference_claim)
        assert real[0] == reference[0]
        granted = sum(1 for entry in real[0] if entry[-1])
        assert granted >= 3  # the last event of each instant, at least
        # Popped plus inline-claimed events, counted alike on both sides.
        assert real[2] == reference[2] == reference[1] + granted


class TestBareHandles:
    """An instant's lone event is stored as its bare handle; the second
    event at that instant moves both into a deque, in order."""

    def test_a_bare_handle_grows_into_a_deque(self):
        sim = Simulator()
        fired = []
        first = sim.schedule_at(1.0, lambda: fired.append("first"))
        assert sim._buckets[1.0] is first
        sim.schedule_pooled(1.0, lambda: fired.append("second"))
        sim.schedule_at_pooled(1.0, lambda: fired.append("third"))
        bucket = sim._buckets[1.0]
        assert isinstance(bucket, deque) and bucket[0] is first and len(bucket) == 3
        sim.schedule_at(2.0, lambda: fired.append("later"))
        sim.run_until_idle()
        assert fired == ["first", "second", "third", "later"]
        assert not sim._buckets and not sim._times
        assert sim._bucket_pool == [bucket]  # only the deque is recycled

    def test_claim_inline_slot_refuses_a_bare_head_at_now(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        assert sim.claim_inline_slot(0.0)  # the head is later
        assert sim.pending == 1 and int(sim.events_run) == 1
        head = sim.schedule_at(0.0, lambda: None)
        assert sim._buckets[0.0] is head
        assert not sim.claim_inline_slot(0.0)  # the bare head is next
        assert sim.pending == 2 and int(sim.events_run) == 1

    def test_step_retires_a_bare_head_without_pooling_it(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("first"))
        sim.schedule_at(2.0, lambda: fired.append("second"))
        assert sim.step()
        assert fired == ["first"] and sim.now == 1.0 and int(sim.events_run) == 1
        assert list(sim._buckets) == [2.0] and sim._times == [2.0]
        assert sim.step() and not sim.step()
        assert sim.pending == 0 and not sim._buckets and not sim._bucket_pool

    def test_pending_counts_bare_handles(self):
        sim = Simulator()
        for time in (1.0, 2.0, 3.0):
            sim.schedule_at(time, lambda: None)
        assert sim.pending == 3
        sim.schedule_pooled(1.0, lambda: None)  # joins 1.0's bare handle
        sim.schedule_at_pooled(4.0, lambda: None)
        assert sim.pending == 5
        assert sim.run_until_idle() == 5
