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
        #: Events the running ``run_until_idle`` may still execute,
        #: popped or inline (None: unbounded).
        self._left = None

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

    def claim_inline_slot(self):
        """An event run inline by its caller: charged like a pop, and
        refused only when the run's budget is spent."""
        if self._left is not None:
            if self._left <= 0:
                return False
            self._left -= 1
        self.events_run += 1
        return True

    def run_until_idle(self, max_events=None):
        started = self.events_run
        self._left = max_events
        try:
            while self._entries:
                if self._left is not None:
                    if self._left <= 0:
                        raise SimulationError(
                            "simulation did not quiesce within %d events" % max_events
                        )
                    self._left -= 1
                callback = self.pop()
                self.events_run += 1
                callback()
        finally:
            self._left = None
        return self.events_run - started


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

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("budget", [1, 7, 23])
    def test_inline_claims_spend_the_budget(self, seed, budget):
        """`claim_inline_slot()` is granted whatever is queued at the
        current instant and charged like a popped event; it is refused
        only when the `max_events` budget is spent. Both engines grant
        the same claims, fire the same prefix and raise at the same
        point, FIFO and with shuffled ties."""

        def run(sim):
            rng = random.Random(seed)
            fired = []

            def make_event(label):
                def fire():
                    claimed = sim.claim_inline_slot() if rng.random() < 0.5 else None
                    fired.append((label, sim.now, claimed))
                    if rng.random() < 0.4:
                        sim.schedule_at(
                            sim.now + rng.choice((0.0, 1.0)),
                            make_event((label, "child")),
                        )

                return fire

            for index in range(20):
                sim.schedule_at(rng.choice(GRID), make_event(index))
            try:
                executed = sim.run_until_idle(max_events=budget)
            except SimulationError:
                return fired, "raised", int(sim.events_run)
            return fired, executed, int(sim.events_run)

        fifo = run(Simulator())
        assert fifo == run(ReferenceSimulator())
        assert run(shuffled(seed)) == run(ReferenceSimulator(rng=random.Random(seed)))
        claims = [entry[-1] for entry in fifo[0] if entry[-1] is not None]
        if fifo[1] == "raised":
            assert fifo[2] == budget  # pops and granted claims fill it exactly
        else:
            assert all(claims)

    @pytest.mark.parametrize("tie_seed", [None, 0, 1, 2])
    @pytest.mark.parametrize("children", [0, 1, 3])
    def test_rescheduling_into_the_instant_a_callback_just_emptied(
        self, children, tie_seed
    ):
        """A bucket retires with its last entry, so a callback that
        schedules back into its own instant opens a fresh bucket there.
        Nothing can tell (`sim.events` docstring): same dispatch order
        as the reference, FIFO and shuffled, and `claim_inline_slot()`
        granted and charged alike — before the callback re-fills the
        instant and after."""

        def run(sim):
            fired = []

            def make_event(label, depth):
                def fire():
                    fired.append((label, sim.now, sim.claim_inline_slot()))
                    if depth < 2:
                        for child in range(children):
                            sim.schedule_at(sim.now, make_event((label, child), depth + 1))
                        fired.append(("refilled", sim.claim_inline_slot()))

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
        real = run(real_sim)
        reference = run(reference_sim)
        assert real == reference
        assert all(entry[-1] for entry in real[0])  # an unbounded run grants every claim
        # Popped plus inline-claimed events, counted alike on both sides.
        popped = 6 * (1 + children + children**2)  # depths 0, 1 and 2
        assert real[1] == real[2] == popped + len(real[0])


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

    def test_claim_inline_slot_leaves_a_bare_head_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("later"))
        assert sim.claim_inline_slot()  # the head is later
        assert sim.pending == 1 and int(sim.events_run) == 1
        head = sim.schedule_at(0.0, lambda: fired.append("head"))
        assert sim.claim_inline_slot()  # a bare head at now does not refuse it
        assert sim._buckets[0.0] is head and head.callback is not None
        assert sim.pending == 2 and int(sim.events_run) == 2
        assert sim.run_until_idle() == 2
        assert fired == ["head", "later"] and int(sim.events_run) == 4

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
