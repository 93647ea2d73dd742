"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run_until_idle()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run_until_idle()
        assert log == ["a", "b", "c"]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run_until_idle()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_delay_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        assert sim.pending == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_absolute_time_rejected(self, bad):
        # NaN in particular would silently corrupt heap ordering: every
        # comparison against it is False, so it must be refused up front.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending == 0


class TestInlineSlot:
    def test_claim_granted_when_equal_timestamp_event_queued(self):
        # The inline event is a child of the one now running, at the
        # same instant: running it before a queued same-instant event
        # is a legal order, so the queue is not consulted.
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        assert sim.claim_inline_slot() is True
        assert sim.pending == 1 and sim.events_run == 1

    def test_claim_refused_when_the_budget_is_spent(self):
        sim = Simulator()
        claims = []
        for _ in range(3):
            sim.schedule(0.0, lambda: claims.append(sim.claim_inline_slot()))
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=3)
        # pop, claim, pop, refused claim; the third event stays queued
        assert claims == [True, False]
        assert sim.events_run == 3 and sim.pending == 1

    def test_claim_counts_as_executed_event(self):
        sim = Simulator()
        assert sim.claim_inline_slot() is True
        assert sim.events_run == 1


class TestRunning:
    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_run_until_idle_counts_events(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run_until_idle() == 5
        assert sim.events_run == 5

    def test_run_until_idle_event_bound(self):
        sim = Simulator()

        def rescheduling():
            sim.schedule(1.0, rescheduling)

        sim.schedule(1.0, rescheduling)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_run_until_idle_bound_is_exact(self):
        """Regression: the bound used to fire only after running
        ``max_events + 1`` events; it must be exact — quiescing in
        exactly ``max_events`` succeeds, needing one more raises
        without executing the extra event."""
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run_until_idle(max_events=10) == 10

        sim = Simulator()
        log = []
        for i in range(11):
            sim.schedule(1.0, lambda i=i: log.append(i))
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=10)
        assert log == list(range(10))  # the 11th event never ran
        assert sim.events_run == 10

    def test_run_until_bound_is_exact(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        assert sim.run_until(2.0, max_events=10) == 10

        sim = Simulator()
        for _ in range(11):
            sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(2.0, max_events=10)
        assert sim.events_run == 10

    def test_run_until_advances_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(5.0, lambda: log.append(5))
        sim.run_until(3.0)
        assert log == [1]
        assert sim.now == 3.0
        sim.run_until_idle()
        assert log == [1, 5]

    def test_run_until_does_not_rewind(self):
        sim = Simulator()
        sim.schedule(4.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError, match="current time is 4.0"):
            sim.run_until(2.0)
        assert sim.now == 4.0
        assert sim.run_until(4.0) == 0  # now itself is a legal target
        assert sim.now == 4.0

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_run_until_non_finite_time_rejected(self, bad):
        # An infinite clock would accept every later schedule at inf;
        # NaN would run nothing and say nothing.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="non-finite"):
            sim.run_until(bad)
        assert sim.now == 0.0 and sim.pending == 1

    def test_run_until_past_time_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="cannot run until -5"):
            sim.run_until(-5)
        assert sim.now == 0.0 and sim.pending == 1
