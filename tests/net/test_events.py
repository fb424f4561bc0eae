"""Tests for the discrete-event engine."""

import pytest

from repro.net.events import Clock, EventLoop, SECONDS_PER_DAY


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(100.0).now == 100.0

    def test_advance(self):
        clock = Clock()
        clock.advance(5.0)
        assert clock.now == 5.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-1.0)

    def test_advance_to_rewind_rejected(self):
        clock = Clock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)

    def test_day_property(self):
        clock = Clock()
        clock.advance_days(2.5)
        assert clock.day == pytest.approx(2.5)
        assert clock.now == pytest.approx(2.5 * SECONDS_PER_DAY)


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.call_at(3.0, lambda: seen.append("c"))
        loop.call_at(1.0, lambda: seen.append("a"))
        loop.call_at(2.0, lambda: seen.append("b"))
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1.0, lambda: seen.append(1))
        loop.call_at(1.0, lambda: seen.append(2))
        loop.run()
        assert seen == [1, 2]

    def test_clock_follows_events(self):
        loop = EventLoop()
        times = []
        loop.call_at(4.0, lambda: times.append(loop.clock.now))
        loop.run()
        assert times == [4.0]

    def test_run_until_stops_at_deadline(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1.0, lambda: seen.append("early"))
        loop.call_at(10.0, lambda: seen.append("late"))
        loop.run_until(5.0)
        assert seen == ["early"]
        assert loop.clock.now == 5.0
        loop.run()
        assert seen == ["early", "late"]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop(Clock(10.0))
        with pytest.raises(ValueError):
            loop.call_at(5.0, lambda: None)

    def test_call_later(self):
        loop = EventLoop(Clock(100.0))
        fired = []
        loop.call_later(2.5, lambda: fired.append(loop.clock.now))
        loop.run()
        assert fired == [102.5]

    def test_events_can_schedule_events(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append("first")
            loop.call_later(1.0, lambda: seen.append("second"))

        loop.call_at(1.0, first)
        loop.run()
        assert seen == ["first", "second"]
        assert loop.clock.now == 2.0

class TestRunUntilDeadlineBoundary:
    def test_event_exactly_at_deadline_executes(self):
        loop = EventLoop()
        seen = []
        loop.call_at(5.0, lambda: seen.append("edge"))
        loop.run_until(5.0)
        assert seen == ["edge"]
        assert loop.clock.now == 5.0
        assert loop.step() is False

    def test_event_just_past_deadline_waits(self):
        loop = EventLoop()
        seen = []
        loop.call_at(5.0000001, lambda: seen.append("late"))
        loop.run_until(5.0)
        assert seen == []
        assert loop.clock.now == 5.0
        loop.run_until(6.0)
        assert seen == ["late"]
        assert loop.clock.now == 6.0

    def test_event_at_deadline_may_chain_at_the_deadline(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append("first")
            loop.call_later(0.0, lambda: seen.append("chained"))

        loop.call_at(5.0, first)
        loop.run_until(5.0)
        assert seen == ["first", "chained"]

class TestStepAndPeek:
    def test_step_executes_exactly_one_event(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1.0, lambda: seen.append("a"))
        loop.call_at(2.0, lambda: seen.append("b"))
        assert loop.step() is True
        assert seen == ["a"]
        assert loop.clock.now == 1.0
        assert loop.step() is True
        assert seen == ["a", "b"]
        assert loop.clock.now == 2.0

    def test_step_on_empty_queue_returns_false(self):
        loop = EventLoop(Clock(3.0))
        assert loop.step() is False
        assert loop.clock.now == 3.0

    def test_an_overdue_event_lands_at_the_current_time(self):
        """The clock is shared: a direct advance past a pending event
        lands it at ``now``, never rewinding the clock."""
        loop = EventLoop()
        landed = []
        loop.call_at(1.0, lambda: landed.append(loop.clock.now))
        loop.call_at(9.0, lambda: landed.append(loop.clock.now))
        loop.clock.advance(5.0)
        loop.run()
        assert landed == [5.0, 9.0]
        assert loop.clock.now == 9.0

    def test_run_until_lands_overdue_events_at_the_current_time(self):
        loop = EventLoop()
        landed = []
        loop.call_at(1.0, lambda: landed.append(loop.clock.now))
        loop.clock.advance_to(3.0)
        loop.run_until(2.0)
        assert landed == [3.0]
        assert loop.clock.now == 3.0
