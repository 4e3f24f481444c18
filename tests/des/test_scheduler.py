"""Unit tests for repro.des.scheduler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des.scheduler import SimulationError, Simulator


class TestClock:
    def test_starts_at_zero_by_default(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=7.5).now == 7.5

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule_at(3.0, lambda: None)
        sim.run()
        assert sim.now == 3.0

    def test_run_until_advances_to_horizon_even_without_events(self, sim):
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_run_until_rejects_past_horizon(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError, match="before current time"):
            sim.run_until(5.0)


class TestScheduling:
    def test_schedule_in_past_raises(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.schedule_at(9.0, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError, match="non-negative"):
            sim.schedule_in(-1.0, lambda: None)

    def test_schedule_at_current_instant_allowed(self, sim):
        fired = []
        sim.schedule_in(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule_at(5.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self, sim):
        order = []
        for tag in "abcde":
            sim.schedule_at(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == list("abcde")

    def test_priority_overrides_fifo_at_same_time(self, sim):
        order = []
        sim.schedule_at(1.0, lambda: order.append("late"), priority=1)
        sim.schedule_at(1.0, lambda: order.append("early"), priority=-1)
        sim.run()
        assert order == ["early", "late"]

    def test_callbacks_can_schedule_more_events(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule_in(1.0, lambda: order.append("second"))

        sim.schedule_at(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_arbitrary_schedules_fire_in_sorted_order(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(times)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert sim.events_fired == 0

    def test_cancelling_one_of_many(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("a"))
        handle = sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        handle.cancel()
        sim.run()
        assert fired == ["a", "c"]

    def test_events_pending_excludes_cancelled(self, sim):
        sim.schedule_at(1.0, lambda: None)
        handle = sim.schedule_at(2.0, lambda: None)
        handle.cancel()
        assert sim.events_pending == 1


class TestRunModes:
    def test_step_fires_exactly_one_event(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(2.0, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_peek_time_shows_next_live_event(self, sim):
        assert sim.peek_time() is None
        handle = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.peek_time() == 1.0
        handle.cancel()
        assert sim.peek_time() == 2.0

    def test_run_until_leaves_future_events_queued(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(5.0, lambda: fired.append("b"))
        sim.run_until(3.0)
        assert fired == ["a"]
        assert sim.events_pending == 1
        sim.run_until(10.0)
        assert fired == ["a", "b"]

    def test_run_returns_fired_count(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        assert sim.run() == 3

    def test_max_events_guards_runaway_loops(self, sim):
        def reschedule():
            sim.schedule_in(1.0, reschedule)

        sim.schedule_in(1.0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_reentrant_run_raises(self, sim):
        def nested():
            sim.run()

        sim.schedule_at(1.0, nested)
        with pytest.raises(SimulationError, match="re-entrantly"):
            sim.run()

    def test_events_fired_counter_accumulates(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert sim.events_fired == 2

    def test_repr_mentions_state(self, sim):
        sim.schedule_at(1.0, lambda: None)
        text = repr(sim)
        assert "pending=1" in text


class TestPostInBatch:
    def test_matches_sequential_post_in(self, sim):
        """Batched insertion fires the same actions at the same times in
        the same order as the equivalent post_in sequence."""
        from repro.des.scheduler import Simulator

        items = [(2.0, "a"), (0.5, "b"), (2.0, "c"), (0.0, "d"), (0.5, "e")]

        def _trace(simulator, post):
            fired = []
            post(simulator, [
                (delay, (lambda t=tag: fired.append((simulator.now, t))))
                for delay, tag in items
            ])
            simulator.run()
            return fired

        def _one_by_one(simulator, entries):
            for delay, action in entries:
                simulator.post_in(delay, action)

        def _batched(simulator, entries):
            simulator.post_in_batch(entries)

        assert _trace(Simulator(), _one_by_one) == _trace(sim, _batched)

    def test_same_instant_preserves_submission_order(self, sim):
        fired = []
        sim.post_in_batch(
            (1.0, (lambda i=i: fired.append(i))) for i in range(20)
        )
        sim.run()
        assert fired == list(range(20))

    def test_interleaves_with_existing_events(self, sim):
        fired = []
        sim.schedule_at(1.5, lambda: fired.append("scheduled"))
        sim.post_in_batch([(1.0, lambda: fired.append("early")),
                           (2.0, lambda: fired.append("late"))])
        sim.run()
        assert fired == ["early", "scheduled", "late"]

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError, match="non-negative"):
            sim.post_in_batch([(1.0, lambda: None), (-0.1, lambda: None)])

    def test_empty_batch_is_noop(self, sim):
        sim.post_in_batch([])
        assert sim.run() == 0

    def test_large_batch_heapify_path(self, sim):
        """A batch larger than the existing heap (where an extend +
        heapify insertion would be tempting): order must still be
        (time, submission)."""
        fired = []
        sim.schedule_at(0.25, lambda: fired.append(-1))
        sim.post_in_batch(
            ((i % 7) * 0.1, (lambda i=i: fired.append(i))) for i in range(50)
        )
        sim.run()
        # within each delay bucket, submission order; buckets by time
        by_time = sorted(
            range(50), key=lambda i: ((i % 7) * 0.1, i)
        )
        reference = (
            [i for i in by_time if (i % 7) * 0.1 < 0.25]
            + [-1]
            + [i for i in by_time if (i % 7) * 0.1 > 0.25]
        )
        assert fired == reference
