"""Tests for the discrete-event loop."""

from __future__ import annotations

import pytest

from repro.platform.events import EventLoop


class TestScheduling:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(5.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(10.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == 10.0
        assert loop.processed_events == 3

    def test_fifo_tie_breaking(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("first"))
        loop.schedule(1.0, lambda: order.append("second"))
        loop.run()
        assert order == ["first", "second"]

    def test_schedule_at_absolute_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(3.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [3.0]

    def test_cannot_schedule_in_the_past(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: loop.schedule(0.5, lambda: None))
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)
        # Nested scheduling relative to "now" inside a callback is fine.
        loop.run()

    def test_schedule_at_past_rejected(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        loop = EventLoop()
        seen = []

        def chain():
            seen.append(loop.now)
            if len(seen) < 3:
                loop.schedule(2.0, chain)

        loop.schedule(1.0, chain)
        loop.run()
        assert seen == [1.0, 3.0, 5.0]


class TestSameTimestampBatch:
    def test_earlier_callback_cancels_later_one_in_same_batch(self):
        loop = EventLoop()
        order = []

        def first():
            order.append("a")
            later.cancel()

        loop.schedule(1.0, first)
        later = loop.schedule(1.0, lambda: order.append("cancelled"))
        loop.schedule(1.0, lambda: order.append("a2"))
        loop.run()
        assert order == ["a", "a2"]
        assert loop.processed_events == 2

    def test_callback_scheduling_at_own_timestamp_runs_after_batch(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append(("b", loop.now)))
        loop.schedule(1.0, lambda: order.append(("a", loop.now)))
        handle = loop.schedule(1.0, lambda: order.append(("cancelled", loop.now)))
        loop.schedule(1.0, lambda: order.append(("a2", loop.now)))
        handle.cancel()
        loop.schedule(
            2.0, lambda: loop.schedule(0.0, lambda: order.append(("c", loop.now)))
        )
        loop.schedule(2.0, lambda: order.append(("d", loop.now)))
        loop.run()
        assert order == [("a", 1.0), ("a2", 1.0), ("b", 2.0), ("d", 2.0), ("c", 2.0)]

    def test_large_batch_drains_fifo(self):
        loop = EventLoop()
        hits = []
        for i in range(300):
            loop.schedule(1.0, lambda i=i: hits.append(i))
        later = []
        loop.schedule(2.0, lambda: later.append(loop.now))
        loop.run()
        assert hits == list(range(300))
        assert later == [2.0]
        assert loop.processed_events == 301
        assert loop.pending_events == 0


class _ListSource:
    """A submission source over fixed timestamps that logs each emit."""

    def __init__(self, loop: EventLoop, times: list[float], log: list) -> None:
        self._loop = loop
        self._times = times
        self._index = 0
        self._log = log

    def next_time(self) -> float | None:
        return self._times[self._index] if self._index < len(self._times) else None

    def emit_next(self) -> float | None:
        self._log.append(("submit", self._loop.now))
        self._index += 1
        return self.next_time()


class TestSubmissionSource:
    def test_source_merges_in_time_order_and_wins_ties(self):
        loop = EventLoop()
        log = []
        loop.schedule(1.0, lambda: log.append(("event", loop.now)))
        loop.schedule(2.0, lambda: log.append(("event", loop.now)))
        source = _ListSource(loop, [1.0, 1.5, 3.0], log)
        assert loop.run(until_seconds=2.5, source=source) == 2.5
        assert log == [
            ("submit", 1.0),
            ("event", 1.0),
            ("submit", 1.5),
            ("event", 2.0),
        ]
        assert loop.processed_events == 4
        loop.run(source=source)
        assert log[-1] == ("submit", 3.0)
        assert loop.processed_events == 5


class TestCancellationAndHorizon:
    def test_cancelled_event_does_not_run(self):
        loop = EventLoop()
        seen = []
        handle = loop.schedule(1.0, lambda: seen.append("x"))
        handle.cancel()
        assert handle.cancelled
        loop.run()
        assert seen == []

    def test_run_until_horizon_leaves_future_events(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append("early"))
        loop.schedule(100.0, lambda: seen.append("late"))
        loop.run(until_seconds=10.0)
        assert seen == ["early"]
        assert loop.now == 10.0
        assert loop.pending_events == 1
        loop.run()
        assert seen == ["early", "late"]

    def test_horizon_is_inclusive_for_events_and_submissions(self):
        loop = EventLoop()
        log = []
        loop.schedule(10.0, lambda: log.append(("event", loop.now)))
        loop.schedule(10.5, lambda: log.append(("event", loop.now)))
        source = _ListSource(loop, [10.0, 11.0], log)
        loop.run(until_seconds=10.0, source=source)
        assert log == [("submit", 10.0), ("event", 10.0)]
        assert loop.now == 10.0

    def test_cancelled_events_do_not_advance_the_clock(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(5.0, lambda: None).cancel()
        assert loop.pending_events == 2  # cancelled events stay queued
        assert loop.run() == 1.0
        assert loop.pending_events == 0
        assert loop.processed_events == 1

    def test_step_processes_single_event(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(1.5, lambda: seen.append("dropped")).cancel()
        loop.schedule(2.0, lambda: seen.append(2))
        assert loop.step() is True
        assert seen == [1]
        assert loop.step() is True
        assert seen == [1, 2]
        assert loop.step() is False
