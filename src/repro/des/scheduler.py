"""The simulation event loop.

:class:`Simulator` owns the simulation clock and a binary heap of
pending :class:`~repro.des.events.Event` objects.  Its contract:

* time never moves backwards;
* events fire in ``(time, priority, seq)`` order -- deterministic,
  FIFO among ties;
* an event's callback may schedule further events (at or after the
  current instant);
* cancelled events are skipped (and lazily discarded).

The loop is run either to exhaustion (:meth:`Simulator.run`), up to a
horizon (:meth:`Simulator.run_until`), or one event at a time
(:meth:`Simulator.step`), which tests use to interleave assertions.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.des.events import DEFAULT_PRIORITY, Event, EventHandle


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


class _Posted:
    """Minimal heap payload for fire-and-forget events (:meth:`Simulator.post_in`).

    Carries only the action; ``_cancelled`` is a class attribute (these
    events have no handle, so nothing can cancel them) and the firing
    time lives in the heap entry itself.
    """

    __slots__ = ("action",)

    _cancelled = False
    label = ""

    def __init__(self, action: Callable[[], None]) -> None:
        self.action = action

    @property
    def cancelled(self) -> bool:
        return False

    def __repr__(self) -> str:
        name = getattr(self.action, "__name__", type(self.action).__name__)
        return f"_Posted({name})"


class Simulator:
    """A deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).  Defaults to 0.

    Notes
    -----
    The simulator is single-threaded and re-entrant only in the sense
    that callbacks may schedule new events; calling :meth:`run` from
    inside a callback is an error.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap entries are (time, priority, seq, event): the first three
        # fields decide every heap comparison in C (seq is unique, so
        # the Event in slot 3 never participates), which is measurably
        # cheaper than Event.__lt__'s per-comparison tuple building in
        # event-dense runs.  Firing order is unchanged.
        self._heap: List[tuple] = []
        self._seq = 0
        self._fired = 0
        self._running = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._fired

    @property
    def events_pending(self) -> int:
        """Number of queued events, including not-yet-discarded cancelled ones."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` at absolute simulation ``time``.

        Raises
        ------
        SimulationError
            If ``time`` lies strictly in the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6g}: clock already at t={self._now:.6g}"
            )
        event = Event(time, self._seq, action, priority=priority, label=label)
        heapq.heappush(self._heap, (event.time, event.priority, self._seq, event))
        self._seq += 1
        return EventHandle(event)

    def schedule_in(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` after a non-negative ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, action, priority=priority, label=label)

    def post_in(self, delay: float, action: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`schedule_in` for uncancellable events.

        The hot-path form used by the fast engine's collapsed dispatch
        and batched result drain: identical ordering semantics (same
        time, same default priority, same seq assignment), but no
        :class:`EventHandle` is constructed.
        """
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        seq = self._seq
        heapq.heappush(
            self._heap, (self._now + delay, DEFAULT_PRIORITY, seq, _Posted(action))
        )
        self._seq += 1

    def post_in_batch(self, items) -> None:
        """Batched :meth:`post_in`: insert ``(delay, action)`` pairs at once.

        Same ordering semantics as calling :meth:`post_in` once per
        pair, in iteration order (seq numbers are assigned in that
        order, so tie-breaking among same-instant events is unchanged).
        The win is mechanical: one attribute-resolution of the heap,
        clock and seq per *batch* instead of per event.  Used by the
        fast engine's collapsed dispatch, whose per-allocation drain
        fan-out posts one event per distinct finish instant (1-3).
        """
        heap = self._heap
        now = self._now
        seq = self._seq
        entries = []
        for delay, action in items:
            if delay < 0:
                raise SimulationError(f"delay must be non-negative, got {delay}")
            entries.append((now + delay, DEFAULT_PRIORITY, seq, _Posted(action)))
            seq += 1
        self._seq = seq
        push = heapq.heappush
        for entry in entries:
            push(heap, entry)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Fire the single next event.

        Returns True if an event fired, False if the queue was empty.
        """
        self._drop_cancelled_head()
        if not self._heap:
            return False
        entry = heapq.heappop(self._heap)
        self._advance_clock(entry[0])
        self._fired += 1
        entry[3].action()
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains.

        Parameters
        ----------
        max_events:
            Optional safety valve; raises :class:`SimulationError` when
            exceeded (runaway self-rescheduling loops).

        Returns
        -------
        int
            Number of events fired by this call.
        """
        return self._loop(horizon=None, max_events=max_events)

    def run_until(self, horizon: float, max_events: Optional[int] = None) -> int:
        """Run events with ``time <= horizon``, then set the clock to ``horizon``.

        Events scheduled beyond the horizon stay queued, so the
        simulation can be resumed with a later horizon.
        """
        if horizon < self._now:
            raise SimulationError(
                f"horizon t={horizon:.6g} is before current time t={self._now:.6g}"
            )
        fired = self._loop(horizon=horizon, max_events=max_events)
        self._advance_clock(horizon)
        return fired

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _loop(self, horizon: Optional[float], max_events: Optional[int]) -> int:
        if self._running:
            raise SimulationError("Simulator.run called re-entrantly from a callback")
        self._running = True
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while True:
                while heap and heap[0][3]._cancelled:
                    heappop(heap)
                if not heap:
                    break
                time = heap[0][0]
                if horizon is not None and time > horizon:
                    break
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway event loop?"
                    )
                event = heappop(heap)[3]
                if time < self._now:  # pragma: no cover - heap invariant
                    raise SimulationError(
                        f"clock would move backwards: {self._now:.6g} -> {time:.6g}"
                    )
                self._now = time
                self._fired += 1
                fired += 1
                event.action()
        finally:
            self._running = False
        return fired

    def _advance_clock(self, time: float) -> None:
        if time < self._now:
            raise SimulationError(
                f"clock would move backwards: {self._now:.6g} -> {time:.6g}"
            )
        self._now = time

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heapq.heappop(heap)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now:.6g}, pending={self.events_pending}, "
            f"fired={self._fired})"
        )
