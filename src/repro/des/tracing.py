"""Structured simulation traces.

A :class:`TraceRecorder` collects :class:`TraceEvent` records --
``(time, category, message, data)`` tuples -- from any component that
was handed the recorder.  A mediator renders each finished allocation
record into it (``Mediator._store``), so a traced run executes the
same code as an untraced one.  It backs:

* the Figure-1 pipeline trace, which shows the stages of one SbQA
  mediation (candidates -> KnBest -> intentions -> scores -> allocation);
* integration tests that assert on the sequence of system actions;
* ``sbqa trace``.

Recording is cheap (an append) and can be disabled wholesale or
filtered by category so full-scale experiments are not slowed down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set


@dataclass(frozen=True)
class TraceEvent:
    """One recorded fact about the simulation."""

    time: float
    category: str
    message: str
    data: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        """Human-readable single-line rendering."""
        extra = ""
        if self.data:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.data.items()))
            extra = f" [{parts}]"
        return f"t={self.time:10.3f}  {self.category:<12} {self.message}{extra}"


class TraceRecorder:
    """Collects trace events, optionally filtered by category.

    Parameters
    ----------
    enabled:
        Master switch; a disabled recorder drops everything.
    categories:
        If given, only these categories are kept.
    capacity:
        Optional ring-buffer bound; oldest events are dropped once the
        bound is reached, so long runs cannot exhaust memory.
    """

    def __init__(
        self,
        enabled: bool = True,
        categories: Optional[Iterable[str]] = None,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.enabled = enabled
        self._categories: Optional[Set[str]] = set(categories) if categories else None
        self._capacity = capacity
        self._events: List[TraceEvent] = []
        self.dropped = 0

    def record(self, time: float, category: str, message: str, **data: Any) -> None:
        """Record one event (no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        if self._categories is not None and category not in self._categories:
            return
        self._events.append(TraceEvent(time=time, category=category, message=message, data=data))
        if self._capacity is not None and len(self._events) > self._capacity:
            overflow = len(self._events) - self._capacity
            del self._events[:overflow]
            self.dropped += overflow

    # -- access -----------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """All retained events in recording order (defensive copy)."""
        return list(self._events)

    def by_category(self, category: str) -> List[TraceEvent]:
        """Retained events of one category."""
        return [e for e in self._events if e.category == category]

    def categories(self) -> Set[str]:
        """Distinct categories seen."""
        return {e.category for e in self._events}

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def clear(self) -> None:
        """Drop all retained events and reset the drop counter."""
        self._events.clear()
        self.dropped = 0

    def format(self, limit: Optional[int] = None) -> str:
        """Multi-line rendering of (up to ``limit``) retained events."""
        events = self._events if limit is None else self._events[:limit]
        return "\n".join(e.format() for e in events)


#: A recorder that drops everything; safe default for components that
#: take an optional recorder.
NULL_RECORDER = TraceRecorder(enabled=False)
