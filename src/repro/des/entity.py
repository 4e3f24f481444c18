"""Simulation entities.

An :class:`Entity` is a named actor bound to a
:class:`~repro.des.scheduler.Simulator`.  Consumers, providers and the
mediator all derive from it.  The base class provides:

* identity (``entity_id`` unique per simulator binding, plus a
  human-readable ``name``);
* scheduling sugar (:meth:`call_in`, :meth:`call_at`);
* a message inbox hook (:meth:`receive`) used by
  :class:`~repro.des.network.Network` delivery.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.des.events import EventHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.network import Message
    from repro.des.scheduler import Simulator

_entity_counter = itertools.count()


class Entity:
    """A named actor in the simulation."""

    #: Message kinds this entity can receive without a
    #: :class:`~repro.des.network.Message` envelope: kind -> name of the
    #: bound method taking the bare payload.  The fast engine's network
    #: (:class:`repro.core.engine.FastNetwork`) uses this to deliver
    #: payloads directly; kinds absent from the map fall back to the
    #: envelope path and :meth:`receive`, preserving the loud-failure
    #: behaviour for unexpected messages.
    FAST_HANDLERS: "Dict[str, str]" = {}

    def __init__(self, sim: "Simulator", name: str) -> None:
        if not name:
            raise ValueError("entity name must be non-empty")
        self.sim = sim
        self.name = name
        self.entity_id = next(_entity_counter)

    # -- scheduling sugar ----------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    def call_in(self, delay: float, action: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``action`` after ``delay`` seconds of simulated time."""
        return self.sim.schedule_in(delay, action, label=label or f"{self.name}:call_in")

    def call_at(self, time: float, action: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``action`` at absolute simulation time ``time``."""
        return self.sim.schedule_at(time, action, label=label or f"{self.name}:call_at")

    # -- messaging hook --------------------------------------------------

    def fast_handler(self, kind: str) -> "Optional[Callable[[Any], None]]":
        """The bound payload handler for ``kind``, or None.

        Resolved once per entity instance from :attr:`FAST_HANDLERS`
        and cached, so the per-send cost in the fast engine is one dict
        lookup.
        """
        cache = self.__dict__.get("_fast_handlers")
        if cache is None:
            cache = {
                kind: getattr(self, method_name)
                for kind, method_name in self.FAST_HANDLERS.items()
            }
            self._fast_handlers = cache
        return cache.get(kind)

    def receive(self, message: "Message") -> None:
        """Handle a delivered message.

        The base implementation raises so that wiring errors (a message
        routed to an entity that does not expect any) fail loudly
        instead of vanishing.
        """
        raise NotImplementedError(
            f"{type(self).__name__} {self.name!r} received unexpected message "
            f"{message.kind!r}"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class RecordingEntity(Entity):
    """An entity that stores every received message; used in tests."""

    def __init__(self, sim: "Simulator", name: str) -> None:
        super().__init__(sim, name)
        self.inbox: list = []

    def receive(self, message: "Message") -> None:
        self.inbox.append(message)

    def payloads(self) -> list:
        """The payloads of all received messages, in delivery order."""
        return [m.payload for m in self.inbox]


def format_entity(entity: Entity) -> str:
    """Stable display string ``name#id`` used in traces."""
    return f"{entity.name}#{entity.entity_id}"
