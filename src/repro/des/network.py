"""Latency-modelled message delivery between entities.

The demo prototype simulated its network with SimJava; here a
:class:`Network` pairs a :class:`LatencyModel` with the simulator: a
``send`` schedules the destination entity's
:meth:`~repro.des.entity.Entity.receive` after the modelled delay.

Latency models provided:

* :class:`ZeroLatency` -- everything is instantaneous (unit tests,
  micro-benchmarks where network time is noise);
* :class:`UniformLatency` -- one-way delay drawn uniformly from
  ``[low, high]``, the classic SimJava-style parameterisation;
* :class:`FixedLatency` -- constant delay, convenient for exact-time
  assertions in tests.

Messages carry a ``kind`` string and an arbitrary payload; entities
dispatch on ``kind``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.des.entity import Entity
from repro.des.rng import RandomStream
from repro.des.scheduler import Simulator


@dataclass(frozen=True)
class Message:
    """An in-flight or delivered simulation message."""

    kind: str
    sender: Entity
    recipient: Entity
    payload: Any = None
    sent_at: float = 0.0
    delivered_at: float = 0.0

    @property
    def latency(self) -> float:
        """One-way delay this message experienced."""
        return self.delivered_at - self.sent_at


class LatencyModel:
    """Strategy interface: one-way delay for a (src, dst) pair."""

    def delay(self, sender: Entity, recipient: Entity) -> float:
        raise NotImplementedError

    def constant_delay(self) -> Optional[float]:
        """The one-way delay if it is deterministic and pair-independent.

        Returns ``None`` when delays vary (randomly or per pair).  A
        non-None value is a promise that :meth:`delay` returns exactly
        this float for every pair *without consuming randomness*, which
        is what lets the fast engine compute consultation round-trips
        analytically and collapse dispatch deliveries into one event
        (see :mod:`repro.core.engine`).  ``None`` costs a run that
        collapse and nothing else: every delivery stays one event whose
        delay is drawn at send time, and the consultation round-trips
        are drawn by :meth:`worst_round_trip`; the fast engine's
        decision stage does not read the latency model and runs either
        way.
        """
        return None

    def worst_round_trip(self, mediator: Entity, consumer: Entity, informed) -> float:
        """The slowest of the parallel consultation round-trips.

        One request/reply exchange with the consumer, then one with
        each informed provider in order; the slowest pair gates the
        dispatch.  This default calls :meth:`delay` once per direction
        per pair, so any model is correct through it; an override must
        draw the same values from the same stream in the same order.
        """
        worst = self.delay(mediator, consumer) + self.delay(consumer, mediator)
        for provider in informed:
            rtt = self.delay(mediator, provider) + self.delay(provider, mediator)
            if rtt > worst:
                worst = rtt
        return worst


class ZeroLatency(LatencyModel):
    """No network delay at all."""

    def delay(self, sender: Entity, recipient: Entity) -> float:
        return 0.0

    def constant_delay(self) -> Optional[float]:
        return 0.0

    def __repr__(self) -> str:
        return "ZeroLatency()"


class FixedLatency(LatencyModel):
    """Constant one-way delay."""

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency must be non-negative, got {seconds}")
        self.seconds = float(seconds)

    def delay(self, sender: Entity, recipient: Entity) -> float:
        return self.seconds

    def constant_delay(self) -> Optional[float]:
        return self.seconds

    def __repr__(self) -> str:
        return f"FixedLatency({self.seconds})"


class UniformLatency(LatencyModel):
    """One-way delay uniform in ``[low, high]``, drawn from a named stream."""

    def __init__(self, low: float, high: float, stream: RandomStream) -> None:
        if low < 0 or high < low:
            raise ValueError(f"need 0 <= low <= high, got low={low}, high={high}")
        self.low = float(low)
        self.high = float(high)
        self._stream = stream

    def delay(self, sender: Entity, recipient: Entity) -> float:
        if self.low == self.high:
            return self.low
        return self._stream.uniform(self.low, self.high)

    def constant_delay(self) -> Optional[float]:
        # A degenerate band short-circuits before the stream is touched
        # (see delay()), so it qualifies as deterministic.
        return self.low if self.low == self.high else None

    def worst_round_trip(self, mediator: Entity, consumer: Entity, informed) -> float:
        # The default's 2 * (|informed| + 1) delay() -> uniform() ->
        # random() chains as one loop: delay() ignores the pair, so the
        # same ``low + (high - low) * random()`` values leave the same
        # stream in the same order.  A degenerate band never touches it.
        low = self.low
        if low == self.high:
            return low + low
        span = self.high - low
        random = self._stream._rng.random
        worst = (low + span * random()) + (low + span * random())
        for _ in informed:
            rtt = (low + span * random()) + (low + span * random())
            if rtt > worst:
                worst = rtt
        return worst

    def __repr__(self) -> str:
        return f"UniformLatency([{self.low}, {self.high}])"


class Network:
    """Delivers messages between entities with modelled latency.

    Also keeps simple counters so experiments can report message volume
    (mediation has a 2-message overhead per consulted provider in SbQA,
    which the KnBest paper motivates bounding via ``k``).
    """

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else ZeroLatency()
        self.messages_sent = 0
        self.messages_delivered = 0

    def send(self, kind: str, sender: Entity, recipient: Entity, payload: Any = None) -> Message:
        """Schedule delivery of a message; returns the in-flight message."""
        delay = self.latency.delay(sender, recipient)
        if delay < 0:
            raise ValueError(f"latency model produced negative delay {delay}")
        sent_at = self.sim.now
        message = Message(
            kind=kind,
            sender=sender,
            recipient=recipient,
            payload=payload,
            sent_at=sent_at,
            delivered_at=sent_at + delay,
        )
        self.messages_sent += 1

        def deliver() -> None:
            self.messages_delivered += 1
            recipient.receive(message)

        self.sim.schedule_in(delay, deliver, label=f"deliver:{kind}->{recipient.name}")
        return message

    def __repr__(self) -> str:
        return (
            f"Network(latency={self.latency!r}, sent={self.messages_sent}, "
            f"delivered={self.messages_delivered})"
        )
