"""Providers: the volunteers donating capacity.

A provider is a simulation entity with

* a **service model**: a FIFO work queue over a fixed ``capacity``
  (work units per second).  A query with demand ``d`` occupies it for
  ``d / capacity`` seconds after any backlog drains;
* **utilization** in [0, 1]: the queued backlog expressed in seconds,
  normalised by a ``saturation_horizon`` -- the backlog at which the
  provider considers itself saturated.  KnBest stage 2 and the
  capacity-based baseline read this;
* **preferences** over consumers and topics in [-1, 1], from which its
  :class:`~repro.core.intentions.ProviderIntentionModel` computes the
  intentions ``PI_q[p]`` it expresses to the mediator;
* a **satisfaction window** over the ``k`` last proposed queries
  (Definition 2), which the churn model reads to decide departures;
* optional **resource shares** per consumer -- the native BOINC
  mechanism ("the fraction of computational resources devoted to each
  consumer") used by the BOINC-shares baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.intentions import (
    PreferenceUtilizationIntentions,
    ProviderIntentionModel,
    clamp_intention,
)
from repro.core.satisfaction import DEFAULT_MEMORY, ProviderSatisfactionTracker
from repro.des.entity import Entity
from repro.des.network import Message, Network
from repro.des.scheduler import Simulator
from repro.system.query import QueryResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.query import AllocationRecord, Query

#: Default backlog (seconds) at which a provider reports utilization 1.
DEFAULT_SATURATION_HORIZON = 120.0


@dataclass
class ProviderStats:
    """Aggregate execution counters for one provider."""

    queries_received: int = 0
    queries_completed: int = 0
    work_units_done: float = 0.0
    busy_seconds: float = 0.0
    work_by_consumer: Dict[str, float] = field(default_factory=dict)

    def record_completion(self, consumer_id: str, demand: float, service_time: float) -> None:
        self.queries_completed += 1
        self.work_units_done += demand
        self.busy_seconds += service_time
        self.work_by_consumer[consumer_id] = (
            self.work_by_consumer.get(consumer_id, 0.0) + demand
        )


class Provider(Entity):
    """A volunteer host serving queries through a FIFO queue.

    Parameters
    ----------
    sim, network:
        Simulation kernel bindings.
    participant_id:
        Stable identifier (also used for deterministic tie-breaks).
    capacity:
        Work units processed per second; must be positive.
    preferences:
        Map of consumer id -> preference in [-1, 1].
    topic_preferences:
        Map of topic -> preference, consulted when no per-consumer
        preference exists.
    default_preference:
        Fallback when neither map matches (0 = indifferent).
    intention_model:
        How ``PI_q[p]`` is computed; defaults to the
        preference/utilization blend.
    memory:
        Window length ``k`` of the satisfaction tracker.
    saturation_horizon:
        Backlog, in seconds, mapped to utilization 1.
    resource_shares:
        Optional BOINC-style fractions per consumer (need not be
        normalised; the shares baseline normalises them).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        participant_id: str,
        capacity: float = 1.0,
        preferences: Optional[Dict[str, float]] = None,
        topic_preferences: Optional[Dict[str, float]] = None,
        default_preference: float = 0.0,
        intention_model: Optional[ProviderIntentionModel] = None,
        memory: int = DEFAULT_MEMORY,
        saturation_horizon: float = DEFAULT_SATURATION_HORIZON,
        resource_shares: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(sim, name=participant_id)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if saturation_horizon <= 0:
            raise ValueError(
                f"saturation_horizon must be positive, got {saturation_horizon}"
            )
        self.network = network
        self.participant_id = participant_id
        self.capacity = float(capacity)
        self.preferences = dict(preferences or {})
        self.topic_preferences = dict(topic_preferences or {})
        self.default_preference = clamp_intention(default_preference)
        self.intention_model = intention_model or PreferenceUtilizationIntentions()
        self.tracker = ProviderSatisfactionTracker(memory=memory)
        self.saturation_horizon = float(saturation_horizon)
        self.resource_shares = dict(resource_shares or {})
        self.stats = ProviderStats()

        # Registry-notification hooks fire on every online-state
        # transition (the registries' capability indexes invalidate
        # their snapshots through them), so they must exist before the
        # first assignment to ``online``.
        self._registry_hooks: list = []
        self._online = True
        self.joined_at = sim.now
        self.left_at: Optional[float] = None
        self.crashes = 0
        self._busy_until = sim.now
        self._pending: Dict[int, object] = {}  # qid -> completion EventHandle

    # ------------------------------------------------------------------
    # Registry notification
    # ------------------------------------------------------------------

    @property
    def online(self) -> bool:
        """Whether this provider is eligible for new allocations.

        Assigning the attribute (directly or via :meth:`leave` /
        :meth:`rejoin` / :meth:`crash`) notifies every subscribed
        registry, which is how the capability indexes of
        :class:`~repro.system.registry.SystemRegistry` stay current.
        """
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        value = bool(value)
        if value == self._online:
            return
        self._online = value
        for hook in self._registry_hooks:
            hook(self)

    def add_registry_hook(self, hook) -> None:
        """Subscribe ``hook(provider)`` to online-state transitions."""
        if hook not in self._registry_hooks:
            self._registry_hooks.append(hook)

    # ------------------------------------------------------------------
    # Preferences and intentions
    # ------------------------------------------------------------------

    def preference_for(self, query: "Query") -> float:
        """Static preference for the query's consumer (or topic)."""
        consumer_id = query.consumer_id
        if consumer_id in self.preferences:
            return self.preferences[consumer_id]
        if query.topic in self.topic_preferences:
            return self.topic_preferences[query.topic]
        return self.default_preference

    def intention_for(self, query: "Query") -> float:
        """``PI_q[p]``: the intention this provider expresses for ``query``."""
        return self.intention_model.intention(self, query)

    # ------------------------------------------------------------------
    # Load model
    # ------------------------------------------------------------------

    @property
    def backlog_seconds(self) -> float:
        """Seconds of queued work remaining (0 when idle)."""
        return max(0.0, self._busy_until - self.sim.now)

    @property
    def utilization(self) -> float:
        """Backlog normalised by the saturation horizon, clamped to [0, 1].

        Read on every KnBest stage-2 sort and every provider intention,
        so the backlog is inlined (same ``max``/``min`` arithmetic as
        :attr:`backlog_seconds`) instead of chaining properties.
        """
        backlog = max(0.0, self._busy_until - self.sim.now)
        return min(1.0, backlog / self.saturation_horizon)

    @property
    def available_capacity(self) -> float:
        """Headroom signal used by the capacity-based baseline [9]."""
        return self.capacity * (1.0 - self.utilization)

    def service_time(self, demand: float) -> float:
        """Seconds of pure service a demand of ``demand`` work units takes."""
        if demand <= 0:
            raise ValueError(f"demand must be positive, got {demand}")
        return demand / self.capacity

    def estimated_completion_delay(self, demand: float) -> float:
        """Backlog plus service time: the delay a new query would see.

        This is the quantity a Mariposa-style provider folds into its
        bid (time is money in the economic baseline).
        """
        return self.backlog_seconds + self.service_time(demand)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    #: Fast-engine direct delivery (see Entity.FAST_HANDLERS).
    FAST_HANDLERS = {"execute": "execute"}

    def receive(self, message: Message) -> None:
        """Entity hook: accept ``execute`` messages from the mediator."""
        if message.kind != "execute":
            raise ValueError(
                f"provider {self.participant_id!r} got unexpected message "
                f"{message.kind!r}"
            )
        record: "AllocationRecord" = message.payload
        self.execute(record)

    def execute(self, record: "AllocationRecord") -> None:
        """Enqueue the query and schedule its completion.

        Providers honour work already accepted even after leaving
        (lame-duck draining), so every allocated query eventually
        completes and the consumer can measure its response time.
        """
        query = record.query
        # Enqueue through begin_execution so the fast engine's batched
        # result drain and this faithful path can never drift apart on
        # the FIFO arithmetic (bit-identity between them is the engine
        # parity contract).
        start, finish, service = self.begin_execution(record)

        def complete() -> None:
            self._pending.pop(query.qid, None)
            result = QueryResult(
                query=query,
                provider_id=self.participant_id,
                started_at=start,
                finished_at=finish,
            )
            self.stats.record_completion(query.consumer_id, query.service_demand, service)
            self.network.send("result", self, query.consumer, payload=(record, result))

        handle = self.sim.schedule_in(
            finish - self.sim.now, complete, label=f"{self.participant_id}:complete:{query.qid}"
        )
        self._pending[query.qid] = handle

    def begin_execution(self, record: "AllocationRecord"):
        """Enqueue one allocated query without scheduling its completion.

        The fast-engine half of :meth:`execute`: identical state
        changes (FIFO enqueue, received counter) at the same instant,
        but the completion event is owned by the caller's batched
        result drain (:class:`repro.core.engine._ResultDrain`), which
        registers a cancellable entry in ``_pending`` itself so
        :meth:`crash` keeps working.  Returns ``(start, finish,
        service)`` for the drain's bookkeeping.
        """
        start = max(self.sim.now, self._busy_until)
        service = self.service_time(record.query.service_demand)
        finish = start + service
        self._busy_until = finish
        self.stats.queries_received += 1
        return start, finish, service

    def finish_execution(self, record: "AllocationRecord", service: float) -> None:
        """Completion bookkeeping at the faithful completion instant.

        Drain hop 1: exactly what the scheduled ``complete`` closure of
        :meth:`execute` does at the same clock value, minus the result
        send (the drain delivers the batched results itself).
        """
        query = record.query
        self._pending.pop(query.qid, None)
        self.stats.record_completion(query.consumer_id, query.service_demand, service)

    # ------------------------------------------------------------------
    # Satisfaction and membership
    # ------------------------------------------------------------------

    def record_proposal(self, intention: float, performed: bool) -> None:
        """Append one proposed query to the Definition-2 window."""
        self.tracker.record_proposal(intention, performed)

    @property
    def satisfaction(self) -> float:
        """delta_s(p), Definition 2 (neutral before any proposal)."""
        return self.tracker.satisfaction()

    def leave(self, now: Optional[float] = None) -> None:
        """Quit the system: stop being eligible for new allocations."""
        if not self.online:
            return
        self.online = False
        self.left_at = self.sim.now if now is None else now

    def rejoin(self) -> None:
        """Return to the system (used by optional churn extensions)."""
        if self.online:
            return
        self.online = True
        self.left_at = None
        self.joined_at = self.sim.now

    @property
    def queries_in_progress(self) -> int:
        """Accepted queries whose results have not been produced yet."""
        return len(self._pending)

    def crash(self) -> int:
        """Fail abruptly: drop the whole backlog, produce no results.

        Unlike :meth:`leave` (graceful departure with lame-duck
        draining), a crash cancels every scheduled completion -- the
        consumers of those queries never receive the results and must
        rely on their own timeouts.  Returns the number of queries
        lost.  The provider goes offline; a failure-injection process
        may :meth:`rejoin` it after a repair time.
        """
        lost = len(self._pending)
        for handle in self._pending.values():
            handle.cancel()  # type: ignore[attr-defined]
        self._pending.clear()
        self._busy_until = self.sim.now
        self.crashes += 1
        self.online = False
        self.left_at = self.sim.now
        return lost

    def __repr__(self) -> str:
        state = "online" if self.online else "offline"
        return (
            f"Provider({self.participant_id!r}, capacity={self.capacity:.3g}, "
            f"util={self.utilization:.2f}, sat={self.satisfaction:.2f}, {state})"
        )
