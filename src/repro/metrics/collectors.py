"""The metrics hub: one object that observes a whole simulation run.

Wiring (done by :mod:`repro.experiments.runner`):

* the **mediator** calls :meth:`MetricsHub.record_mediation` for every
  query (success or failure);
* every **consumer** registers the hub's :meth:`record_completion` as a
  completion listener;
* the **churn monitor** registers :meth:`record_departure`;
* :meth:`start_sampling` schedules a periodic sweep that snapshots
  satisfaction, utilization, population and throughput -- the on-line
  curves of Figure 2b.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.analysis.stats import gini, mean, stdev
from repro.des.events import make_repeating
from repro.des.scheduler import Simulator
from repro.metrics.series import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.autonomy import Departure, Rejoin
    from repro.system.failures import Crash
    from repro.system.query import AllocationRecord
    from repro.system.registry import SystemRegistry


class MetricsHub:
    """Collects counters, distributions and sampled series for one run."""

    def __init__(self) -> None:
        # counters
        self.queries_issued = 0
        self.queries_allocated = 0
        self.queries_failed = 0
        self.queries_completed = 0
        self.issued_by_consumer: Dict[str, int] = {}
        self.failed_by_consumer: Dict[str, int] = {}
        self.completed_by_consumer: Dict[str, int] = {}

        # distributions: one unboxed 8-byte double per query, in
        # arrival order (the summary's mean sums them in this order)
        self.response_times = array("d")
        self.consultation_delays = array("d")

        # events
        self.departures: List["Departure"] = []
        self.rejoins: List["Rejoin"] = []
        self.crashes: List["Crash"] = []
        self.queries_timed_out = 0
        self.timed_out_by_consumer: Dict[str, int] = {}

        # sampled series (populated by start_sampling)
        self.consumer_satisfaction = TimeSeries("consumer_satisfaction")
        self.provider_satisfaction = TimeSeries("provider_satisfaction")
        self.utilization_mean = TimeSeries("utilization_mean")
        self.utilization_stdev = TimeSeries("utilization_stdev")
        self.utilization_gini = TimeSeries("utilization_gini")
        self.providers_online = TimeSeries("providers_online")
        self.consumers_online = TimeSeries("consumers_online")
        self.total_capacity = TimeSeries("total_capacity")
        self.throughput = TimeSeries("throughput")
        self.response_time_series = TimeSeries("response_time_mean")

        # named participant groups (per-project consumers, provider
        # archetypes, focal probes) sampled alongside the global series
        self.group_satisfaction: Dict[str, TimeSeries] = {}
        self._groups: Dict[str, Tuple[str, List[str]]] = {}

        # optional per-provider snapshots (departure-prediction analysis)
        self.provider_snapshots: List[Tuple[float, Dict[str, float]]] = []
        self._snapshot_providers = False

        self._completions_at_last_sample = 0
        self._rt_window: List[float] = []
        self._sample_interval: Optional[float] = None

    # ------------------------------------------------------------------
    # Event-driven records
    # ------------------------------------------------------------------

    def record_mediation(self, record: "AllocationRecord") -> None:
        """One query passed through the mediator."""
        consumer_id = record.query.consumer_id
        self.queries_issued += 1
        self.issued_by_consumer[consumer_id] = (
            self.issued_by_consumer.get(consumer_id, 0) + 1
        )
        if record.is_failure:
            self.queries_failed += 1
            self.failed_by_consumer[consumer_id] = (
                self.failed_by_consumer.get(consumer_id, 0) + 1
            )
        else:
            self.queries_allocated += 1
            self.consultation_delays.append(record.consultation_delay)

    def record_completion(self, record: "AllocationRecord") -> None:
        """All results of one query arrived at its consumer."""
        rt = record.response_time
        if rt is None:
            raise ValueError(
                f"completion recorded for incomplete query {record.query.qid}"
            )
        consumer_id = record.query.consumer_id
        self.queries_completed += 1
        self.completed_by_consumer[consumer_id] = (
            self.completed_by_consumer.get(consumer_id, 0) + 1
        )
        self.response_times.append(rt)
        self._rt_window.append(rt)

    def record_departure(self, departure: "Departure") -> None:
        """A participant left by dissatisfaction."""
        self.departures.append(departure)

    def record_rejoin(self, rejoin: "Rejoin") -> None:
        """A departed participant returned (rejoin extension)."""
        self.rejoins.append(rejoin)

    def record_timeout(self, record: "AllocationRecord") -> None:
        """A consumer wrote off a query whose results never arrived."""
        consumer_id = record.query.consumer_id
        self.queries_timed_out += 1
        self.timed_out_by_consumer[consumer_id] = (
            self.timed_out_by_consumer.get(consumer_id, 0) + 1
        )

    def record_crash(self, crash: "Crash") -> None:
        """A provider failed abruptly (failure-injection extension)."""
        self.crashes.append(crash)

    def enable_provider_snapshots(self) -> None:
        """Record every provider's satisfaction at each sweep.

        Off by default (memory); the departure-prediction analysis of
        Scenario 2 needs it to ask "who was dissatisfied at time t, and
        did they leave afterwards?".  Departed providers are included
        (they keep their last satisfaction).
        """
        self._snapshot_providers = True

    # ------------------------------------------------------------------
    # Participant groups
    # ------------------------------------------------------------------

    def register_group(self, name: str, kind: str, participant_ids: List[str]) -> None:
        """Track the mean satisfaction of a named participant group.

        ``kind`` is ``"consumer"`` or ``"provider"``; the group is
        sampled on every sweep (offline members included -- a departed
        member keeps its last satisfaction, which is what the
        "predicting departures" analysis of Scenario 2 looks at).
        """
        if kind not in ("consumer", "provider"):
            raise ValueError(f"kind must be 'consumer' or 'provider', got {kind!r}")
        if name in self._groups:
            raise ValueError(f"duplicate group name {name!r}")
        self._groups[name] = (kind, list(participant_ids))
        self.group_satisfaction[name] = TimeSeries(f"group:{name}")

    # ------------------------------------------------------------------
    # Periodic sampling
    # ------------------------------------------------------------------

    def start_sampling(
        self,
        sim: Simulator,
        registry: "SystemRegistry",
        interval: float = 10.0,
    ) -> None:
        """Schedule the periodic metric sweep (first sample at t=now)."""
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self._sample_interval = interval

        def sample() -> None:
            self.sample_once(sim.now, registry)

        tick = make_repeating(sim.schedule_in, interval, sample)
        sim.schedule_in(0.0, tick, label="metrics:first-sample")

    def sample_once(self, now: float, registry: "SystemRegistry") -> None:
        """Snapshot every sampled series at time ``now``."""
        online_providers = registry.online_providers()
        online_consumers = registry.online_consumers()

        if self._snapshot_providers:
            snapshot = {p.participant_id: p.satisfaction for p in registry.providers}
            self.provider_snapshots.append((now, snapshot))

        group_sats = []
        for kind, ids in self._groups.values():
            member = registry.consumer if kind == "consumer" else registry.provider
            group_sats.append([member(pid).satisfaction for pid in ids])
        self.append_sample(
            now,
            [c.satisfaction for c in online_consumers],
            [p.satisfaction for p in online_providers],
            # Provider.utilization inlined (same max/min arithmetic)
            [
                min(1.0, max(0.0, p._busy_until - now) / p.saturation_horizon)
                for p in online_providers
            ],
            registry.total_capacity(online_only=True),
            group_sats,
            self.queries_completed,
            self._rt_window,
        )
        self._rt_window = []

    def append_sample(
        self,
        now: float,
        consumer_sats: List[float],
        provider_sats: List[float],
        utilizations: List[float],
        capacity: float,
        group_sats: Iterable[List[float]],
        completed: int,
        rts: List[float],
    ) -> None:
        """Append one instant to every sampled series.

        Operands in registration order: the online consumers' and
        providers' satisfactions, the online providers' utilizations
        and capacity, one member-satisfaction list per group, the
        completions so far and the response times since the last
        instant.  The live sweep and the parallel merge's replay both
        end here, so their series agree float for float.
        """
        self.consumer_satisfaction.append(now, mean(consumer_sats, default=0.0))
        self.provider_satisfaction.append(now, mean(provider_sats, default=0.0))
        self.utilization_mean.append(now, mean(utilizations))
        self.utilization_stdev.append(now, stdev(utilizations))
        self.utilization_gini.append(now, gini(utilizations) if utilizations else 0.0)
        self.providers_online.append(now, float(len(utilizations)))
        self.consumers_online.append(now, float(len(consumer_sats)))
        self.total_capacity.append(now, capacity)

        for series, sats in zip(self.group_satisfaction.values(), group_sats):
            series.append(now, mean(sats, default=0.0))

        if self._sample_interval:
            self.throughput.append(
                now, (completed - self._completions_at_last_sample) / self._sample_interval
            )
        self._completions_at_last_sample = completed
        self.response_time_series.append(now, mean(rts, default=0.0))

    # ------------------------------------------------------------------
    # Derived accessors
    # ------------------------------------------------------------------

    @property
    def failure_rate(self) -> float:
        """Fraction of issued queries that could not be allocated."""
        if self.queries_issued == 0:
            return 0.0
        return self.queries_failed / self.queries_issued

    def departures_by_kind(self) -> Dict[str, int]:
        """Count of departures per participant kind."""
        out: Dict[str, int] = {}
        for departure in self.departures:
            out[departure.kind] = out.get(departure.kind, 0) + 1
        return out

    def series_map(self) -> Dict[str, List[Tuple[float, float]]]:
        """All sampled series as plain data (plots, CSV export)."""
        named = [
            self.consumer_satisfaction,
            self.provider_satisfaction,
            self.utilization_mean,
            self.utilization_stdev,
            self.utilization_gini,
            self.providers_online,
            self.consumers_online,
            self.total_capacity,
            self.throughput,
            self.response_time_series,
        ]
        out = {series.name: series.points() for series in named}
        for series in self.group_satisfaction.values():
            out[series.name] = series.points()
        return out

    def __repr__(self) -> str:
        return (
            f"MetricsHub(issued={self.queries_issued}, completed={self.queries_completed}, "
            f"failed={self.queries_failed}, departures={len(self.departures)})"
        )
