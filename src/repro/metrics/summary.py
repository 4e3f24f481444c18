"""Flat per-run summaries consumed by scenario reports and benches."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import compress
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from repro.analysis.stats import gini, mean, percentile, stdev

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mediator import Mediator
    from repro.des.network import Network
    from repro.metrics.collectors import MetricsHub
    from repro.system.consumer import Consumer
    from repro.system.provider import Provider
    from repro.system.registry import SystemRegistry


@dataclass(frozen=True)
class ConsumerSummary:
    """Per-consumer outcome of one run."""

    consumer_id: str
    online: bool
    satisfaction: float
    issued: int
    completed: int
    failed: int
    mean_response_time: float


@dataclass(frozen=True)
class RunSummary:
    """Everything a scenario comparison table needs about one run.

    The ``*_final`` satisfaction figures are the participants' state at
    the end of the run; the ``*_mean`` figures average the sampled
    series over the whole run (closer to what the on-line GUI curves
    conveyed).  ``tail_*`` metrics average the last quarter of the run
    -- the steady state after warmup and churn transients.
    """

    policy: str
    duration: float

    queries_issued: int = 0
    queries_completed: int = 0
    queries_failed: int = 0
    queries_timed_out: int = 0
    failure_rate: float = 0.0
    provider_crashes: int = 0
    queries_lost_to_crashes: int = 0

    mean_response_time: float = 0.0
    p95_response_time: float = 0.0
    p99_response_time: float = 0.0
    tail_response_time: float = 0.0
    throughput: float = 0.0

    consumer_satisfaction_final: float = 0.0
    consumer_satisfaction_mean: float = 0.0
    provider_satisfaction_final: float = 0.0
    provider_satisfaction_mean: float = 0.0

    providers_total: int = 0
    providers_remaining: int = 0
    consumers_total: int = 0
    consumers_remaining: int = 0
    provider_departures: int = 0
    consumer_departures: int = 0
    provider_rejoins: int = 0
    consumer_rejoins: int = 0
    capacity_remaining_fraction: float = 1.0

    #: Long-run mean of the [12]-style allocation satisfaction over
    #: consumers: how close the mediator got to the best allocation the
    #: candidate pool allowed (1.0 = optimal given what was available).
    consumer_allocation_satisfaction: float = 0.0

    utilization_mean: float = 0.0
    utilization_gini: float = 0.0
    work_gini: float = 0.0

    network_messages: int = 0
    coordination_messages: int = 0
    mean_consultation_delay: float = 0.0

    consumers: List[ConsumerSummary] = field(default_factory=list)

    @property
    def providers_remaining_fraction(self) -> float:
        """Share of the provider population still online at run end."""
        if self.providers_total == 0:
            return 0.0
        return self.providers_remaining / self.providers_total

    def as_dict(self) -> Dict[str, object]:
        """Flat dict (per-consumer breakdown excluded) for tables/CSV."""
        return {
            "policy": self.policy,
            "duration": self.duration,
            "issued": self.queries_issued,
            "completed": self.queries_completed,
            "failed": self.queries_failed,
            "timed_out": self.queries_timed_out,
            "failure_rate": self.failure_rate,
            "provider_crashes": self.provider_crashes,
            "queries_lost_to_crashes": self.queries_lost_to_crashes,
            "mean_rt": self.mean_response_time,
            "p95_rt": self.p95_response_time,
            "p99_rt": self.p99_response_time,
            "tail_rt": self.tail_response_time,
            "throughput": self.throughput,
            "consumer_sat_final": self.consumer_satisfaction_final,
            "consumer_sat_mean": self.consumer_satisfaction_mean,
            "provider_sat_final": self.provider_satisfaction_final,
            "provider_sat_mean": self.provider_satisfaction_mean,
            "providers_remaining": self.providers_remaining,
            "providers_remaining_fraction": self.providers_remaining_fraction,
            "consumers_remaining": self.consumers_remaining,
            "provider_departures": self.provider_departures,
            "consumer_departures": self.consumer_departures,
            "provider_rejoins": self.provider_rejoins,
            "consumer_rejoins": self.consumer_rejoins,
            "capacity_remaining_fraction": self.capacity_remaining_fraction,
            "consumer_allocation_satisfaction": self.consumer_allocation_satisfaction,
            "utilization_mean": self.utilization_mean,
            "utilization_gini": self.utilization_gini,
            "work_gini": self.work_gini,
            "network_messages": self.network_messages,
            "coordination_messages": self.coordination_messages,
            "mean_consultation_delay": self.mean_consultation_delay,
        }


def summary_payload(summary: "RunSummary") -> Dict[str, object]:
    """The digestable content of one run: flat aggregates plus the
    per-consumer breakdown, all JSON scalars, in deterministic order."""
    payload = summary.as_dict()
    payload["consumers"] = [
        {
            "consumer_id": c.consumer_id,
            "online": c.online,
            "satisfaction": c.satisfaction,
            "issued": c.issued,
            "completed": c.completed,
            "failed": c.failed,
            "mean_response_time": c.mean_response_time,
        }
        for c in summary.consumers
    ]
    return payload


def summary_digest(summary: "RunSummary") -> str:
    """Hex SHA-256 over the canonical JSON of :func:`summary_payload`.

    Float values are serialized through ``repr`` (via ``json.dumps``),
    so two digests agree only when every satisfaction, response-time
    and utilization figure matches to the last ulp -- the "bit-for-bit"
    equivalence bar used by engine parity and trace-replay parity.
    """
    text = json.dumps(summary_payload(summary), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def final_rows(
    consumers: Iterable["Consumer"], providers: Iterable["Provider"]
) -> Tuple[List[Tuple[ConsumerSummary, float]], List[tuple]]:
    """The end state a summary reads, one plain row per participant, in
    the order given: ``(ConsumerSummary, allocation satisfaction)`` per
    consumer, ``(participant_id, online, capacity, work_units_done)``
    per provider."""
    consumer_rows = [
        (
            ConsumerSummary(
                consumer_id=c.participant_id,
                online=c.online,
                satisfaction=c.satisfaction,
                issued=c.stats.queries_issued,
                completed=c.stats.queries_completed,
                failed=c.stats.queries_failed,
                mean_response_time=c.stats.mean_response_time,
            ),
            c.tracker.allocation_satisfaction(),
        )
        for c in consumers
    ]
    provider_rows = [
        (p.participant_id, p.online, p.capacity, p.stats.work_units_done)
        for p in providers
    ]
    return consumer_rows, provider_rows


def build_summary(
    policy_name: str,
    duration: float,
    hub: "MetricsHub",
    registry: "SystemRegistry",
    mediator: "Mediator",
    network: "Network",
) -> RunSummary:
    """Assemble the :class:`RunSummary` of a finished live run."""
    consumer_rows, provider_rows = final_rows(registry.consumers, registry.providers)
    return summary_from_rows(
        policy_name, duration, hub, consumer_rows, provider_rows,
        mediator.coordination_messages, network.messages_sent,
    )


def summary_from_rows(
    policy_name: str,
    duration: float,
    hub: "MetricsHub",
    consumer_rows: List[Tuple[ConsumerSummary, float]],
    provider_rows: List[tuple],
    coordination_messages: int,
    network_messages: int,
) -> RunSummary:
    """Assemble a :class:`RunSummary` from the hub and the
    :func:`final_rows` of every participant, in registration order."""
    departures = hub.departures_by_kind()
    rejoins: Dict[str, int] = {}
    for rejoin in hub.rejoins:
        rejoins[rejoin.kind] = rejoins.get(rejoin.kind, 0) + 1
    # One transpose of the provider rows; ``sum`` then walks the
    # capacities in registration order, the order
    # ``SystemRegistry.total_capacity`` sums them in.
    _, online, capacities, work_done = (
        zip(*provider_rows) if provider_rows else ((),) * 4
    )
    initial_capacity = sum(capacities)
    remaining_capacity = sum(compress(capacities, online))
    consumers = [summary for summary, _ in consumer_rows]

    return RunSummary(
        policy=policy_name,
        duration=duration,
        queries_issued=hub.queries_issued,
        queries_completed=hub.queries_completed,
        queries_failed=hub.queries_failed,
        queries_timed_out=hub.queries_timed_out,
        failure_rate=hub.failure_rate,
        provider_crashes=len(hub.crashes),
        queries_lost_to_crashes=sum(c.queries_lost for c in hub.crashes),
        mean_response_time=mean(hub.response_times),
        p95_response_time=percentile(hub.response_times, 95),
        p99_response_time=percentile(hub.response_times, 99),
        tail_response_time=hub.response_time_series.tail_mean(0.25),
        throughput=hub.queries_completed / duration if duration > 0 else 0.0,
        consumer_satisfaction_final=hub.consumer_satisfaction.last or 0.0,
        consumer_satisfaction_mean=hub.consumer_satisfaction.mean(),
        provider_satisfaction_final=hub.provider_satisfaction.last or 0.0,
        provider_satisfaction_mean=hub.provider_satisfaction.mean(),
        providers_total=len(provider_rows),
        providers_remaining=sum(online),
        consumers_total=len(consumers),
        consumers_remaining=sum(1 for c in consumers if c.online),
        provider_departures=departures.get("provider", 0),
        consumer_departures=departures.get("consumer", 0),
        provider_rejoins=rejoins.get("provider", 0),
        consumer_rejoins=rejoins.get("consumer", 0),
        capacity_remaining_fraction=(
            remaining_capacity / initial_capacity if initial_capacity > 0 else 0.0
        ),
        consumer_allocation_satisfaction=mean(
            [allocation for _, allocation in consumer_rows]
        ),
        utilization_mean=hub.utilization_mean.mean(),
        utilization_gini=hub.utilization_gini.tail_mean(0.25),
        work_gini=gini(work_done) if work_done else 0.0,
        network_messages=network_messages,
        coordination_messages=coordination_messages,
        mean_consultation_delay=mean(hub.consultation_delays),
        consumers=consumers,
    )
