"""The serving engine: one wired simulation run held open for ingress.

:class:`ServeEngine` assembles the exact same run the batch layer
assembles (``wire_run`` with population, mediation, autonomy and
measurement all identical) but replaces the closed-loop workload with
**per-consumer injection chains** fed by :meth:`ServeEngine.submit`.
The chains mirror :class:`~repro.workloads.traces.TraceReplayProcess`
event-for-event -- fire issues the head query first, then schedules the
successor -- so replaying a recorded trace through the serve path
(:meth:`ServeEngine.replay`) reproduces the batch engine's allocation
digest bit-for-bit.  That parity is the serving mode's correctness
anchor: if the open-loop path agrees with the event-faithful batch core
on every recorded workload, the only untested surface is admission
itself, which is deterministic and unit-tested.

Time is decoupled from the wall: the front-end maps elapsed wall-clock
onto simulation time with a speed factor (:meth:`advance_wall`), while
tests and replays drive :meth:`advance_to` directly.  All admission
decisions are clocked on *simulation* time, so a serving session is
replayable in principle and never depends on host scheduling jitter.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import LiveRun, RunResult, WorkloadInstaller, wire_run
from repro.metrics.series import QuantileSet
from repro.metrics.summary import RunSummary, build_summary, summary_digest, summary_payload
from repro.serve.admission import (
    REASON_CONSUMER_OFFLINE,
    REASON_PAST_HORIZON,
    REASON_SHED_OLDEST,
    REASON_UNKNOWN_CONSUMER,
    AdmissionConfig,
    AdmissionController,
)
from repro.workloads.traces import TraceSpec


class _Injection:
    """One admitted query waiting in an injection chain."""

    __slots__ = ("time", "topic", "service_demand", "n_results", "quorum", "seq")

    def __init__(
        self,
        time: float,
        topic: str,
        service_demand: float,
        n_results: Optional[int],
        quorum: Optional[int],
        seq: int,
    ) -> None:
        self.time = time
        self.topic = topic
        self.service_demand = service_demand
        self.n_results = n_results
        self.quorum = quorum
        self.seq = seq


class _Chain:
    """One consumer's pending injections plus its scheduled head event."""

    __slots__ = ("consumer", "pending", "handle")

    def __init__(self, consumer) -> None:
        self.consumer = consumer
        self.pending: Deque[_Injection] = deque()
        self.handle = None


class _OpenIngress(WorkloadInstaller):
    """Workload installer that wires nothing: arrivals come from outside."""

    def install(self, sim, population, config, root) -> None:
        pass


class ServeMetrics:
    """Streaming latency accumulators of one serving session.

    Constant memory (P² quantiles) because a serving session has no
    horizon to bound the sample lists the batch hub keeps.
    """

    def __init__(self) -> None:
        #: Consumer-perceived response time of completed queries.
        self.response_time = QuantileSet("response_time")
        #: Simulation-time delay between a query's requested arrival
        #: instant and the moment its chain actually issued it (backlog
        #: wait; 0 when the chain was idle).
        self.ingress_delay = QuantileSet("ingress_delay")

    def snapshot(self) -> Dict[str, object]:
        return {
            "response_time": self.response_time.snapshot(),
            "ingress_delay": self.ingress_delay.snapshot(),
        }


class ServeEngine:
    """An open simulation run: submit queries, advance time, observe.

    Parameters
    ----------
    config, policy_spec, replication:
        Exactly what :func:`~repro.experiments.runner.wire_run` takes;
        ``config.duration`` is the serving horizon.
    admission:
        Ingress limits; defaults to admit-everything, which is what
        digest-parity replay requires.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        policy_spec: PolicySpec,
        admission: Optional[AdmissionConfig] = None,
        replication: int = 0,
    ) -> None:
        self.config = config
        self.policy_spec = policy_spec
        self.admission = AdmissionController(admission or AdmissionConfig())
        self.metrics = ServeMetrics()
        self.live: LiveRun = wire_run(
            config, policy_spec, replication=replication, workload=_OpenIngress()
        )
        self.sim = self.live.sim
        self._chains: Dict[str, _Chain] = {
            c.participant_id: _Chain(c) for c in self.live.population.consumers
        }
        self._backlog = 0
        self._seq = 0
        for consumer in self.live.population.consumers:
            consumer.on_completion(
                lambda record: self.metrics.response_time.add(record.response_time)
            )

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    @property
    def horizon(self) -> float:
        return self.config.duration

    @property
    def backlog(self) -> int:
        """Admitted-but-not-yet-issued queries across all consumers."""
        return self._backlog

    def consumer_ids(self) -> List[str]:
        return list(self._chains)

    def submit(
        self,
        consumer_id: str,
        service_demand: Optional[float] = None,
        topic: Optional[str] = None,
        n_results: Optional[int] = None,
        quorum: Optional[int] = None,
        at: Optional[float] = None,
    ) -> Tuple[bool, Optional[str]]:
        """Offer one query to the ingress.

        Returns ``(accepted, drop_reason)``.  ``at`` is the requested
        simulation-time arrival instant (clamped to now; defaults to
        now); ``service_demand`` defaults to the population's mean
        demand, ``topic`` to the consumer id (the BOINC convention).
        """
        chain = self._chains.get(consumer_id)
        stats = self.admission.stats
        if chain is None:
            stats.submitted += 1
            self.admission.drop(consumer_id, REASON_UNKNOWN_CONSUMER)
            return False, REASON_UNKNOWN_CONSUMER
        time = self.sim.now if at is None else max(float(at), self.sim.now)
        if time > self.config.duration:
            stats.submitted += 1
            self.admission.drop(consumer_id, REASON_PAST_HORIZON)
            return False, REASON_PAST_HORIZON
        if not chain.consumer.online:
            stats.submitted += 1
            self.admission.drop(consumer_id, REASON_CONSUMER_OFFLINE)
            return False, REASON_CONSUMER_OFFLINE

        verdict, reason = self.admission.decide(consumer_id, time, self._backlog)
        if verdict == "drop":
            self.admission.drop(consumer_id, reason)
            return False, reason
        if verdict == "evict-oldest":
            self._evict_oldest()

        if service_demand is None:
            service_demand = self.config.population.demand_mean
        injection = _Injection(
            time=time,
            topic=consumer_id if topic is None else topic,
            service_demand=float(service_demand),
            n_results=n_results,
            quorum=quorum,
            seq=self._seq,
        )
        self._seq += 1
        chain.pending.append(injection)
        self._backlog += 1
        self.admission.admit()
        if chain.handle is None:
            self._schedule_head(chain)
        return True, None

    def _schedule_head(self, chain: _Chain) -> None:
        head = chain.pending[0]
        chain.handle = self.sim.schedule_at(
            max(head.time, self.sim.now),
            lambda: self._fire(chain),
            label=f"arrivals:{chain.consumer.participant_id}",
        )

    def _fire(self, chain: _Chain) -> None:
        # Mirrors TraceReplayProcess._fire: the same guards in the same
        # order, issue first, then schedule the successor.
        chain.handle = None
        if not chain.consumer.online:
            # the batch replay chain dies here too; pending work is
            # accounted, not silently forgotten
            self._drop_pending(chain, REASON_CONSUMER_OFFLINE)
            return
        if self.sim.now > self.config.duration:
            self._drop_pending(chain, REASON_PAST_HORIZON)
            return
        injection = chain.pending.popleft()
        self._backlog -= 1
        chain.consumer.issue(
            topic=injection.topic,
            service_demand=injection.service_demand,
            n_results=injection.n_results,
            quorum=injection.quorum,
        )
        self.metrics.ingress_delay.add(self.sim.now - injection.time)
        if chain.pending:
            self._schedule_head(chain)

    def _drop_pending(self, chain: _Chain, reason: str) -> None:
        cid = chain.consumer.participant_id
        while chain.pending:
            chain.pending.popleft()
            self._backlog -= 1
            self.admission.drop(cid, reason)

    def _evict_oldest(self) -> None:
        """Drop the longest-waiting pending injection (any consumer)."""
        oldest: Optional[_Chain] = None
        for chain in self._chains.values():
            if chain.pending and (
                oldest is None or chain.pending[0].seq < oldest.pending[0].seq
            ):
                oldest = chain
        if oldest is None:  # pragma: no cover - capacity >= 1 guarantees backlog
            return
        oldest.pending.popleft()
        self._backlog -= 1
        self.admission.drop(oldest.consumer.participant_id, REASON_SHED_OLDEST)
        if oldest.handle is not None:
            oldest.handle.cancel()
            oldest.handle = None
            if oldest.pending:
                self._schedule_head(oldest)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def advance_to(self, sim_time: float) -> None:
        """Run the simulation up to ``sim_time`` (no-op if in the past)."""
        self.live.step_until(sim_time)

    def advance_wall(self, elapsed_wall: float, speed: float = 1.0) -> None:
        """Map elapsed wall-clock seconds onto simulation time.

        ``speed`` is simulation seconds per wall second; the serve loop
        calls this from its ticker with a monotonic elapsed reading.
        """
        self.advance_to(elapsed_wall * speed)

    @property
    def finished(self) -> bool:
        return self.live.finished

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` document: counters, satisfaction, admission
        accounting and streaming latency quantiles, all JSON scalars."""
        hub = self.live.hub
        registry = self.live.registry
        online = registry.online_consumers()
        satisfaction_now = (
            sum(c.satisfaction for c in online) / len(online) if online else 0.0
        )
        federation = getattr(self.live.mediator, "federation", None)
        shards = None
        if federation is not None:
            shards = [
                {
                    "shard": ordinal,
                    "queue_depth": sum(
                        p.queries_in_progress
                        for p in shard_registry.online_providers()
                    ),
                    "providers_online": len(shard_registry.online_providers()),
                    "mediations": shard.mediations,
                    "forwarded": shard.forwarded,
                }
                for ordinal, (shard, shard_registry) in enumerate(
                    zip(federation.mediators, federation.registries)
                )
            ]
        mediator = self.live.mediator
        return {
            "policy": self.policy_spec.label,
            "sim_time": self.sim.now,
            "horizon": self.config.duration,
            "backlog": self._backlog,
            "queries": {
                "issued": hub.queries_issued,
                "completed": hub.queries_completed,
                "failed": hub.queries_failed,
                "timed_out": hub.queries_timed_out,
            },
            "satisfaction": {
                "consumer_now": satisfaction_now,
                "consumer_sampled": hub.consumer_satisfaction.last,
                "provider_sampled": hub.provider_satisfaction.last,
            },
            "population": {
                "consumers_online": len(online),
                "providers_online": len(registry.online_providers()),
            },
            "admission": self.admission.stats.snapshot(),
            "latency": self.metrics.snapshot(),
            **({"shards": shards} if shards is not None else {}),
            # Which code path decided, why not the column one, and
            # which commit ran (execution metadata, never in a digest).
            "routes": {
                **mediator.route_counts,
                "scalar_reasons": mediator.scalar_reasons,
                "commit": mediator.commit_counts,
            },
        }

    def summary_now(self) -> RunSummary:
        """A :class:`RunSummary` of everything served *so far* -- what a
        graceful shutdown flushes without running to the horizon."""
        return build_summary(
            policy_name=self.policy_spec.label,
            duration=self.sim.now,
            hub=self.live.hub,
            registry=self.live.registry,
            mediator=self.live.mediator,
            network=self.live.network,
        )

    def final_payload(self) -> Dict[str, object]:
        """The shutdown flush: summary-so-far plus its digest and the
        admission accounting."""
        summary = self.summary_now()
        return {
            "summary": summary_payload(summary),
            "digest": summary_digest(summary),
            "admission": self.admission.stats.snapshot(),
        }

    # ------------------------------------------------------------------
    # Open-loop replay
    # ------------------------------------------------------------------

    def replay(self, trace: TraceSpec) -> RunResult:
        """Replay a trace open-loop and finalize the run.

        The whole trace is ingested first (every arrival submitted with
        its recorded instant), then the clock advances -- exactly the
        structure :class:`~repro.workloads.traces.TraceWorkload` wires,
        so with default (admit-everything) admission the digest of the
        returned result matches the batch replay's bit-for-bit.  Any
        admission drop during ingestion means the workload differs from
        the trace; a :class:`RuntimeError` says so rather than
        returning a silently different run.
        """
        arrivals = trace.materialize(consumer_ids=self.consumer_ids())
        for arrival in arrivals:
            accepted, reason = self.submit(
                arrival.consumer_id,
                service_demand=arrival.service_demand,
                topic=arrival.topic,
                n_results=arrival.n_results,
                quorum=arrival.quorum,
                at=arrival.time,
            )
            if not accepted:
                raise RuntimeError(
                    f"replay of trace {trace.name!r} dropped an arrival "
                    f"({reason}); digest parity needs admit-everything "
                    "admission (no queue capacity, no rate limit)"
                )
        return self.live.finalize()

    def __repr__(self) -> str:
        return (
            f"ServeEngine(policy={self.policy_spec.label!r}, t={self.sim.now:.6g}/"
            f"{self.config.duration:.6g}, backlog={self._backlog})"
        )
