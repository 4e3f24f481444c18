"""Wire one full simulation run and execute it.

``wire_run(config, policy_spec)`` performs the complete assembly that
the demo prototype's setup GUIs performed interactively and returns a
:class:`LiveRun` that can be stepped incrementally (``step_until``) or
driven straight to the horizon; ``run_once`` is the one-shot form.
The assembly:

1. kernel: simulator + latency-modelled network + seeded random root;
2. population: the BOINC-like consumers and providers;
3. mediation: the allocation policy under study, a mediator, and the
   metrics hub observing it;
4. workload: one Poisson arrival process per project;
5. autonomy: the churn monitor when the environment is autonomous;
6. measurement: periodic sampling plus per-group satisfaction series
   (per project, per provider archetype, focal probes);

then runs to the horizon and assembles a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.allocation.factory import make_policy
from repro.core.engine import make_mediator, make_network
from repro.core.mediator import Mediator
from repro.des.network import Network, UniformLatency
from repro.des.rng import RandomRoot, spawn_replication_root
from repro.des.scheduler import Simulator
from repro.des.tracing import NULL_RECORDER, TraceRecorder
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.metrics.collectors import MetricsHub
from repro.metrics.summary import RunSummary, build_summary
from repro.system.autonomy import (
    CaptivePolicy,
    ChurnMonitor,
    SatisfactionDeparturePolicy,
)
from repro.system.failures import CrashInjector
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.boinc import BoincPopulation, build_boinc_population
from repro.workloads.preferences import ARCHETYPES


class WorkloadInstaller:
    """Protocol of pluggable workloads accepted by :func:`wire_run`.

    ``install`` is called exactly where the default Poisson block would
    run (after mediation wiring, before autonomy), and must arrange for
    queries to be issued through ``Consumer.issue`` -- by pre-scheduled
    replay chains (:class:`repro.workloads.traces.TraceWorkload`) or by
    an open ingress that schedules injections later (``repro.serve``).
    """

    def install(self, sim, population, config, root) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclass
class RunResult:
    """Everything one run produced (summary + raw access for analysis).

    ``population`` is ``None`` on a run merged from process-parallel
    shard workers (:func:`repro.federation.parallel.run_parallel`): it
    has no live world, so ``registry`` and ``participant_satisfaction``
    are unavailable there."""

    label: str
    config: ExperimentConfig
    policy_spec: PolicySpec
    summary: RunSummary
    hub: MetricsHub
    population: Optional[BoincPopulation]
    mediator: Mediator

    @property
    def registry(self):
        return self.population.registry

    def digest(self) -> str:
        """Canonical allocation digest of this run (hex SHA-256).

        Delegates to :func:`repro.metrics.summary.summary_digest`: two
        runs agree iff every aggregate *and* per-consumer outcome in the
        summary is bit-identical -- the equivalence bar the engine
        parity tests use, now shared with trace replay and ``sbqa
        serve``.
        """
        from repro.metrics.summary import summary_digest

        return summary_digest(self.summary)

    def participant_satisfaction(self, participant_id: str) -> float:
        """Final satisfaction of one participant (consumer or provider)."""
        registry = self.registry
        try:
            return registry.consumer(participant_id).satisfaction
        except KeyError:
            return registry.provider(participant_id).satisfaction


@dataclass
class LiveRun:
    """A fully wired simulation that has not (necessarily) run yet.

    Produced by :func:`wire_run`; supports incremental execution with
    live inspection of the mediator / metrics-hub / registry state
    between steps, which is what the demo's "drawing results on-line"
    window did::

        live = wire_run(config, PolicySpec(name="sbqa"))
        live.step_until(600.0)
        print(live.hub.queries_completed, live.mediator.mediations)
        result = live.finalize()          # runs the remaining horizon

    ``finalize()`` is idempotent and returns the same :class:`RunResult`
    on repeated calls.
    """

    config: ExperimentConfig
    policy_spec: PolicySpec
    sim: Simulator
    network: Network
    hub: MetricsHub
    mediator: Mediator
    population: BoincPopulation
    _result: Optional[RunResult] = None

    @property
    def label(self) -> str:
        return self.policy_spec.label

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    @property
    def registry(self):
        return self.population.registry

    @property
    def finished(self) -> bool:
        """True once the horizon has been reached."""
        return self.sim.now >= self.config.duration

    def step_until(self, t: float) -> "LiveRun":
        """Advance the simulation to time ``t`` (clamped to the horizon).

        A target at or before the current simulation time is a no-op:
        the serve loop drives this from a wall-clock ticker whose
        mapped targets can repeat or even regress between ticks, and a
        zero-width step must neither raise nor disturb the event queue.
        """
        if self._result is not None:
            raise RuntimeError("run already finalized")
        target = min(float(t), self.config.duration)
        if target <= self.sim.now:
            return self
        self.sim.run_until(target)
        return self

    def finalize(self) -> RunResult:
        """Run any remaining horizon and assemble the :class:`RunResult`."""
        if self._result is not None:
            return self._result
        if self.sim.now < self.config.duration:
            self.sim.run_until(self.config.duration)
        summary = build_summary(
            policy_name=self.policy_spec.label,
            duration=self.config.duration,
            hub=self.hub,
            registry=self.registry,
            mediator=self.mediator,
            network=self.network,
        )
        self._result = RunResult(
            label=self.policy_spec.label,
            config=self.config,
            policy_spec=self.policy_spec,
            summary=summary,
            hub=self.hub,
            population=self.population,
            mediator=self.mediator,
        )
        return self._result


def wire_run(
    config: ExperimentConfig,
    policy_spec: PolicySpec,
    replication: int = 0,
    trace: TraceRecorder = NULL_RECORDER,
    workload: Optional["WorkloadInstaller"] = None,
    shard_slice=None,
) -> LiveRun:
    """Assemble one simulation run without executing it.

    Deterministic in all arguments; ``run_once`` is exactly
    ``wire_run(...).finalize()``.

    ``workload`` replaces the default closed-loop Poisson arrival
    processes with a custom installer (trace replay, the serve
    subsystem's open ingress); everything else -- population draw,
    mediation, autonomy, measurement -- is wired identically, so a
    workload that reproduces the default's arrival instants reproduces
    the whole run bit-for-bit.

    ``shard_slice`` (a :class:`repro.federation.parallel.ShardSlice`)
    turns this wiring into one *worker's* view of a process-parallel
    federated run: the full world is built identically (same population
    draw, same policy streams -- the determinism anchor), but arrivals,
    churn sweeps and sampling are activated only for the slice's owned
    shards.  Requires a federated config; incompatible with a custom
    ``workload``.
    """
    if shard_slice is not None and workload is not None:
        raise ValueError("shard_slice cannot be combined with a custom workload")
    root = spawn_replication_root(config.seed, replication)

    # 1. kernel -----------------------------------------------------------
    sim = Simulator()
    latency = UniformLatency(
        config.latency_low, config.latency_high, root.stream("network/latency")
    )
    network = make_network(config.engine, sim, latency)

    # 2. population -------------------------------------------------------
    population = build_boinc_population(sim, network, root, config.population)
    registry = population.registry

    # 3. mediation --------------------------------------------------------
    hub = MetricsHub() if shard_slice is None else shard_slice.create_hub(sim)
    if config.federation is not None:
        # Sharded multi-mediator federation: each shard builds its own
        # policy from its shard root (shard 0 gets `root` itself, the
        # K=1 parity requirement -- identical make_policy stream names,
        # identical draws).
        from repro.federation.mediator import build_federation

        mediator = build_federation(
            config.engine,
            sim,
            network,
            registry,
            config.federation,
            policy_factory=lambda shard_root: make_policy(
                policy_spec.name,
                shard_root,
                sbqa=policy_spec.sbqa,
                params=policy_spec.params,
            ),
            root=root,
            observer=hub,
            trace=trace,
            adequation_over_candidates=config.adequation_over_candidates,
            keep_records=config.keep_records,
        )
    else:
        policy = make_policy(
            policy_spec.name, root, sbqa=policy_spec.sbqa, params=policy_spec.params
        )
        mediator = make_mediator(
            config.engine,
            sim,
            network,
            registry,
            policy,
            observer=hub,
            trace=trace,
            adequation_over_candidates=config.adequation_over_candidates,
            keep_records=config.keep_records,
        )
    if shard_slice is not None:
        shard_slice.attach(config, population, mediator, hub)
    for consumer in population.consumers:
        consumer.attach_mediator(mediator)
        consumer.on_completion(hub.record_completion)
        if config.result_timeout is not None:
            consumer.result_timeout = config.result_timeout
            consumer.on_timeout(hub.record_timeout)

    # 4. workload ---------------------------------------------------------
    if workload is not None:
        workload.install(sim=sim, population=population, config=config, root=root)
    else:
        total_capacity = registry.total_capacity(online_only=False)
        rate_scale_of = config.population.rate_scales()
        for consumer in population.consumers:
            cid = consumer.participant_id
            # Slice workers start arrivals only for owned consumers;
            # skipping is stream-safe because every demand/arrival
            # stream is named per consumer (independent generators).
            if shard_slice is not None and not shard_slice.owns_consumer(cid):
                continue
            demand = config.population.make_demand_model(
                root.stream(f"workload/demand/{cid}")
            )
            arrivals = PoissonArrivals(
                sim,
                consumer,
                demand,
                rate=config.population.arrival_rate(
                    total_capacity, rate_scale_of[cid]
                ),
                stream=root.stream(f"workload/arrivals/{cid}"),
                horizon=config.duration,
            )
            arrivals.start()

    # 5. autonomy ---------------------------------------------------------
    autonomy = config.autonomy
    if autonomy.is_captive:
        consumer_policy = provider_policy = CaptivePolicy()
    else:
        consumer_policy = SatisfactionDeparturePolicy(
            autonomy.consumer_threshold,
            min_observations=autonomy.min_observations,
            warmup=autonomy.warmup,
        )
        provider_policy = SatisfactionDeparturePolicy(
            autonomy.provider_threshold,
            min_observations=autonomy.min_observations,
            warmup=autonomy.warmup,
        )
    if shard_slice is None:
        churn_consumers, churn_providers = population.consumers, population.providers
    else:
        # The departure policy is deterministic per participant, so a
        # sweep over the owned sublists (relative order preserved)
        # reproduces exactly the serial sweep's owned subsequence.
        churn_consumers, churn_providers = shard_slice.churn_members()
    monitor = ChurnMonitor(
        sim,
        churn_consumers,
        churn_providers,
        consumer_policy,
        provider_policy,
        check_interval=autonomy.check_interval,
        rejoin_cooldown=autonomy.rejoin_cooldown,
    )
    monitor.on_departure(hub.record_departure)
    monitor.on_rejoin(hub.record_rejoin)
    monitor.start()

    # 5b. failure injection (crash extension) -----------------------------
    if config.failures is not None:
        injector = CrashInjector(
            sim, population.providers, config.failures, root.stream("failures")
        )
        injector.on_crash(hub.record_crash)
        injector.start()

    # 6. measurement ------------------------------------------------------
    if config.track_provider_snapshots:
        hub.enable_provider_snapshots()
    if shard_slice is not None:
        # Raw owned-participant rows on the same grid; the parent
        # replays the global sweeps (and the group series) exactly.
        shard_slice.install_sampler(sim, registry, interval=config.sample_interval)
    else:
        for name, kind, ids in participant_groups(config, population):
            hub.register_group(name, kind, ids)
        hub.start_sampling(sim, registry, interval=config.sample_interval)

    return LiveRun(
        config=config,
        policy_spec=policy_spec,
        sim=sim,
        network=network,
        hub=hub,
        mediator=mediator,
        population=population,
    )


def participant_groups(
    config: ExperimentConfig, population: BoincPopulation
) -> List[Tuple[str, str, List[str]]]:
    """The named groups whose mean satisfaction every run samples.

    ``(name, kind, participant ids)`` in registration order: one group
    per consumer (project), one per provider archetype present, and the
    focal provider probe when configured.
    """
    groups: List[Tuple[str, str, List[str]]] = [
        (f"consumer:{c.participant_id}", "consumer", [c.participant_id])
        for c in population.consumers
    ]
    for archetype in ARCHETYPES:
        members = [
            p.participant_id for p in population.providers_of_archetype(archetype)
        ]
        if members:
            groups.append((f"archetype:{archetype}", "provider", members))
    focal = config.population.focal_provider
    if focal is not None:
        groups.append(("focal:provider", "provider", [focal.participant_id]))
    return groups


def run_once(
    config: ExperimentConfig,
    policy_spec: PolicySpec,
    replication: int = 0,
    trace: TraceRecorder = NULL_RECORDER,
) -> RunResult:
    """Execute one simulation run; deterministic in all arguments."""
    return wire_run(
        config, policy_spec, replication=replication, trace=trace
    ).finalize()


def run_policies(
    config: ExperimentConfig,
    policy_specs: List[PolicySpec],
    replication: int = 0,
) -> List[RunResult]:
    """Run the same experiment once per policy (same seed, same
    population draw -- the only varying factor is the technique)."""
    return [run_once(config, spec, replication=replication) for spec in policy_specs]
