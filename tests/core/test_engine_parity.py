"""The fast engine's contract: bit-identical results, fewer events.

Three layers of evidence:

* decision-level: ``SbQAPolicy.select_fast`` (the decision ``select``
  returns too) reproduces a test-local restatement of KnBest + SQLB
  over the public ``KnBestSelector.select``, ``sqlb_score`` and
  ``rank_providers`` -- allocation, scores, omegas and intentions
  exactly;
* run-level: full experiment digests (``ExperimentResult.to_json``)
  are byte-identical between ``engine="fast"`` and ``engine="event"``
  across latency regimes, churn, crashes and policies -- while the
  fast engine fires strictly fewer scheduler events when the dispatch
  collapse is active;
* preset-level: every shipped scenario preset, scaled down, produces
  byte-identical ``ExperimentResult`` digests under both engines, and
  the fused SoA kernel matches the scalar oracle path digest for
  digest (the engine-level face of the tests/oracle/ contract).
"""

import json

import pytest

from repro.api.builder import Experiment
from repro.api.presets import available_scenarios
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.core.engine import (
    ENGINE_MODES,
    FastMediator,
    FastNetwork,
    make_mediator,
    make_network,
    resolve_engine,
)
from repro.core.mediator import Mediator
from repro.core.knbest import KnBestSelector
from repro.core.omega import make_omega_policy
from repro.core.policy import AllocationContext, AllocationDecision, allocation_count
from repro.core.sbqa import SbQAConfig, SbQAPolicy
from repro.core.scoring import ScoredProvider, rank_providers, sqlb_score
from repro.des.network import FixedLatency, Network, UniformLatency, ZeroLatency
from repro.des.rng import RandomStream
from repro.des.scheduler import Simulator
from repro.des.tracing import TraceRecorder
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import run_once, wire_run
from repro.system.consumer import Consumer
from repro.system.provider import Provider
from repro.system.query import Query
from repro.system.registry import SystemRegistry

def run_digest(engine, **overrides):
    """One short session run's JSON digest under the given engine."""
    builder = (
        Experiment.builder()
        .named("engine-parity")
        .seed(20090301)
        .duration(overrides.pop("duration", 300.0))
        .providers(overrides.pop("providers", 40))
        .engine(engine)
    )
    latency = overrides.pop("latency", None)
    if latency is not None:
        builder.latency(*latency)
    for policy in overrides.pop("policies", [("sbqa", {})]):
        name, params = policy
        builder.policy(name, **params)
    if overrides.pop("autonomous", False):
        builder.autonomous()
    failures = overrides.pop("failures", None)
    if failures is not None:
        builder.failures(**failures)
    assert not overrides, f"unused overrides: {overrides}"
    return Session(builder.build()).run(keep_runs=False).to_json()


class TestResolveEngine:
    def test_modes(self):
        assert set(ENGINE_MODES) == {"fast", "event"}
        assert resolve_engine("FAST") == "fast"
        assert resolve_engine("event") == "event"

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp")

    def test_factories(self):
        sim = Simulator()
        assert isinstance(make_network("fast", sim), FastNetwork)
        assert type(make_network("event", sim)) is Network

    def test_config_validates_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExperimentConfig(engine="warp")
        assert ExperimentConfig().engine == "fast"
        assert ExperimentConfig(engine="EVENT").engine == "event"


def build_micro_system(n_providers=60, seed=11, latency=None):
    sim = Simulator()
    network = Network(sim, latency or ZeroLatency())
    registry = SystemRegistry()
    stream = RandomStream(seed)
    providers = [
        Provider(
            sim,
            network,
            participant_id=f"p{i:02d}",
            capacity=stream.uniform(0.5, 2.0),
            preferences={"c0": stream.uniform(-1.0, 1.0)},
        )
        for i in range(n_providers)
    ]
    for p in providers:
        registry.add_provider(p)
    consumer = Consumer(
        sim,
        network,
        participant_id="c0",
        preferences={p.participant_id: stream.uniform(-1.0, 1.0) for p in providers},
    )
    registry.add_consumer(consumer)
    return sim, network, registry, consumer, providers


def reference_sbqa(selector, config, query, candidates):
    """KnBest + SQLB provider by provider, from public functions only."""
    consumer = query.consumer
    omega_policy = make_omega_policy(config.omega)
    selection = selector.select(candidates)
    working = list(selection.working)
    scored = []
    for provider in working:
        provider_intention = provider.intention_for(query)
        consumer_intention = consumer.intention_for(query, provider)
        omega = omega_policy.omega(consumer.satisfaction, provider.satisfaction)
        scored.append(
            ScoredProvider(
                provider_id=provider.participant_id,
                score=sqlb_score(provider_intention, consumer_intention, omega, config.epsilon),
                omega=omega,
                provider_intention=provider_intention,
                consumer_intention=consumer_intention,
            )
        )
    ranking = rank_providers(scored)
    by_id = {p.participant_id: p for p in working}
    take = allocation_count(query, len(working))
    return AllocationDecision(
        allocated=[by_id[entry.provider_id] for entry in ranking[:take]],
        informed=working,
        consumer_intentions={e.provider_id: e.consumer_intention for e in scored},
        provider_intentions={e.provider_id: e.provider_intention for e in scored},
        scores={entry.provider_id: entry.score for entry in ranking},
        omegas={e.provider_id: e.omega for e in scored},
        consult_messages=2 * len(working) + 2,
    )


class TestSelectFastParity:
    @pytest.mark.parametrize("omega", ["adaptive", 0.0, 0.3, 1.0])
    def test_decision_equals_select(self, omega):
        """select_fast reproduces the reference bit-for-bit, field by
        field, maps' key order included."""
        sim, network, registry, consumer, providers = build_micro_system()
        config = SbQAConfig(k=15, kn=7, omega=omega)
        # Same stream seed => both draw the same stage-1 sample.
        selector = KnBestSelector(config.k, config.kn, RandomStream(3))
        fast = SbQAPolicy(config, RandomStream(3))
        ctx = AllocationContext(now=0.0)
        for round_index in range(30):
            query = Query(
                consumer=consumer,
                topic="c0",
                service_demand=5.0,
                n_results=2,
                issued_at=0.0,
            )
            a = reference_sbqa(selector, config, query, providers)
            b = fast.select_fast(query, providers, ctx)
            assert [p.participant_id for p in a.allocated] == [
                p.participant_id for p in b.allocated
            ]
            assert [p.participant_id for p in a.informed] == [
                p.participant_id for p in b.informed
            ]
            assert list(a.scores.items()) == list(b.scores.items())
            assert a.omegas == b.omegas
            assert a.consumer_intentions == b.consumer_intentions
            assert a.provider_intentions == b.provider_intentions
            assert a.consult_messages == b.consult_messages
            assert not hasattr(b, "metadata")
            # Keep the state evolving so later rounds differ: record the
            # proposals of the *reference* decision.
            for p in a.informed:
                p.record_proposal(
                    a.provider_intentions[p.participant_id],
                    p in a.allocated,
                )
            consumer.record_query_satisfaction(0.5)

    def test_select_fast_handles_single_candidate(self):
        sim, network, registry, consumer, providers = build_micro_system(
            n_providers=1
        )
        policy = SbQAPolicy(SbQAConfig(k=5, kn=2), RandomStream(1))
        ctx = AllocationContext(now=0.0)
        query = Query(
            consumer=consumer,
            topic="c0",
            service_demand=5.0,
            n_results=3,
            issued_at=0.0,
        )
        decision = policy.select_fast(query, providers, ctx)
        assert len(decision.allocated) == 1
        assert not decision.is_failure


class TestRunDigestParity:
    """Byte-identical ExperimentResult digests, fast vs event."""

    def test_random_latency(self):
        assert run_digest("fast") == run_digest("event")

    def test_fixed_latency_collapse_path(self):
        fixed = {"latency": (0.05, 0.05)}
        assert run_digest("fast", **fixed) == run_digest("event", **fixed)

    def test_zero_latency(self):
        zero = {"latency": (0.0, 0.0)}
        assert run_digest("fast", **zero) == run_digest("event", **zero)

    def test_mixed_scenario(self):
        mixed = {
            "latency": (0.05, 0.05),
            "autonomous": True,
            "failures": {"mttf": 1500.0, "repair_time": 60.0, "result_timeout": 240.0},
            "policies": [("sbqa", {}), ("capacity", {})],
        }
        assert run_digest("fast", **mixed) == run_digest("event", **mixed)

    def test_fixed_omega_and_baselines(self):
        spec = {
            "policies": [
                ("sbqa", {"omega": 0.3, "kn": 4}),
                ("economic", {}),
                ("round-robin", {}),
            ],
        }
        assert run_digest("fast", **spec) == run_digest("event", **spec)

    @pytest.mark.parametrize(
        "policy",
        [
            "sbqa",
            "capacity",
            "economic",
            "boinc-shares",
            "random",
            "round-robin",
            "shortest-queue",
        ],
    )
    def test_every_policy_covered_on_the_collapse_path(self, policy):
        """The universal-select_fast claim: engine="fast" produces
        byte-identical digests for *every* policy, on the deterministic-
        latency path where the collapsed dispatch and the batched
        result drain are both active."""
        spec = {
            "latency": (0.05, 0.05),
            "duration": 200.0,
            "policies": [(policy, {})],
        }
        assert run_digest("fast", **spec) == run_digest("event", **spec)

    def test_aggressive_crashes_hit_the_drain_cancellation(self):
        """Crashes cancel pending completions; with the batched result
        drain those are per-member cancellations inside shared drain
        events, which must shed exactly the crashed provider's result
        and nothing else."""
        spec = {
            "latency": (0.05, 0.05),
            "duration": 250.0,
            "failures": {"mttf": 250.0, "repair_time": 20.0, "result_timeout": 120.0},
            "policies": [("sbqa", {}), ("capacity", {})],
        }
        assert run_digest("fast", **spec) == run_digest("event", **spec)

    def test_homogeneous_replicas_batch_into_one_drain(self):
        """Equal-capacity idle providers serving the same allocation
        finish at the same instant, so their completion/delivery pairs
        collapse into a single two-hop drain -- results, clocks and
        counters must still match the event engine exactly."""
        from repro.workloads.arrivals import DeterministicArrivals
        from repro.workloads.queries import FixedDemand

        def run(engine):
            from repro.system.query import reset_query_counter

            reset_query_counter()
            sim = Simulator()
            network = (FastNetwork if engine == "fast" else Network)(
                sim, FixedLatency(0.05)
            )
            registry = SystemRegistry()
            stream = RandomStream(23)
            providers = [
                Provider(
                    sim,
                    network,
                    participant_id=f"p{i:02d}",
                    capacity=1.0,  # homogeneous: replicas share finishes
                    preferences={"c0": stream.uniform(-1.0, 1.0)},
                )
                for i in range(10)
            ]
            for p in providers:
                registry.add_provider(p)
            consumer = Consumer(
                sim,
                network,
                participant_id="c0",
                default_n_results=3,
                preferences={
                    p.participant_id: stream.uniform(-1.0, 1.0) for p in providers
                },
            )
            registry.add_consumer(consumer)
            policy = SbQAPolicy(SbQAConfig(k=8, kn=5), RandomStream(9))
            mediator = make_mediator(
                engine, sim, network, registry, policy, keep_records=True
            )
            consumer.attach_mediator(mediator)
            arrivals = DeterministicArrivals(
                sim, consumer, FixedDemand(6.0), interval=2.0, horizon=80.0
            )
            arrivals.start()
            sim.run()
            outcome = [
                (
                    tuple(r.allocated_ids),
                    r.completed_at,
                    tuple(
                        (res.provider_id, res.started_at, res.finished_at)
                        for res in r.results
                    ),
                )
                for r in mediator.records
            ]
            return (
                outcome,
                sim.events_fired,
                network.messages_sent,
                network.messages_delivered,
                consumer.stats.queries_completed,
                consumer.stats.response_time_sum,
            )

        fast = run("fast")
        event = run("event")
        assert fast[0] == event[0]  # records, clocks, per-result spans
        assert fast[2:] == event[2:]  # message + completion accounting
        assert fast[1] < event[1]  # strictly fewer scheduler events

    def test_collapse_fires_fewer_events(self):
        """Under deterministic latency the fast engine collapses each
        dispatch into one event; clock results stay identical."""
        fired = {}
        summaries = {}
        for engine in ("fast", "event"):
            config = ExperimentConfig(
                name="events",
                duration=200.0,
                engine=engine,
                latency_low=0.05,
                latency_high=0.05,
            )
            live = wire_run(config, PolicySpec(name="sbqa"))
            result = live.finalize()
            fired[engine] = live.sim.events_fired
            summaries[engine] = json.dumps(result.summary.as_dict(), sort_keys=True)
        assert summaries["fast"] == summaries["event"]
        assert fired["fast"] < fired["event"]

    def test_deterministic_arrivals_fixed_latency_parity(self):
        """Regression: deterministic arrival grids make same-timestamp
        event ties systematic (arrival interval a multiple of the fixed
        latency), so the collapsed dispatch must be inserted into the
        heap at the same moments as the faithful chain -- tie-breaking
        is insertion order.  An eagerly-scheduled collapse diverged
        here at the 17th allocation."""
        from repro.workloads.arrivals import DeterministicArrivals
        from repro.workloads.queries import FixedDemand

        def allocations(engine):
            sim = Simulator()
            network = (FastNetwork if engine == "fast" else Network)(
                sim, FixedLatency(0.05)
            )
            registry = SystemRegistry()
            stream = RandomStream(17)
            providers = [
                Provider(
                    sim,
                    network,
                    participant_id=f"p{i:02d}",
                    capacity=stream.uniform(0.5, 2.0),
                    preferences={"c0": stream.uniform(-1.0, 1.0)},
                )
                for i in range(8)
            ]
            for p in providers:
                registry.add_provider(p)
            consumer = Consumer(
                sim,
                network,
                participant_id="c0",
                preferences={
                    p.participant_id: stream.uniform(-1.0, 1.0)
                    for p in providers
                },
            )
            registry.add_consumer(consumer)
            policy = SbQAPolicy(SbQAConfig(k=6, kn=3), RandomStream(5))
            mediator = make_mediator(
                engine, sim, network, registry, policy, keep_records=True
            )
            consumer.attach_mediator(mediator)
            arrivals = DeterministicArrivals(
                sim, consumer, FixedDemand(12.0), interval=0.15, horizon=30.0
            )
            arrivals.start()
            sim.run()
            return [tuple(r.allocated_ids) for r in mediator.records]

        assert allocations("fast") == allocations("event")

    def test_trace_runs_are_identical_and_traced(self):
        """With tracing on, the fast engine takes its production routes
        (the recorder reads finished records) and records the same
        trace as the event engine."""
        from repro.system.query import reset_query_counter

        traces = {}
        summaries = {}
        for engine in ("fast", "event"):
            reset_query_counter()  # qids appear in trace payloads
            recorder = TraceRecorder(enabled=True)
            config = ExperimentConfig(
                name="traced", duration=60.0, engine=engine
            )
            result = run_once(config, PolicySpec(name="sbqa"), trace=recorder)
            traces[engine] = [
                (e.time, e.category, e.message) for e in recorder.events
            ]
            summaries[engine] = json.dumps(result.summary.as_dict(), sort_keys=True)
            if engine == "fast":
                traced_routes = result.mediator.route_counts
        assert summaries["fast"] == summaries["event"]
        assert traces["fast"] == traces["event"]
        assert traces["fast"]  # something was actually recorded
        reset_query_counter()
        untraced = run_once(
            ExperimentConfig(name="traced", duration=60.0, engine="fast"),
            PolicySpec(name="sbqa"),
        )
        assert traced_routes == untraced.mediator.route_counts


class TestLazyTracing:
    """Satellite: no trace payload is built when nothing listens."""

    class ExplodingRecorder(TraceRecorder):
        """A disabled recorder whose record() must never be reached."""

        def __init__(self):
            super().__init__(enabled=False)

        def record(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("record() called despite enabled=False")

    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_disabled_recorder_is_never_called(self, engine):
        sim, network, registry, consumer, providers = build_micro_system()
        if engine == "fast":
            network = FastNetwork(sim, ZeroLatency())
        policy = SbQAPolicy(SbQAConfig(k=10, kn=5), RandomStream(2))
        mediator = make_mediator(
            engine,
            sim,
            network,
            registry,
            policy,
            trace=self.ExplodingRecorder(),
        )
        consumer.attach_mediator(mediator)
        for _ in range(5):
            query = Query(
                consumer=consumer,
                topic="c0",
                service_demand=5.0,
                n_results=1,
                issued_at=sim.now,
            )
            record = mediator.mediate(query)
            assert not record.is_failure
        sim.run()

    def test_failure_path_is_guarded_too(self):
        sim = Simulator()
        network = Network(sim)
        registry = SystemRegistry()
        consumer = Consumer(sim, network, participant_id="c0")
        registry.add_consumer(consumer)
        mediator = Mediator(
            sim,
            network,
            registry,
            SbQAPolicy(SbQAConfig(), RandomStream(1)),
            trace=self.ExplodingRecorder(),
        )
        query = Query(
            consumer=consumer,
            topic="t",
            service_demand=1.0,
            n_results=1,
            issued_at=0.0,
        )
        record = mediator.mediate(query)
        assert record.is_failure


class TestFastNetworkFallback:
    def test_unknown_kind_uses_envelope_and_fails_loudly(self):
        from repro.des.entity import RecordingEntity

        sim = Simulator()
        network = FastNetwork(sim, ZeroLatency())
        a = RecordingEntity(sim, "a")
        b = RecordingEntity(sim, "b")
        network.send("custom-kind", a, b, payload={"x": 1})
        sim.run()
        assert b.payloads() == [{"x": 1}]
        assert network.messages_sent == 1
        assert network.messages_delivered == 1

    def test_constant_delay_detection(self):
        assert ZeroLatency().constant_delay() == 0.0
        assert FixedLatency(0.25).constant_delay() == 0.25
        assert UniformLatency(0.1, 0.1, RandomStream(1)).constant_delay() == 0.1
        assert UniformLatency(0.1, 0.2, RandomStream(1)).constant_delay() is None

    def test_fast_mediator_disables_collapse_for_random_latency(self):
        sim = Simulator()
        network = FastNetwork(sim, UniformLatency(0.1, 0.2, RandomStream(1)))
        registry = SystemRegistry()
        mediator = FastMediator(
            sim, network, registry, SbQAPolicy(SbQAConfig(), RandomStream(1))
        )
        assert mediator._constant_one_way is None


class TestScenarioPresetParity:
    """Every shipped scenario preset, fast vs event, digest-identical.

    A mutation-style smoke over the whole preset surface (replacing the
    earlier hand-picked three-grid ablation set): each preset exercises
    a different combination of autonomy, focal probes, policies and
    population knobs, so a fused-kernel bug that only bites one regime
    (e.g. the focal consumer's ReputationBlend column, or scenario 5's
    load-only intentions) fails its own test case."""

    DURATION = 120.0
    PROVIDERS = 24

    def _preset_digest(self, scenario_id, engine):
        from repro.api.presets import scenario_spec

        spec = scenario_spec(
            scenario_id, duration=self.DURATION, n_providers=self.PROVIDERS
        )
        data = spec.to_dict()
        data["engine"] = engine
        return (
            Session(ExperimentSpec.from_dict(data)).run(keep_runs=False).to_json()
        )

    @pytest.mark.parametrize("scenario_id", available_scenarios())
    def test_preset_digest_parity(self, scenario_id):
        assert self._preset_digest(scenario_id, "fast") == self._preset_digest(
            scenario_id, "event"
        )


class TestScoringBackendParity:
    """The fused SoA kernel vs the scalar oracle, digest-identical.

    ``repro.core.engine._FUSED_KERNEL = False`` (a private test hook,
    read at mediator construction) leaves the fast engine on the
    select_fast/_commit reference path; the default engages the fused
    kernel.  Both must produce byte-identical run digests -- the
    engine-level form of the contract the oracle suite (tests/oracle/)
    replays under randomized workloads."""

    def _kernel_digest(self, fused, monkeypatch, **overrides):
        import repro.core.engine as engine

        monkeypatch.setattr(engine, "_FUSED_KERNEL", fused)
        return run_digest("fast", **overrides)

    def test_scalar_and_fused_digests_match(self, monkeypatch):
        mixed = {
            "latency": (0.05, 0.05),
            "autonomous": True,
            "failures": {"mttf": 1500.0, "repair_time": 60.0, "result_timeout": 240.0},
            "policies": [("sbqa", {}), ("capacity", {})],
        }
        scalar = self._kernel_digest(False, monkeypatch, **mixed)
        fused = self._kernel_digest(True, monkeypatch, **mixed)
        assert scalar == fused

    def test_fixed_omega_backends_match(self, monkeypatch):
        spec = {
            "latency": (0.05, 0.05),
            "policies": [("sbqa", {"omega": 0.3, "kn": 4})],
        }
        scalar = self._kernel_digest(False, monkeypatch, **spec)
        fused = self._kernel_digest(True, monkeypatch, **spec)
        assert scalar == fused

    def test_fused_gate_follows_backend(self, monkeypatch):
        """The kernel engages from what the mediator can see -- constant
        positive latency and a supported policy -- and the test hook
        is the only thing that turns it off."""
        import repro.core.engine as engine
        import repro.core.scoring as scoring

        sim = Simulator()
        network = FastNetwork(sim, FixedLatency(0.05))
        registry = SystemRegistry()
        policy = SbQAPolicy(SbQAConfig(), RandomStream(1))
        assert FastMediator(sim, network, registry, policy)._fused
        assert scoring.resolve_backend() != "python"
        monkeypatch.setattr(engine, "_FUSED_KERNEL", False)
        scalar = FastMediator(sim, network, registry, policy)
        # the hook switches off both column uses: kernel and select_fast's
        assert not scalar._fused and scalar._column_cache is None
        assert scalar._scalar_reason == "kernel hook off"
        assert scoring.resolve_backend() == "python"
