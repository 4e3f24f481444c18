"""Unit/integration tests for the mediator pipeline (Figure 1)."""

import pytest

from repro.core.mediator import Mediator
from repro.core.sbqa import SbQAConfig, SbQAPolicy
from repro.allocation.capacity import CapacityBasedPolicy
from repro.des.rng import RandomStream
from repro.des.tracing import TraceRecorder
from repro.metrics.collectors import MetricsHub
from repro.system.query import QueryStatus


def sbqa(k=4, kn=2, seed=5):
    return SbQAPolicy(SbQAConfig(k=k, kn=kn), RandomStream(seed))


class TestMediationSuccess:
    def _setup(self, factory, n_providers=4, n_results=1, policy=None):
        providers = [factory.provider(f"p{i}") for i in range(n_providers)]
        consumer = factory.consumer(
            "c0", preferences={p.participant_id: 0.5 for p in providers}
        )
        mediator = Mediator(
            factory.sim,
            factory.network,
            factory.registry,
            policy or CapacityBasedPolicy(),
        )
        consumer.attach_mediator(mediator)
        return providers, consumer, mediator

    def test_query_flows_to_completion(self, factory, sim):
        providers, consumer, mediator = self._setup(factory)
        consumer.issue("c0", service_demand=10.0)
        sim.run()
        assert consumer.stats.queries_completed == 1
        assert consumer.stats.queries_issued == 1
        assert mediator.mediations == 1
        assert mediator.failures == 0

    def test_response_time_includes_service(self, factory, sim):
        providers, consumer, mediator = self._setup(factory)
        consumer.issue("c0", service_demand=10.0)  # capacity 1.0 -> 10s service
        sim.run()
        assert consumer.stats.mean_response_time == pytest.approx(10.0)

    def test_replicated_query_completes_when_all_results_arrive(self, factory, sim):
        providers, consumer, mediator = self._setup(factory, n_results=2)
        consumer.default_n_results = 2
        consumer.issue("c0", service_demand=10.0)
        sim.run()
        record = mediator.records[0]
        assert len(record.allocated) == 2
        assert len(record.results) == 2
        assert record.query.status is QueryStatus.COMPLETED

    def test_consumer_satisfaction_recorded_at_mediation(self, factory, sim):
        from repro.core.intentions import PreferenceIntentions

        providers, consumer, mediator = self._setup(factory)
        consumer.intention_model = PreferenceIntentions()
        consumer.issue("c0", service_demand=10.0)
        sim.run()
        # preference 0.5 -> Equation 1 gives (0.5+1)/2 = 0.75 with n=1
        assert consumer.tracker.observations == 1
        assert consumer.satisfaction == pytest.approx(0.75)

    def test_provider_proposal_recorded_for_allocated(self, factory, sim):
        providers, consumer, mediator = self._setup(factory)
        consumer.issue("c0", service_demand=10.0)
        sim.run()
        proposals = sum(p.tracker.observations for p in providers)
        assert proposals == 1  # capacity policy informs only the allocated one

    def test_sbqa_informs_whole_working_set(self, factory, sim):
        providers, consumer, mediator = self._setup(factory, policy=sbqa(k=4, kn=3))
        consumer.issue("c0", service_demand=10.0)
        sim.run()
        proposals = sum(p.tracker.observations for p in providers)
        assert proposals == 3  # kn = 3 informed
        performed = sum(p.tracker.total_performed for p in providers)
        assert performed == 1

    def test_record_bookkeeping(self, factory, sim):
        providers, consumer, mediator = self._setup(factory, policy=sbqa(k=4, kn=2))
        consumer.issue("c0", service_demand=10.0)
        sim.run()
        record = mediator.records[0]
        assert record.adequation is not None
        assert set(record.allocated_ids) <= set(record.informed_ids)
        assert record.response_time is not None
        assert record.response_time >= 10.0

    def test_keep_records_false_stores_nothing(self, factory, sim):
        providers = [factory.provider(f"p{i}") for i in range(2)]
        consumer = factory.consumer("c0")
        mediator = Mediator(
            factory.sim,
            factory.network,
            factory.registry,
            CapacityBasedPolicy(),
            keep_records=False,
        )
        consumer.attach_mediator(mediator)
        consumer.issue("c0", service_demand=5.0)
        sim.run()
        assert mediator.records == []
        assert mediator.mediations == 1

    def test_observer_notified(self, factory, sim):
        hub = MetricsHub()
        providers = [factory.provider(f"p{i}") for i in range(2)]
        consumer = factory.consumer("c0")
        mediator = Mediator(
            factory.sim, factory.network, factory.registry, CapacityBasedPolicy(),
            observer=hub,
        )
        consumer.attach_mediator(mediator)
        consumer.issue("c0", service_demand=5.0)
        sim.run()
        assert hub.queries_issued == 1
        assert hub.queries_allocated == 1

    def test_consultation_counts_coordination_messages(self, factory, sim):
        providers, consumer, mediator = self._setup(factory, policy=sbqa(k=4, kn=2))
        consumer.issue("c0", service_demand=10.0)
        sim.run()
        # 2*kn + 2 consult messages + kn outcome notifications
        assert mediator.coordination_messages == (2 * 2 + 2) + 2

    def test_trace_pipeline_categories(self, factory, sim):
        trace = TraceRecorder()
        providers = [factory.provider(f"p{i}") for i in range(3)]
        consumer = factory.consumer(
            "c0", preferences={p.participant_id: 0.5 for p in providers}
        )
        mediator = Mediator(
            factory.sim, factory.network, factory.registry, sbqa(k=3, kn=2), trace=trace
        )
        consumer.attach_mediator(mediator)
        consumer.issue("c0", service_demand=10.0)
        sim.run()
        # Figure 1, stage by stage: the query arrives, KnBest narrows the
        # providers, SQLB scores them, the best ones are allocated.
        pipeline = ["mediate", "knbest", "sqlb", "allocate"]
        assert [e.category for e in trace.events if e.category in pipeline] == pipeline


class TestMediationFailure:
    def test_no_capable_providers(self, factory, sim):
        consumer = factory.consumer("c0")
        mediator = Mediator(
            factory.sim, factory.network, factory.registry, CapacityBasedPolicy()
        )
        consumer.attach_mediator(mediator)
        query = consumer.issue("c0", service_demand=5.0)
        sim.run()
        assert mediator.failures == 1
        assert query.status is QueryStatus.FAILED
        assert consumer.stats.queries_failed == 1
        # Equation 1 over an empty performer set: satisfaction 0
        assert consumer.satisfaction == 0.0

    def test_offline_providers_are_not_capable(self, factory, sim):
        provider = factory.provider("p0")
        provider.leave()
        consumer = factory.consumer("c0")
        mediator = Mediator(
            factory.sim, factory.network, factory.registry, CapacityBasedPolicy()
        )
        consumer.attach_mediator(mediator)
        consumer.issue("c0", service_demand=5.0)
        sim.run()
        assert mediator.failures == 1

    def test_failure_reported_to_observer(self, factory, sim):
        hub = MetricsHub()
        consumer = factory.consumer("c0")
        mediator = Mediator(
            factory.sim, factory.network, factory.registry, CapacityBasedPolicy(),
            observer=hub,
        )
        consumer.attach_mediator(mediator)
        consumer.issue("c0", service_demand=5.0)
        sim.run()
        assert hub.queries_failed == 1
        assert hub.failure_rate == 1.0


class TestAdequation:
    def test_adequation_over_informed_by_default(self, factory, sim):
        providers = [factory.provider(f"p{i}") for i in range(4)]
        consumer = factory.consumer(
            "c0", preferences={"p0": 0.9, "p1": 0.1, "p2": 0.1, "p3": 0.1}
        )
        mediator = Mediator(
            factory.sim, factory.network, factory.registry, CapacityBasedPolicy()
        )
        consumer.attach_mediator(mediator)
        consumer.issue("c0", service_demand=5.0)
        sim.run()
        record = mediator.records[0]
        # informed == allocated for the capacity policy, so adequation
        # equals the achieved satisfaction
        assert record.adequation == pytest.approx(
            consumer.tracker.satisfaction()
        )

    def test_adequation_over_candidates_sees_full_pool(self, factory, sim):
        from repro.core.intentions import PreferenceIntentions

        providers = [factory.provider(f"p{i}") for i in range(4)]
        # p3 is loved but slow to be chosen by capacity (equal otherwise)
        consumer = factory.consumer(
            "c0",
            preferences={"p0": 0.0, "p1": 0.0, "p2": 0.0, "p3": 1.0},
            intention_model=PreferenceIntentions(),
        )
        mediator = Mediator(
            factory.sim,
            factory.network,
            factory.registry,
            CapacityBasedPolicy(),
            adequation_over_candidates=True,
        )
        consumer.attach_mediator(mediator)
        consumer.issue("c0", service_demand=5.0)
        sim.run()
        record = mediator.records[0]
        # best candidate has preference 1.0 -> adequation (1+1)/2 = 1.0
        assert record.adequation == pytest.approx(1.0)
