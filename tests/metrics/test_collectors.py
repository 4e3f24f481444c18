"""Unit tests for the metrics hub."""

import pytest

from repro.metrics.collectors import MetricsHub
from repro.system.autonomy import Departure
from repro.system.query import AllocationRecord, QueryResult


def success_record(factory, consumer=None, provider=None, rt=10.0):
    consumer = consumer or factory.consumer()
    provider = provider or factory.provider()
    query = factory.query(consumer)
    record = AllocationRecord(query=query, decided_at=0.0, allocated=[provider])
    record.record_result(
        QueryResult(query=query, provider_id=provider.participant_id,
                    started_at=0.0, finished_at=rt)
    )
    return record


class TestEventRecords:
    def test_mediation_counters(self, factory):
        hub = MetricsHub()
        consumer = factory.consumer("c0")
        provider = factory.provider()
        ok = AllocationRecord(
            query=factory.query(consumer), decided_at=0.0, allocated=[provider]
        )
        fail = AllocationRecord(query=factory.query(consumer), decided_at=0.0)
        hub.record_mediation(ok)
        hub.record_mediation(fail)
        assert hub.queries_issued == 2
        assert hub.queries_allocated == 1
        assert hub.queries_failed == 1
        assert hub.failure_rate == 0.5
        assert hub.issued_by_consumer == {"c0": 2}
        assert hub.failed_by_consumer == {"c0": 1}

    def test_failure_rate_empty(self):
        assert MetricsHub().failure_rate == 0.0

    def test_completion_records_response_time(self, factory):
        hub = MetricsHub()
        record = success_record(factory, rt=12.0)
        hub.record_completion(record)
        assert hub.queries_completed == 1
        assert list(hub.response_times) == [12.0]

    def test_distributions_are_unboxed_doubles(self, factory):
        hub = MetricsHub()
        hub.record_mediation(success_record(factory, rt=3.0))
        hub.record_completion(success_record(factory, rt=3.0))
        for distribution in (hub.response_times, hub.consultation_delays):
            assert distribution.typecode == "d"
            assert distribution.itemsize == 8
            assert len(distribution) == 1

    def test_completion_of_incomplete_record_rejected(self, factory):
        hub = MetricsHub()
        consumer = factory.consumer()
        record = AllocationRecord(
            query=factory.query(consumer), decided_at=0.0,
            allocated=[factory.provider()],
        )
        with pytest.raises(ValueError, match="incomplete"):
            hub.record_completion(record)

    def test_departures(self):
        hub = MetricsHub()
        hub.record_departure(Departure(10.0, "p1", "provider", 0.2))
        hub.record_departure(Departure(20.0, "c1", "consumer", 0.4))
        hub.record_departure(Departure(30.0, "p2", "provider", 0.1))
        assert hub.departures_by_kind() == {"provider": 2, "consumer": 1}


class TestSampling:
    def test_sample_once_populates_series(self, factory):
        hub = MetricsHub()
        provider = factory.provider()
        consumer = factory.consumer()
        hub.sample_once(0.0, factory.registry)
        assert hub.provider_satisfaction.last == 0.5  # neutral
        assert hub.providers_online.last == 1.0
        assert hub.consumers_online.last == 1.0
        assert hub.total_capacity.last == 1.0

    def test_periodic_sampling_via_simulator(self, factory, sim):
        hub = MetricsHub()
        factory.provider()
        hub.start_sampling(sim, factory.registry, interval=10.0)
        sim.run_until(35.0)
        # samples at t = 0, 10, 20, 30
        assert len(hub.provider_satisfaction) == 4

    def test_throughput_counts_window_completions(self, factory, sim):
        hub = MetricsHub()
        factory.provider("px")
        hub.start_sampling(sim, factory.registry, interval=10.0)
        record = success_record(factory)
        sim.schedule_at(5.0, lambda: hub.record_completion(record))
        sim.run_until(20.0)
        # window (0, 10] saw one completion -> 0.1 q/s
        assert hub.throughput.points()[1] == (10.0, 0.1)
        assert hub.throughput.points()[2] == (20.0, 0.0)

    def test_interval_validation(self, factory, sim):
        hub = MetricsHub()
        with pytest.raises(ValueError, match="interval"):
            hub.start_sampling(sim, factory.registry, interval=0.0)

    def test_offline_participants_excluded_from_means(self, factory):
        hub = MetricsHub()
        happy = factory.provider("happy")
        happy.record_proposal(1.0, performed=True)
        sad = factory.provider("sad")
        sad.record_proposal(-1.0, performed=True)
        sad.leave()
        hub.sample_once(0.0, factory.registry)
        assert hub.provider_satisfaction.last == 1.0  # only 'happy' online

    def test_utilization_statistics(self, factory):
        from repro.system.query import AllocationRecord as AR

        hub = MetricsHub()
        busy = factory.provider("busy", saturation_horizon=10.0)
        idle = factory.provider("idle", saturation_horizon=10.0)
        consumer = factory.consumer()
        query = factory.query(consumer, demand=10.0)
        busy.execute(AR(query=query, decided_at=0.0, allocated=[busy]))
        hub.sample_once(0.0, factory.registry)
        assert hub.utilization_mean.last == pytest.approx(0.5)
        assert hub.utilization_gini.last == pytest.approx(0.5)


class TestGroups:
    def test_group_registration_and_sampling(self, factory):
        hub = MetricsHub()
        a = factory.provider("a")
        a.record_proposal(1.0, performed=True)
        b = factory.provider("b")
        hub.register_group("g", "provider", ["a"])
        hub.sample_once(0.0, factory.registry)
        assert hub.group_satisfaction["g"].last == 1.0

    def test_consumer_groups(self, factory):
        hub = MetricsHub()
        consumer = factory.consumer("c0")
        consumer.record_query_satisfaction(0.9)
        hub.register_group("proj", "consumer", ["c0"])
        hub.sample_once(0.0, factory.registry)
        assert hub.group_satisfaction["proj"].last == pytest.approx(0.9)

    def test_offline_members_still_sampled(self, factory):
        """Scenario 2 analysis needs departed members' satisfaction."""
        hub = MetricsHub()
        provider = factory.provider("a")
        provider.record_proposal(-1.0, performed=True)
        provider.leave()
        hub.register_group("g", "provider", ["a"])
        hub.sample_once(0.0, factory.registry)
        assert hub.group_satisfaction["g"].last == 0.0

    def test_group_validation(self):
        hub = MetricsHub()
        with pytest.raises(ValueError, match="kind"):
            hub.register_group("g", "robot", ["x"])
        hub.register_group("g", "provider", ["x"])
        with pytest.raises(ValueError, match="duplicate group"):
            hub.register_group("g", "provider", ["y"])

    def test_series_map_includes_groups(self, factory):
        hub = MetricsHub()
        factory.provider("a")
        hub.register_group("g", "provider", ["a"])
        hub.sample_once(0.0, factory.registry)
        assert "group:g" in hub.series_map()
        assert "provider_satisfaction" in hub.series_map()
