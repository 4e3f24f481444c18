"""Unit tests for the SbQA policy (KnBest + SQLB pipeline)."""

import pytest

from repro.core.mediator import Mediator
from repro.core.policy import AllocationContext
from repro.core.sbqa import SbQAConfig, SbQAPolicy
from repro.des.rng import RandomStream
from repro.des.tracing import TraceRecorder


def make_policy(k=4, kn=2, omega="adaptive", epsilon=1.0, seed=11):
    return SbQAPolicy(SbQAConfig(k=k, kn=kn, omega=omega, epsilon=epsilon), RandomStream(seed))


class TestConfig:
    def test_defaults_valid(self):
        config = SbQAConfig()
        assert 1 <= config.kn <= config.k

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            SbQAConfig(k=0, kn=1)

    def test_kn_validation(self):
        with pytest.raises(ValueError, match="kn must satisfy"):
            SbQAConfig(k=5, kn=6)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            SbQAConfig(epsilon=0.0)


class TestSelection:
    def test_allocates_min_n_kn(self, factory):
        providers = [factory.provider() for _ in range(10)]
        consumer = factory.consumer(preferences={p.participant_id: 0.5 for p in providers})
        query = factory.query(consumer, n_results=3)
        policy = make_policy(k=6, kn=4)
        decision = policy.select(query, providers, AllocationContext(now=0.0))
        assert len(decision.allocated) == 3  # min(n=3, kn=4)
        assert len(decision.informed) == 4

    def test_allocation_capped_by_kn(self, factory):
        providers = [factory.provider() for _ in range(10)]
        consumer = factory.consumer(preferences={p.participant_id: 0.5 for p in providers})
        query = factory.query(consumer, n_results=8)
        policy = make_policy(k=6, kn=2)
        decision = policy.select(query, providers, AllocationContext(now=0.0))
        assert len(decision.allocated) == 2  # min(n=8, kn=2)

    def test_allocated_are_best_scored(self, factory):
        providers = [factory.provider(f"p{i}") for i in range(4)]
        # consumer loves p0 and p1, dislikes p2, p3
        consumer = factory.consumer(
            preferences={"p0": 0.9, "p1": 0.8, "p2": -0.9, "p3": -0.8}
        )
        query = factory.query(consumer, n_results=2)
        # k = kn = 4: no sampling noise, pure scoring
        policy = make_policy(k=4, kn=4, omega=0.0)  # omega 0: consumer only
        decision = policy.select(query, providers, AllocationContext(now=0.0))
        assert sorted(p.participant_id for p in decision.allocated) == ["p0", "p1"]

    def test_omega_one_follows_provider_intentions(self, factory):
        providers = [
            factory.provider("eager", preferences={"c0": 0.9}),
            factory.provider("averse", preferences={"c0": -0.9}),
        ]
        consumer = factory.consumer("c0", preferences={"eager": 0.5, "averse": 0.5})
        query = factory.query(consumer, n_results=1)
        policy = make_policy(k=2, kn=2, omega=1.0)
        decision = policy.select(query, providers, AllocationContext(now=0.0))
        assert decision.allocated[0].participant_id == "eager"

    def test_decision_carries_intentions_scores_omegas(self, factory):
        providers = [factory.provider(f"p{i}") for i in range(3)]
        consumer = factory.consumer(preferences={p.participant_id: 0.4 for p in providers})
        query = factory.query(consumer, n_results=1)
        policy = make_policy(k=3, kn=3)
        decision = policy.select(query, providers, AllocationContext(now=0.0))
        informed_ids = {p.participant_id for p in decision.informed}
        assert set(decision.consumer_intentions) == informed_ids
        assert set(decision.provider_intentions) == informed_ids
        assert set(decision.scores) == informed_ids
        assert set(decision.omegas) == informed_ids

    def test_consult_messages_counted(self, factory):
        providers = [factory.provider(f"p{i}") for i in range(5)]
        consumer = factory.consumer(preferences={p.participant_id: 0.4 for p in providers})
        query = factory.query(consumer, n_results=1)
        policy = make_policy(k=5, kn=3)
        decision = policy.select(query, providers, AllocationContext(now=0.0))
        # 2 per consulted provider + 2 for the consumer
        assert decision.consult_messages == 2 * 3 + 2

    def test_adaptive_omega_reflects_pair_satisfaction(self, factory):
        provider = factory.provider("p0", preferences={"c0": 0.5})
        # make the provider very dissatisfied: proposals never performed
        provider.tracker.record_proposal(0.5, performed=False)
        consumer = factory.consumer("c0", preferences={"p0": 0.5})
        consumer.tracker.record_query(0.9)
        query = factory.query(consumer, n_results=1)
        policy = make_policy(k=1, kn=1, omega="adaptive")
        decision = policy.select(query, [provider], AllocationContext(now=0.0))
        # consumer sat 0.9, provider sat 0.0 -> omega = 0.95
        assert decision.omegas["p0"] == pytest.approx(0.95)

    def test_trace_records_pipeline_stages(self, factory):
        """The policy's lines are rendered from the record the mediator
        stores, between its ``mediate`` and ``allocate`` lines."""
        providers = [factory.provider(f"p{i}") for i in range(3)]
        consumer = factory.consumer(preferences={p.participant_id: 0.4 for p in providers})
        query = factory.query(consumer, n_results=1)
        trace = TraceRecorder()
        Mediator(
            factory.sim, factory.network, factory.registry, make_policy(k=3, kn=2), trace=trace
        ).mediate(query)
        assert [e.category for e in trace] == ["mediate", "knbest", "sqlb", "allocate"]
        assert "|P_q|=3 -> |K|=3 -> |Kn|=2" in trace.by_category("knbest")[0].message

    def test_describe_lists_parameters(self):
        policy = make_policy(k=7, kn=3, omega=0.25)
        described = policy.describe()
        assert described["k"] == 7
        assert described["kn"] == 3
        assert "FixedOmega" in described["omega"]

    def test_consults_participants_flag(self):
        assert SbQAPolicy.consults_participants is True

    def test_deterministic_given_seed(self, factory):
        providers = [factory.provider(f"p{i}") for i in range(20)]
        consumer = factory.consumer(preferences={p.participant_id: 0.4 for p in providers})
        query = factory.query(consumer, n_results=2)
        d1 = make_policy(k=5, kn=3, seed=9).select(
            query, providers, AllocationContext(now=0.0)
        )
        d2 = make_policy(k=5, kn=3, seed=9).select(
            query, providers, AllocationContext(now=0.0)
        )
        assert [p.participant_id for p in d1.allocated] == [
            p.participant_id for p in d2.allocated
        ]
