"""Unit tests for the economic (Mariposa-style) baseline [13]."""

import pytest

from repro.allocation.economic import EconomicPolicy
from repro.core.policy import AllocationContext
from repro.system.query import AllocationRecord


class TestBids:
    def test_idle_indifferent_provider_bids_service_time(self, factory):
        provider = factory.provider(capacity=2.0)
        consumer = factory.consumer()
        query = factory.query(consumer, demand=10.0)
        policy = EconomicPolicy(selfishness=0.0)
        assert policy.bid(provider, query) == pytest.approx(5.0)

    def test_backlog_raises_bid(self, factory):
        provider = factory.provider(capacity=1.0)
        consumer = factory.consumer()
        filler = factory.query(consumer, demand=20.0)
        provider.execute(AllocationRecord(query=filler, decided_at=0.0, allocated=[provider]))
        query = factory.query(consumer, demand=10.0)
        policy = EconomicPolicy(selfishness=0.0)
        assert policy.bid(provider, query) == pytest.approx(30.0)

    def test_disliked_queries_cost_more(self, factory):
        lover = factory.provider("lover", preferences={"c0": 1.0})
        hater = factory.provider("hater", preferences={"c0": -1.0})
        consumer = factory.consumer("c0")
        query = factory.query(consumer, demand=10.0)
        policy = EconomicPolicy(selfishness=1.0)
        assert policy.bid(lover, query) == pytest.approx(10.0)  # markup 1.0
        assert policy.bid(hater, query) == pytest.approx(20.0)  # markup 2.0

    def test_selfishness_validation(self):
        with pytest.raises(ValueError, match="selfishness"):
            EconomicPolicy(selfishness=1.5)


class TestSelection:
    def test_cheapest_bids_win(self, factory):
        fast = factory.provider("fast", capacity=2.0)
        slow = factory.provider("slow", capacity=0.5)
        consumer = factory.consumer()
        query = factory.query(consumer, demand=10.0, n_results=1)
        decision = EconomicPolicy().select(
            query, [slow, fast], AllocationContext(now=0.0)
        )
        assert decision.allocated[0].participant_id == "fast"

    def test_every_candidate_is_informed(self, factory):
        providers = [factory.provider(f"p{i}") for i in range(4)]
        consumer = factory.consumer()
        query = factory.query(consumer, n_results=1)
        decision = EconomicPolicy().select(query, providers, AllocationContext(now=0.0))
        assert len(decision.informed) == 4
        assert len(decision.allocated) == 1

    def test_consult_messages_two_per_candidate(self, factory):
        providers = [factory.provider(f"p{i}") for i in range(4)]
        consumer = factory.consumer()
        query = factory.query(consumer, n_results=1)
        decision = EconomicPolicy().select(query, providers, AllocationContext(now=0.0))
        assert decision.consult_messages == 8

    def test_preference_can_beat_mild_load_difference(self, factory, sim):
        """A provider that loves the consumer can underbid a slightly
        less-loaded indifferent one -- the provider-interest ingredient."""
        loved = factory.provider("loved", capacity=1.0, preferences={"c0": 1.0})
        neutral = factory.provider("neutral", capacity=1.0, preferences={"c0": -1.0})
        consumer = factory.consumer("c0")
        # give 'loved' slightly more backlog
        filler = factory.query(consumer, demand=2.0)
        loved.execute(AllocationRecord(query=filler, decided_at=0.0, allocated=[loved]))
        query = factory.query(consumer, demand=10.0, n_results=1)
        decision = EconomicPolicy(selfishness=1.0).select(
            query, [loved, neutral], AllocationContext(now=0.0)
        )
        # loved bid: 12 * 1.0 = 12; neutral bid: 10 * 2.0 = 20
        assert decision.allocated[0].participant_id == "loved"

    def test_consults_participants_flag(self):
        assert EconomicPolicy.consults_participants is True
