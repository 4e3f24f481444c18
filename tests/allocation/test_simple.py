"""Unit tests for the random / round-robin / shortest-queue baselines."""

import pytest

from repro.allocation.simple import RandomPolicy, RoundRobinPolicy, ShortestQueuePolicy
from repro.core.policy import AllocationContext
from repro.des.rng import RandomStream
from repro.system.query import AllocationRecord


def ctx():
    return AllocationContext(now=0.0)


class TestRandomPolicy:
    def test_allocates_from_candidates(self, factory):
        providers = [factory.provider(f"p{i}") for i in range(5)]
        consumer = factory.consumer()
        query = factory.query(consumer, n_results=2)
        policy = RandomPolicy(RandomStream(1))
        decision = policy.select(query, providers, ctx())
        assert len(decision.allocated) == 2
        assert set(decision.allocated) <= set(providers)

    def test_deterministic_per_seed(self, factory):
        providers = [factory.provider(f"p{i}") for i in range(10)]
        consumer = factory.consumer()
        query = factory.query(consumer, n_results=3)
        d1 = RandomPolicy(RandomStream(7)).select(query, providers, ctx())
        d2 = RandomPolicy(RandomStream(7)).select(query, providers, ctx())
        assert [p.participant_id for p in d1.allocated] == [
            p.participant_id for p in d2.allocated
        ]

    def test_covers_population_over_time(self, factory):
        providers = [factory.provider(f"p{i}") for i in range(10)]
        consumer = factory.consumer()
        policy = RandomPolicy(RandomStream(3))
        seen = set()
        for _ in range(100):
            query = factory.query(consumer, n_results=1)
            seen.update(
                p.participant_id for p in policy.select(query, providers, ctx()).allocated
            )
        assert len(seen) == 10


class TestRoundRobinPolicy:
    def test_cycles_through_providers(self, factory):
        providers = [factory.provider(pid) for pid in ("a", "b", "c")]
        consumer = factory.consumer()
        policy = RoundRobinPolicy()
        picks = []
        for _ in range(6):
            query = factory.query(consumer, n_results=1)
            picks.append(policy.select(query, providers, ctx()).allocated[0].participant_id)
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_multi_allocation_advances_cursor(self, factory):
        providers = [factory.provider(pid) for pid in ("a", "b", "c")]
        consumer = factory.consumer()
        policy = RoundRobinPolicy()
        query = factory.query(consumer, n_results=2)
        first = policy.select(query, providers, ctx())
        assert [p.participant_id for p in first.allocated] == ["a", "b"]
        second = policy.select(factory.query(consumer, n_results=2), providers, ctx())
        assert [p.participant_id for p in second.allocated] == ["c", "a"]

    def test_cursor_survives_shrinking_pool(self, factory):
        providers = [factory.provider(pid) for pid in ("a", "b", "c")]
        consumer = factory.consumer()
        policy = RoundRobinPolicy()
        for _ in range(2):
            policy.select(factory.query(consumer, n_results=1), providers, ctx())
        # provider list shrinks (e.g. departures); selection must not crash
        decision = policy.select(factory.query(consumer, n_results=1), providers[:2], ctx())
        assert len(decision.allocated) == 1

    def test_list_mutated_between_calls_is_resorted(self, factory):
        """The id-sort cache keys on tuples only: a list edited in place
        keeps its identity, so a cached order would be stale."""
        a, b, c = (factory.provider(pid) for pid in ("a", "b", "c"))
        consumer = factory.consumer()
        policy = RoundRobinPolicy()
        candidates = [a, c]
        first = policy.select(factory.query(consumer, n_results=1), candidates, ctx())
        assert first.allocated == [a]
        candidates.insert(1, b)  # same list object, now ["a", "b", "c"]
        second = policy.select(factory.query(consumer, n_results=1), candidates, ctx())
        assert second.allocated == [b]


class TestShortestQueuePolicy:
    def test_picks_smallest_backlog(self, factory):
        busy = factory.provider("busy", capacity=1.0)
        idle = factory.provider("idle", capacity=1.0)
        consumer = factory.consumer()
        filler = factory.query(consumer, demand=50.0)
        busy.execute(AllocationRecord(query=filler, decided_at=0.0, allocated=[busy]))
        query = factory.query(consumer, n_results=1)
        decision = ShortestQueuePolicy().select(query, [busy, idle], ctx())
        assert decision.allocated[0].participant_id == "idle"

    def test_ignores_raw_capacity(self, factory):
        """A slow idle machine beats a fast busy one (contrast with
        the capacity-based policy)."""
        fast_busy = factory.provider("fast", capacity=10.0)
        slow_idle = factory.provider("slow", capacity=0.1)
        consumer = factory.consumer()
        filler = factory.query(consumer, demand=10.0)
        fast_busy.execute(
            AllocationRecord(query=filler, decided_at=0.0, allocated=[fast_busy])
        )
        query = factory.query(consumer, n_results=1)
        decision = ShortestQueuePolicy().select(query, [fast_busy, slow_idle], ctx())
        assert decision.allocated[0].participant_id == "slow"
