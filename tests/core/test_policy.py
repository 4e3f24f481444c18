"""Unit tests for the allocation-policy interface."""

import pytest

from repro.core.policy import (
    AllocationContext,
    AllocationDecision,
    AllocationPolicy,
    allocation_count,
)


class TestAllocationDecision:
    def test_informed_defaults_to_allocated(self, factory):
        consumer = factory.consumer()
        providers = [factory.provider(), factory.provider()]
        decision = AllocationDecision(allocated=providers)
        assert decision.informed == providers

    def test_allocated_must_be_subset_of_informed(self, factory):
        a = factory.provider("a")
        b = factory.provider("b")
        with pytest.raises(ValueError, match="subset"):
            AllocationDecision(allocated=[a], informed=[b])

    def test_failure_flag(self, factory):
        assert AllocationDecision(allocated=[]).is_failure
        assert not AllocationDecision(allocated=[factory.provider()]).is_failure

    def test_informed_can_exceed_allocated(self, factory):
        a = factory.provider("a")
        b = factory.provider("b")
        decision = AllocationDecision(allocated=[a], informed=[a, b])
        assert len(decision.informed) == 2


class TestAllocationCount:
    def test_limited_by_n_results(self, factory):
        consumer = factory.consumer()
        query = factory.query(consumer, n_results=2)
        assert allocation_count(query, pool_size=10) == 2

    def test_limited_by_pool(self, factory):
        consumer = factory.consumer()
        query = factory.query(consumer, n_results=5)
        assert allocation_count(query, pool_size=3) == 3


class TestBasePolicy:
    def test_select_is_abstract(self, factory):
        """Each default delegates to the other; a policy overriding
        neither must fail loudly, not recurse."""
        policy = AllocationPolicy()
        consumer = factory.consumer()
        query = factory.query(consumer)
        for method in (policy.select, policy.select_fast):
            with pytest.raises(NotImplementedError, match="neither select nor select_fast") as info:
                method(query, [factory.provider()], AllocationContext(now=0.0))
            assert type(info.value) is NotImplementedError  # not a RecursionError

    def test_select_fast_only_policy_runs_on_both_engines(self, monkeypatch):
        """A third-party policy that writes only ``select_fast`` gets
        ``select`` from the base class: the event engine runs it to the
        same digest as the fast engine."""
        import repro.experiments.runner as runner
        from repro.experiments.config import ExperimentConfig, PolicySpec
        from repro.workloads.boinc import BoincScenarioParams

        class MostCapacity(AllocationPolicy):
            name = "most-capacity"

            def select_fast(self, query, candidates, ctx):
                ranked = sorted(candidates, key=lambda p: (-p.capacity, p.participant_id))
                return AllocationDecision(allocated=ranked[: allocation_count(query, len(ranked))])

        assert "select" not in vars(MostCapacity)
        monkeypatch.setattr(runner, "make_policy", lambda *args, **kwargs: MostCapacity())
        digests = {}
        for engine in ("event", "fast"):
            config = ExperimentConfig(
                name="third-party",
                duration=300.0,
                population=BoincScenarioParams(n_providers=20),
                engine=engine,
            )
            result = runner.run_once(config, PolicySpec(name="capacity"))
            assert result.summary.queries_completed > 0
            digests[engine] = result.digest()
        assert digests["event"] == digests["fast"]

    def test_describe_and_repr(self):
        policy = AllocationPolicy()
        assert policy.describe() == {"name": "abstract"}
        assert "AllocationPolicy" in repr(policy)
