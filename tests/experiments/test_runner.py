"""Integration tests for the experiment runner (small scale)."""

from dataclasses import replace

import pytest

from repro.experiments.config import AutonomyConfig, ExperimentConfig, PolicySpec
from repro.experiments.runner import run_once, run_policies
from repro.workloads.boinc import BoincScenarioParams

TINY = ExperimentConfig(
    name="tiny",
    seed=42,
    duration=200.0,
    sample_interval=10.0,
    population=BoincScenarioParams(n_providers=15),
)


class TestRunOnce:
    def test_produces_complete_result(self):
        result = run_once(TINY, PolicySpec(name="capacity"))
        assert result.summary.queries_issued > 0
        assert result.summary.queries_completed > 0
        assert result.summary.duration == 200.0
        assert result.label == "capacity"
        assert len(result.registry.providers) == 15

    def test_sbqa_runs(self):
        result = run_once(TINY, PolicySpec(name="sbqa"))
        assert result.summary.queries_completed > 0
        assert result.mediator.coordination_messages > 0

    def test_deterministic_per_seed(self):
        a = run_once(TINY, PolicySpec(name="sbqa"))
        b = run_once(TINY, PolicySpec(name="sbqa"))
        assert a.summary.queries_issued == b.summary.queries_issued
        assert a.summary.mean_response_time == b.summary.mean_response_time
        assert a.summary.provider_satisfaction_final == b.summary.provider_satisfaction_final

    def test_replications_differ(self):
        a = run_once(TINY, PolicySpec(name="sbqa"), replication=0)
        b = run_once(TINY, PolicySpec(name="sbqa"), replication=1)
        assert a.summary.mean_response_time != b.summary.mean_response_time

    def test_sampled_series_cover_run(self):
        result = run_once(TINY, PolicySpec(name="capacity"))
        points = result.hub.provider_satisfaction.points()
        assert points[0][0] == 0.0
        assert points[-1][0] == pytest.approx(200.0)

    def test_groups_registered(self):
        result = run_once(TINY, PolicySpec(name="capacity"))
        groups = set(result.hub.group_satisfaction)
        assert "consumer:seti" in groups
        assert any(g.startswith("archetype:") for g in groups)

    def test_captive_run_has_no_departures(self):
        result = run_once(TINY, PolicySpec(name="capacity"))
        assert result.summary.provider_departures == 0
        assert result.summary.providers_remaining == 15

    def test_autonomous_run_can_shed_providers(self):
        config = replace(
            TINY,
            duration=600.0,
            autonomy=AutonomyConfig(mode="autonomous", warmup=100.0, min_observations=10),
        )
        result = run_once(config, PolicySpec(name="capacity"))
        assert result.summary.provider_departures > 0
        assert (
            result.summary.providers_remaining
            == 15 - result.summary.provider_departures
        )

    def test_participant_satisfaction_lookup(self):
        result = run_once(TINY, PolicySpec(name="capacity"))
        assert 0.0 <= result.participant_satisfaction("seti") <= 1.0
        assert 0.0 <= result.participant_satisfaction("p000") <= 1.0

    def test_all_satisfactions_well_defined(self):
        """The model invariant, end to end: delta_s in [0, 1] always."""
        for policy in ("sbqa", "capacity", "economic", "random"):
            result = run_once(TINY, PolicySpec(name=policy))
            for p in result.registry.providers:
                assert 0.0 <= p.satisfaction <= 1.0
            for c in result.registry.consumers:
                assert 0.0 <= c.satisfaction <= 1.0

    def test_boinc_shares_policy_runs(self):
        result = run_once(TINY, PolicySpec(name="boinc-shares"))
        # the rigid-shares dispatcher wastes capacity: some failures are expected,
        # but it must still complete a good share of queries
        assert result.summary.queries_completed > 0


class TestRunPolicies:
    def test_runs_every_spec(self):
        results = run_policies(TINY, [PolicySpec(name="capacity"), PolicySpec(name="random")])
        assert [r.label for r in results] == ["capacity", "random"]

    def test_same_population_draw_across_policies(self):
        results = run_policies(TINY, [PolicySpec(name="capacity"), PolicySpec(name="random")])
        prefs_a = results[0].registry.provider("p000").preferences
        prefs_b = results[1].registry.provider("p000").preferences
        assert prefs_a == prefs_b


class TestRejoinExtension:
    def test_rejoin_recovers_population(self):
        base = replace(
            TINY,
            duration=800.0,
            autonomy=AutonomyConfig(
                mode="autonomous", warmup=100.0, min_observations=10
            ),
        )
        with_rejoin = replace(
            TINY,
            duration=800.0,
            autonomy=AutonomyConfig(
                mode="autonomous",
                warmup=100.0,
                min_observations=10,
                rejoin_cooldown=120.0,
            ),
        )
        final = run_once(base, PolicySpec(name="capacity"))
        recovering = run_once(with_rejoin, PolicySpec(name="capacity"))
        assert final.summary.provider_rejoins == 0
        assert recovering.summary.provider_rejoins > 0
        # with returns, the end-of-run population can only be larger or equal
        assert (
            recovering.summary.providers_remaining
            >= final.summary.providers_remaining
        )

    def test_rejoin_events_reach_the_hub(self):
        config = replace(
            TINY,
            duration=800.0,
            autonomy=AutonomyConfig(
                mode="autonomous",
                warmup=100.0,
                min_observations=10,
                rejoin_cooldown=120.0,
            ),
        )
        result = run_once(config, PolicySpec(name="capacity"))
        assert len(result.hub.rejoins) == result.summary.provider_rejoins + (
            result.summary.consumer_rejoins
        )

    def test_allocation_satisfaction_summary_field(self):
        config = replace(TINY, adequation_over_candidates=True)
        result = run_once(config, PolicySpec(name="sbqa"))
        assert 0.0 <= result.summary.consumer_allocation_satisfaction <= 1.0
        # with the full candidate pool visible, the mediator cannot be
        # perfectly optimal under KnBest sampling
        assert result.summary.consumer_allocation_satisfaction > 0.3


class TestLiveRunStepping:
    def test_step_until_backwards_is_noop(self):
        from repro.experiments.runner import wire_run

        live = wire_run(TINY, PolicySpec(name="sbqa"))
        live.step_until(50.0)
        issued = live.hub.queries_issued
        # a target at or before now must neither raise nor disturb state
        assert live.step_until(20.0) is live
        assert live.step_until(50.0) is live
        assert live.sim.now == pytest.approx(50.0)
        assert live.hub.queries_issued == issued

    def test_noop_step_preserves_digest(self):
        from repro.experiments.runner import wire_run

        policy = PolicySpec(name="sbqa")
        plain = run_once(TINY, policy)
        stepped = wire_run(TINY, policy)
        stepped.step_until(80.0)
        for target in (80.0, 40.0, 0.0, -5.0):
            stepped.step_until(target)
        assert stepped.finalize().digest() == plain.digest()

    def test_step_clamps_to_horizon(self):
        from repro.experiments.runner import wire_run

        live = wire_run(TINY, PolicySpec(name="sbqa"))
        live.step_until(TINY.duration * 10)
        assert live.sim.now == pytest.approx(TINY.duration)
        assert live.finished

    def test_step_after_finalize_raises(self):
        from repro.experiments.runner import wire_run

        live = wire_run(TINY, PolicySpec(name="sbqa"))
        live.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            live.step_until(10.0)
