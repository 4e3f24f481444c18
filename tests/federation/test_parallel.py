"""Process-parallel shard execution: digest parity and the protocol.

The contract of :mod:`repro.federation.parallel` is absolute: whatever
the worker count, the merged result's digest equals the single-process
digest byte for byte, or the runner falls back to serial (and then the
digest is trivially equal).  These tests pin

* the load-aware planner's partition, balance and clamp properties,
* the eligibility gate's reasons and the serial decision taken before
  forking,
* digest parity on preset-derived configs (both engines, several
  worker counts, with and without churn) and for *any* placement,
* the columnar sample transport (every series float equals serial),
* the merged final rows and the churn-sweep order of departures and
  rejoins (both equal serial),
* the conservative cross-group-forwarding fallback,
* worker death and sibling-stop (fault injection), and
* the ``Session.run(shard_workers=...)`` surface.
"""

import multiprocessing
import os
import random
import time
from dataclasses import astuple, is_dataclass, replace

import pytest

from repro.api.presets import scenario_spec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_once, wire_run
from repro.federation import (
    FederationConfig,
    parallel_ineligible_reason,
    plan_placement,
    run_parallel,
    shard_loads,
)
from repro.federation import parallel as parallel_module
from repro.metrics.summary import final_rows
from repro.workloads.boinc import BoincScenarioParams


def _federated_config(scenario="scenario1", duration=90.0, shards=3, **over):
    spec = scenario_spec(scenario, duration=duration)
    # Presets draw per-message latency from [low, high); the parallel
    # path needs the constant model (its lookahead), so pin it.
    config = replace(
        spec.to_config(),
        federation=FederationConfig(shards=shards),
        latency_low=0.05,
        latency_high=0.05,
        **over,
    )
    return config, spec.policies[0]


# ----------------------------------------------------------------------
# shard_loads / plan_placement
# ----------------------------------------------------------------------


def _drawn_loads(shards, seed):
    """Seeded loads with a guaranteed mix of idle and loaded shards."""
    rng = random.Random(seed)
    return [
        0.0 if rng.random() < 0.4 else round(rng.uniform(0.1, 3.0), 2)
        for _ in range(shards)
    ]


def _group_load(loads, group):
    return sum(loads[s] for s in group)


class TestPlanGroups:
    @pytest.mark.parametrize("shards,workers", [(1, 1), (3, 2), (5, 5), (50, 8)])
    def test_partition_properties(self, shards, workers):
        loads = _drawn_loads(shards, seed=100 * shards + workers)
        groups = plan_placement(loads, workers)
        # A partition: every shard exactly once.
        assert sorted(s for group in groups for s in group) == list(range(shards))
        # Canonical form: ordinal-sorted groups, ordered by first ordinal.
        assert all(list(group) == sorted(group) for group in groups)
        assert [group[0] for group in groups] == sorted(g[0] for g in groups)
        loaded = sum(1 for load in loads if load > 0)
        assert len(groups) == min(workers, shards, max(1, loaded))

    def test_workers_clamped_to_shards(self):
        assert len(plan_placement([1.0, 1.0], 16)) == 2

    def test_workers_clamped_to_loaded_shards(self):
        # No process is planned that would own zero consumers.
        assert plan_placement([0.0, 2.0, 0.0, 1.0, 0.0], 4) == ((0, 2, 3, 4), (1,))
        assert plan_placement([0.0, 0.0, 0.0], 2) == ((0, 1, 2),)

    def test_deterministic(self):
        loads = _drawn_loads(50, seed=8)
        assert plan_placement(loads, 8) == plan_placement(list(loads), 8)

    @pytest.mark.parametrize("shards,workers", [(0, 1), (1, 0)])
    def test_rejects_nonpositive(self, shards, workers):
        with pytest.raises(ValueError):
            plan_placement([1.0] * shards, workers)

    def test_lpt_bound_and_no_consumerless_group(self):
        rng = random.Random(20090301)
        for _ in range(200):
            shards = rng.randint(1, 40)
            workers = rng.randint(1, 10)
            loads = _drawn_loads(shards, seed=rng.random())
            groups = plan_placement(loads, workers)
            group_loads = [_group_load(loads, group) for group in groups]
            mean_load = sum(loads) / len(groups)
            assert max(group_loads) <= mean_load + max(loads) + 1e-9
            if any(load > 0 for load in loads):
                assert all(
                    any(loads[s] > 0 for s in group) for group in groups
                ), (loads, groups)

    def test_zero_load_shards_land_on_the_lightest_group(self):
        loads = [0.0, 5.0, 0.0, 1.0, 0.0, 2.0]
        groups = plan_placement(loads, 3)
        lightest = min(groups, key=lambda group: _group_load(loads, group))
        assert lightest == (0, 2, 3, 4)
        assert groups == ((0, 2, 3, 4), (1,), (5,))

    def test_heavy_shard_is_isolated(self):
        # The contiguous cut ((0, 1), (2, 3)) would pair both loaded
        # shards on one worker; LPT separates them.
        assert plan_placement([0.0, 0.0, 2.0, 1.0], 2) == ((0, 1, 3), (2,))


class TestShardLoads:
    def _config(self, shards, **population):
        return ExperimentConfig(
            name="loads",
            population=BoincScenarioParams(n_providers=8, **population),
            federation=FederationConfig(shards=shards),
        )

    def test_loads_are_rate_scales_by_home_shard(self):
        config = self._config(8)
        loads = shard_loads(config)
        assert len(loads) == 8
        scales = config.population.rate_scales()
        assert set(scales) == set(config.population.consumer_ids)
        assert sum(loads) == pytest.approx(sum(scales.values()))
        assert sum(1 for load in loads if load > 0) <= len(scales)

    def test_focal_consumer_counts(self):
        from repro.workloads.boinc import FocalConsumerSpec

        config = self._config(
            8, focal_consumer=FocalConsumerSpec(rate_scale=2.5)
        )
        assert config.population.rate_scales()["focal-consumer"] == 2.5
        assert sum(shard_loads(config)) == pytest.approx(3.0 + 2.5)

    def test_paper_consumers_keep_two_loaded_groups_at_the_bench_shapes(self):
        # K=8 is the benchmark's federated-parallel shape, K=4 its
        # harness smoke; both must keep two consumer-owning workers.
        for shards in (4, 8):
            loads = shard_loads(self._config(shards))
            groups = plan_placement(loads, 2)
            assert len(groups) == 2
            assert all(_group_load(loads, group) > 0 for group in groups)

    def test_all_load_on_one_shard_plans_one_group(self):
        # At K=2 the three paper consumers all home on shard 1.
        loads = shard_loads(self._config(2))
        assert sorted(loads) == [0.0, pytest.approx(3.0)]
        assert plan_placement(loads, 2) == ((0, 1),)


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------


class TestEligibility:
    def test_eligible_config(self):
        config, _ = _federated_config()
        assert config.latency_low == config.latency_high
        assert parallel_ineligible_reason(config) is None

    def test_requires_federation(self):
        config, _ = _federated_config()
        assert "federation" in parallel_ineligible_reason(
            replace(config, federation=None)
        )

    def test_rejects_random_latency(self):
        config, _ = _federated_config()
        reason = parallel_ineligible_reason(
            replace(config, latency_low=0.01, latency_high=0.2)
        )
        assert "latency" in reason

    def test_rejects_failure_injection(self):
        from repro.system.failures import FailureConfig

        config, _ = _federated_config()
        reason = parallel_ineligible_reason(
            replace(
                config,
                failures=FailureConfig(mttf=1000.0),
                result_timeout=240.0,
            )
        )
        assert "failure" in reason

    def test_rejects_keep_records(self):
        config, _ = _federated_config()
        assert "keep_records" in parallel_ineligible_reason(
            replace(config, keep_records=True)
        )

    def test_rejects_provider_snapshots(self):
        config, _ = _federated_config()
        assert "snapshot" in parallel_ineligible_reason(
            replace(config, track_provider_snapshots=True)
        )

    def test_single_loaded_group_decides_serial_before_forking(self, monkeypatch):
        # K=2: every paper consumer homes on shard 1, so two workers
        # would be one busy worker plus an idle one.  Known from the
        # config alone -- no fork, no slice protocol.
        config, policy = _federated_config(duration=60.0, shards=2)
        monkeypatch.setattr(
            parallel_module,
            "_run_groups",
            lambda *a, **k: pytest.fail("forked for a one-group plan"),
        )
        report = run_parallel(config, policy, workers=2)
        assert report.mode == "serial-fallback"
        assert report.reason == "one shard group carries all offered load"
        assert report.groups == report.loads == ()
        assert report.result.digest() == run_once(config, policy).digest()

    def test_explicit_single_worker_still_runs_the_protocol(self):
        # workers=1 is the protocol-overhead probe: honoured as asked.
        config, policy = _federated_config(duration=60.0, shards=2)
        report = run_parallel(config, policy, workers=1)
        assert report.mode == "parallel"
        assert report.workers == 1
        assert report.result.digest() == run_once(config, policy).digest()

    def test_ineligible_config_falls_back_to_serial(self):
        config, policy = _federated_config(keep_records=True)
        report = run_parallel(config, policy, workers=2)
        assert report.mode == "serial-fallback"
        assert "keep_records" in report.reason
        assert (
            report.result.digest()
            == run_once(config, policy).digest()
        )


# ----------------------------------------------------------------------
# Digest parity
# ----------------------------------------------------------------------


class TestDigestParity:
    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_parallel_matches_serial(self, engine):
        config, policy = _federated_config()
        config = replace(config, engine=engine)
        serial = run_once(config, policy)
        report = run_parallel(config, policy, workers=2)
        assert report.mode == "parallel"
        assert report.result.digest() == serial.digest()
        # Execution metadata survives the harvest: which route decided
        # and which commit ran, summed over the workers' shards.
        merged = report.result.mediator
        for tally in ("route_counts", "scalar_reasons", "commit_counts"):
            assert getattr(merged, tally) == getattr(serial.mediator, tally), tally
        if engine == "fast":
            assert sum(merged.route_counts.values()) == merged.commit_counts["rows"] > 0
        else:
            assert merged.route_counts["scalar"] == merged.commit_counts["objects"] > 0
            assert merged.scalar_reasons == {"event engine": merged.route_counts["scalar"]}

    def test_every_worker_count_identical(self):
        config, policy = _federated_config(duration=60.0)
        serial = run_once(config, policy).digest()
        for workers in (1, 2, 3):
            report = run_parallel(config, policy, workers=workers)
            assert report.mode == "parallel"
            assert report.result.digest() == serial, (
                f"workers={workers} diverged from serial"
            )

    def test_workers_beyond_shards_clamp(self):
        config, policy = _federated_config(duration=60.0)
        report = run_parallel(config, policy, workers=16)
        assert report.mode == "parallel"
        # Clamped to the shard count (3) and then to the shards that
        # home a consumer (2 here): nobody forks to own zero consumers.
        loaded = sum(1 for load in shard_loads(config) if load > 0)
        assert len(report.groups) == loaded == 2
        assert all(load > 0 for load in report.loads)
        assert len(report.wall_s) == len(report.cpu_s) == 2
        assert (
            report.result.digest()
            == run_once(config, policy).digest()
        )

    def test_churn_scenario_parallel(self):
        # scenario4 exercises autonomous departures/rejoins; ownership
        # of the churn sweep must partition cleanly across workers.
        config, policy = _federated_config("scenario4", duration=90.0)
        serial = run_once(config, policy).digest()
        report = run_parallel(config, policy, workers=2)
        assert report.mode == "parallel"
        assert report.result.digest() == serial

    def test_replication_seeding_respected(self):
        config, policy = _federated_config(duration=60.0)
        serial = run_once(config, policy, replication=3).digest()
        report = run_parallel(config, policy, workers=2, replication=3)
        assert report.mode == "parallel"
        assert report.result.digest() == serial
        assert (
            report.result.digest()
            != run_once(config, policy, replication=0).digest()
        )


    def test_worker_counts_on_the_eight_shard_matrix(self):
        config, policy = _federated_config(duration=40.0, shards=8)
        serial = run_once(config, policy)
        for workers in (1, 2, 3, 4, 8):
            report = run_parallel(config, policy, workers=workers)
            assert report.mode == "parallel", report.reason
            assert report.result.digest() == serial.digest(), f"workers={workers}"
            assert report.result.mediator.route_counts == serial.mediator.route_counts
            assert report.result.mediator.commit_counts == serial.mediator.commit_counts


# ----------------------------------------------------------------------
# Placement invariance and the columnar sample transport
# ----------------------------------------------------------------------


def _random_partition(rng, shards):
    """A seeded partition of the shard ordinals into 1..shards groups
    (consumer-less groups included: the slice protocol must carry them)."""
    n_groups = rng.randint(1, shards)
    assignment = [rng.randrange(n_groups) for _ in range(shards)]
    groups = [
        tuple(s for s in range(shards) if assignment[s] == g)
        for g in range(n_groups)
    ]
    return tuple(sorted(group for group in groups if group))


class TestPlacementInvariance:
    @pytest.mark.parametrize(
        "scenario,engine",
        [("scenario1", "fast"), ("scenario1", "event"), ("scenario4", "fast")],
    )
    def test_any_partition_merges_to_the_serial_digest(self, scenario, engine):
        # scenario4 runs autonomous departures/rejoins (churn on).
        config, policy = _federated_config(scenario, duration=45.0, shards=5)
        config = replace(config, engine=engine)
        serial = run_once(config, policy).digest()
        rng = random.Random(f"{scenario}/{engine}")
        partitions = {_random_partition(rng, 5) for _ in range(4)}
        partitions.add(((0, 2, 4), (1, 3)))  # never a contiguous cut
        for groups in sorted(partitions):
            report = parallel_module._run_groups(config, policy, groups)
            assert report.mode == "parallel", (groups, report.reason)
            assert report.groups == groups
            assert report.result.digest() == serial, groups

    @pytest.mark.parametrize("scenario", ["scenario1", "scenario4"])
    def test_every_series_equals_serial_float_for_float(self, scenario):
        # The columnar ticks scattered through the registration-order
        # permutation must feed mean/stdev/gini/sum the serial operands
        # in the serial order: == on floats, no tolerance.
        config, policy = _federated_config(scenario, duration=90.0, shards=4)
        serial = run_once(config, policy)
        report = run_parallel(config, policy, workers=3)
        assert report.mode == "parallel"
        merged = report.result.hub.series_map()
        expected = serial.hub.series_map()
        assert list(merged) == list(expected)
        for name, points in expected.items():
            assert merged[name] == points, name

    def test_replay_rejects_ownership_that_is_not_a_partition(self):
        with pytest.raises(AssertionError, match="partition"):
            parallel_module._registration_order([[0, 1], [1, 2]])
        assert parallel_module._registration_order([[1, 3], [0, 2]]) == [2, 0, 3, 1]


# ----------------------------------------------------------------------
# The merged final state
# ----------------------------------------------------------------------


def _hexed(value):
    """``value`` with every float spelled by ``float.hex`` (exact ==)."""
    if isinstance(value, float):
        return value.hex()
    if is_dataclass(value):
        value = astuple(value)
    if isinstance(value, (tuple, list)):
        return tuple(_hexed(item) for item in value)
    return value


class TestMergedFinalState:
    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_merged_rows_are_the_serial_rows(self, engine, monkeypatch):
        config, policy = _federated_config("scenario4", duration=90.0, shards=4)
        config = replace(config, engine=engine)
        serial = run_once(config, policy)
        seen = []
        real = parallel_module.summary_from_rows

        def spy(*args, **kwargs):
            seen.append(args[3:5])
            return real(*args, **kwargs)

        # The merge runs in the parent, so the spy sees the merged rows.
        monkeypatch.setattr(parallel_module, "summary_from_rows", spy)
        report = run_parallel(config, policy, workers=2)
        assert report.mode == "parallel"
        assert report.result.population is None
        expected = final_rows(serial.registry.consumers, serial.registry.providers)
        assert len(seen) == 1
        assert _hexed(seen[0]) == _hexed(expected)
        assert list(report.result.hub.group_satisfaction) == list(
            serial.hub.group_satisfaction
        )
        assert report.result.digest() == serial.digest()

    def test_departures_and_rejoins_in_serial_sweep_order(self):
        # Economic scenario 2 sheds providers of both workers at the
        # same churn sweeps; the merge must list them as the serial
        # sweep visits them (time, consumers first, registration
        # order), not grouped by worker.
        spec = scenario_spec("scenario2", duration=150.0)
        config = spec.to_config()
        config = replace(
            config,
            federation=FederationConfig(shards=4),
            latency_low=0.05,
            latency_high=0.05,
            track_provider_snapshots=False,
            autonomy=replace(config.autonomy, rejoin_cooldown=30.0),
        )
        (policy,) = [p for p in spec.policies if p.label == "economic"]
        serial = run_once(config, policy)
        report = run_parallel(config, policy, workers=2)
        assert report.mode == "parallel"
        merged = report.result.hub
        assert len(serial.hub.departures) > 0 and len(serial.hub.rejoins) > 0
        assert merged.departures == serial.hub.departures
        assert merged.rejoins == serial.hub.rejoins

    def test_population_lists_are_in_registration_order(self):
        # ShardSlice.churn_members hands the churn monitor its
        # registration-ordered owned lists; the serial monitor sweeps
        # the population's lists.  They agree when those orders match.
        from repro.api.presets import available_scenarios

        for name in available_scenarios():
            spec = scenario_spec(name, duration=30.0)
            population = wire_run(spec.to_config(), spec.policies[0]).population
            assert population.consumers == list(population.registry.consumers)
            assert population.providers == list(population.registry.providers)


# ----------------------------------------------------------------------
# Conservative cross-group guard
# ----------------------------------------------------------------------


class TestForwardingGuard:
    def test_cross_group_forwarding_falls_back(self):
        # An absurd forward threshold makes every mediation consult the
        # peer shards; with 2 workers some peers are out-of-group, so
        # the guard must trip and the parent must rerun serially.
        config, policy = _federated_config(
            duration=60.0,
        )
        config = replace(
            config,
            federation=FederationConfig(shards=3, forward_threshold=1000),
        )
        serial = run_once(config, policy).digest()
        report = run_parallel(config, policy, workers=2)
        assert report.mode == "serial-fallback"
        assert "cross-group forwarding" in report.reason
        assert report.result.digest() == serial

    def test_single_group_forwarding_stays_parallel(self):
        # With one worker, every peer is in-group: forwarding runs
        # natively and the digest still matches serial.
        config, policy = _federated_config(duration=60.0)
        config = replace(
            config,
            federation=FederationConfig(shards=3, forward_threshold=1000),
        )
        serial = run_once(config, policy).digest()
        report = run_parallel(config, policy, workers=1)
        assert report.mode == "parallel"
        assert report.result.digest() == serial


# ----------------------------------------------------------------------
# Fault injection: worker death and sibling stop
# ----------------------------------------------------------------------


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestWorkerFaults:
    """Forked workers inherit the patched module, so a patched hook
    runs inside them; the parent-side ``_merge_result`` spy proves no
    merged result is ever assembled from partial harvests."""

    @pytest.fixture
    def no_merge(self, monkeypatch):
        monkeypatch.setattr(
            parallel_module,
            "_merge_result",
            lambda *a, **k: pytest.fail("merged a partial harvest"),
        )

    def _flush_then(self, monkeypatch, group, action):
        """After ``group``'s first flush, run ``action()`` in that worker."""
        real_flush = parallel_module._flush

        def flush(conn, shard_slice):
            real_flush(conn, shard_slice)
            if shard_slice.group == group:
                action()

        monkeypatch.setattr(parallel_module, "_flush", flush)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc to count fds"
    )
    def test_worker_death_raises_promptly_and_reaps(self, monkeypatch, no_merge):
        config, policy = _federated_config(duration=600.0)
        groups = plan_placement(shard_loads(config), 2)
        self._flush_then(monkeypatch, groups[0], lambda: os._exit(1))
        fds = _open_fds()
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="exited early"):
            run_parallel(config, policy, workers=2)
        # Far below the 10 s drain / 30 s join backstops.
        assert time.perf_counter() - started < 5.0
        assert multiprocessing.active_children() == []
        assert _open_fds() == fds

    def test_violation_in_one_worker_falls_back_to_serial(
        self, monkeypatch, no_merge
    ):
        config, policy = _federated_config(duration=600.0)
        groups = plan_placement(shard_loads(config), 2)

        def violate():
            raise parallel_module.ParallelViolation("injected")

        self._flush_then(monkeypatch, groups[1], violate)
        started = time.perf_counter()
        report = run_parallel(config, policy, workers=2)
        elapsed = time.perf_counter() - started
        assert report.mode == "serial-fallback"
        assert report.reason == "cross-group forwarding: injected"
        assert report.groups == groups
        assert multiprocessing.active_children() == []
        assert report.result.digest() == run_once(config, policy).digest()
        # The sibling was stopped at a flush, not left to hit a backstop.
        assert elapsed < 5.0

    def test_stop_on_the_control_pipe_ends_a_worker_at_its_next_flush(self):
        # What the sibling of a violating worker sees: with "stop"
        # pending, the worker sends its first batch and leaves -- no
        # further batches, no harvest.
        config, policy = _federated_config(duration=600.0)
        group = plan_placement(shard_loads(config), 2)[0]
        data_recv, data_send = multiprocessing.Pipe(duplex=False)
        ctrl_recv, ctrl_send = multiprocessing.Pipe(duplex=False)
        ctrl_send.send("stop")
        parallel_module._worker_main(config, policy, 0, group, data_send, ctrl_recv)
        kinds = []
        while True:
            try:
                kinds.append(data_recv.recv()[0])
            except EOFError:
                break
        assert kinds == ["batch"]
        for conn in (data_recv, ctrl_recv, ctrl_send):
            conn.close()


# ----------------------------------------------------------------------
# Session surface
# ----------------------------------------------------------------------


class TestSessionShardWorkers:
    def _spec(self):
        from repro.api.builder import Experiment

        return (
            Experiment.builder()
            .named("shard-workers")
            .seed(11)
            .duration(60.0)
            # 15 providers per shard: above the forwarding threshold
            # (kn=10), so the run stays on the parallel path instead of
            # tripping the cross-group guard into a serial rerun.
            .providers(45)
            .latency(0.05, 0.05)
            .federation(shards=3)
            .policy("sbqa")
            .replications(2)
            .build()
        )

    def test_result_json_identical_to_serial(self):
        from repro.api.session import Session

        spec = self._spec()
        serial = Session(spec).run(keep_runs=False)
        sharded = Session(spec).run(shard_workers=2)
        assert sharded.to_dict() == serial.to_dict()
        # The shard-workers path is within-run parallelism: the result
        # still reports the serial replication schedule.
        assert sharded.parallel is False

    def test_session_keeps_the_report_outside_the_result(self):
        from repro.api.session import Session

        spec = self._spec()
        session = Session(spec)
        assert session.shard_reports == {}
        result = session.run(shard_workers=2)
        assert sorted(session.shard_reports) == [(0, 0), (0, 1)]
        for report in session.shard_reports.values():
            assert report.mode == "parallel"
            assert len(report.groups) == len(report.loads) == 2
            assert all(load > 0 for load in report.loads)
            assert all(s > 0 for s in report.wall_s + report.cpu_s)
            assert report.result is None  # the merged run is not retained
        # Execution metadata: nothing of it reaches the result JSON.
        assert result.to_dict() == Session(spec).run(keep_runs=False).to_dict()
        assert "groups" not in result.to_json()

    def test_keep_records_does_not_block_the_parallel_path(self):
        """A session keeps no runs, so it runs them unkept: a spec's
        ``keep_records`` must not send every run to the serial fallback."""
        from repro.api.presets import scenario_spec
        from repro.api.session import Session

        spec = scenario_spec("scenario3", duration=120.0, n_providers=60).derive(
            {
                "federation.shards": 4,
                "latency_low": 0.05,
                "latency_high": 0.05,
                "track_provider_snapshots": False,
                "replications": 1,
                "keep_records": True,
            }
        )
        session = Session(spec)
        result = session.run(shard_workers=2)
        assert len(session.shard_reports) == len(spec.policies)
        for report in session.shard_reports.values():
            assert report.mode == "parallel", report.reason
        assert result.to_dict() == Session(spec).run(keep_runs=False).to_dict()

    def test_mutually_exclusive_with_parallel(self):
        from repro.api.session import Session

        with pytest.raises(ValueError, match="mutually exclusive"):
            Session(self._spec()).run(parallel=True, shard_workers=2)

    def test_keep_runs_rejected(self):
        from repro.api.session import Session

        with pytest.raises(ValueError, match="keep_runs"):
            Session(self._spec()).run(shard_workers=2, keep_runs=True)


class TestCliWorkersReport:
    """``sbqa run --workers W`` says on stderr, once, when W was not
    honoured; a run placed as asked prints nothing."""

    def _spec_file(self, tmp_path, shards):
        from repro.api.builder import Experiment

        path = tmp_path / f"k{shards}.json"
        (
            Experiment.builder()
            .named("cli-workers")
            .seed(5)
            .duration(40.0)
            .providers(45)
            .latency(0.05, 0.05)
            .federation(shards=shards)
            .policy("sbqa")
            .replications(2)
            .build()
            .save(path)
        )
        return str(path)

    def test_silent_when_placed_as_asked(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "--spec", self._spec_file(tmp_path, 3), "--workers", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_fallback_reported_once(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "--spec", self._spec_file(tmp_path, 2), "--workers", "2"]) == 0
        assert capsys.readouterr().err == (
            "serial-fallback: one shard group carries all offered load\n"
        )

    def test_fewer_workers_than_requested_reported(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["run", "--spec", self._spec_file(tmp_path, 3), "--workers", "3"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("shard-workers: 2 of 3 requested")
        assert err.count("\n") == 1


# ----------------------------------------------------------------------
# Wire-level slice invariants
# ----------------------------------------------------------------------


class TestShardSlice:
    def test_slice_rejects_workload(self):
        from repro.federation.parallel import ShardSlice

        config, policy = _federated_config(duration=30.0)
        shard_slice = ShardSlice(group=(0,), shards=3)
        with pytest.raises(ValueError):
            wire_run(config, policy, workload=(), shard_slice=shard_slice)
