"""The bench-side federation surface: record shape, axes, CLI flags."""

import copy
import json
from pathlib import Path

import pytest

from repro.perf.hotpath import (
    BENCH_VERSION,
    FEDERATION_POINTS,
    build_mediation_system,
    format_report,
    gate_failures,
    measure_federation,
    run_bench,
)


class TestBuildMediationSystem:
    def test_federated_facade_mediates(self):
        from repro.federation import FederatedMediator

        sim, mediator, consumer = build_mediation_system(
            "fast", n_providers=60, shards=3
        )
        assert isinstance(mediator, FederatedMediator)
        assert mediator.federation.shards == 3

    def test_fast_scalar_pin_covers_every_shard(self):
        # The kernel switch is off around the whole federation build, so
        # no shard may have engaged the fused kernel (it is read once,
        # at construction); the plain fast build engages it everywhere.
        sim, mediator, _ = build_mediation_system(
            "fast_scalar", n_providers=60, shards=3
        )
        assert all(
            not shard._fused and shard._column_cache is None
            for shard in mediator.federation.mediators
        )
        sim, mediator, _ = build_mediation_system(
            "fast", n_providers=60, shards=3
        )
        assert all(
            shard._fused
            for shard in mediator.federation.mediators
        )


class TestMeasureFederation:
    def test_record_shape_and_flat_ratio(self):
        result = measure_federation(
            points=((60, 1), (120, 2)), mediations=120, repeats=1
        )
        assert set(result) == {"points", "flat_ratio"}
        assert set(result["points"]) == {"60", "120"}
        row = result["points"]["120"]
        assert row["shards"] == 2
        assert row["mediate_per_s"] > 0
        assert result["flat_ratio"] == pytest.approx(
            result["points"]["120"]["mediate_per_s"]
            / result["points"]["60"]["mediate_per_s"]
        )


class TestRunBenchAxes:
    @pytest.fixture(scope="class")
    def record(self):
        return run_bench(
            smoke=True, mediations=120, repeats=1, check_parity=False
        )

    def test_version_and_sections(self, record):
        assert record["bench_version"] == BENCH_VERSION == 8
        # Exact key sets: a section cannot appear or vanish unnoticed.
        assert set(record) == {
            "bench_version", "bench", "mode", "python", "scenario",
            "throughput", "throughput_random_latency", "speedup",
            "policies", "scaling", "federation",
        }
        assert set(record["speedup"]) == {
            "fast_vs_event", "fused_vs_scalar", "columns_vs_scalar",
            "end_to_end_ratio", "scaling_ratio",
        }
        assert set(record["throughput"]) == {"fast", "fast_scalar", "event"}
        # the same three under U[0.02, 0.08], fast on the column route
        assert set(record["throughput_random_latency"]) == set(record["throughput"])
        assert record["speedup"]["columns_vs_scalar"] > 0
        assert "random latency U[0.02, 0.08]" in format_report(record)

    def test_random_latency_build_takes_the_column_route(self):
        from repro.system.query import Query

        for configuration, route in (("fast", "columns"), ("fast_scalar", "scalar")):
            sim, mediator, consumer = build_mediation_system(
                configuration, n_providers=40, random_latency=True
            )
            mediator.mediate(Query(
                consumer=consumer, topic="c0", service_demand=10.0,
                n_results=2, issued_at=0.0,
            ))
            assert mediator.route_counts[route] == 1
            assert sum(mediator.route_counts.values()) == 1

    def test_report_renders_federation(self, record):
        report = format_report(record)
        assert "federation axis" in report
        assert "flatness" in report

    def test_default_full_points_reach_100k(self):
        assert FEDERATION_POINTS[-1] == (100000, 50)


class TestGateFailures:
    """The gates behind ``sbqa bench``'s exit status."""

    @pytest.fixture(scope="class")
    def record(self):
        return run_bench(smoke=True, mediations=100, repeats=1)

    def test_no_floors_no_failures(self, record):
        assert record["parity"]["identical"]
        assert record["parity"]["scalar_identical"]
        assert gate_failures(record) == []

    def test_committed_record_has_the_current_layout(self, record):
        # A layout change must regenerate BENCH_core.json with it.
        path = Path(__file__).resolve().parents[2] / "BENCH_core.json"
        committed = json.loads(path.read_text(encoding="utf-8"))
        assert committed["bench_version"] == BENCH_VERSION
        assert set(committed) == set(record)
        assert set(committed["speedup"]) == set(record["speedup"])

    def test_each_floor_reports_once(self, record):
        failures = gate_failures(
            record,
            min_speedup=1e9,
            min_mediate_per_s=1e12,
            min_scaling_ratio=1e9,
            min_federation_ratio=1e9,
        )
        assert len(failures) == 4
        assert any("over the event engine" in f for f in failures)
        assert all("below the required" in f for f in failures)

    def test_parity_is_a_hard_gate(self, record):
        broken = copy.deepcopy(record)
        broken["parity"]["identical"] = False
        broken["parity"]["scalar_identical"] = False
        failures = gate_failures(broken)
        assert len(failures) == 2
        assert all("different digests" in f for f in failures)

    def test_cli_exit_code_and_prefix(self, record, monkeypatch, capsys):
        import repro.perf.hotpath as hotpath
        from repro.cli import main

        seen = {}

        def fake_run_bench(**kwargs):
            seen.update(kwargs)
            skipped = copy.deepcopy(record)
            del skipped["parity"]
            return skipped

        monkeypatch.setattr(hotpath, "run_bench", fake_run_bench)
        assert main(["bench", "--smoke", "--skip-parity", "--min-speedup", "0"]) == 0
        assert seen["check_parity"] is False
        capsys.readouterr()
        assert main(["bench", "--smoke", "--min-mediate-per-s", "1e12"]) == 1
        assert seen["check_parity"] is True
        assert "error: fast-engine throughput" in capsys.readouterr().err


class TestCliGates:
    def test_run_shards_needs_session(self, capsys):
        from repro.cli import main

        code = main(["run", "scenario1", "--shards", "2"])
        assert code == 2
        assert "--shards" in capsys.readouterr().err
