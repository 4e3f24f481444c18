"""Tests for the sbqa command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_accepts_scenario_names(self):
        args = build_parser().parse_args(["run", "scenario1"])
        assert args.scenario == "scenario1"

    def test_run_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "scenario99"])


class TestCountFlagsCheckedInParser:
    """Counts and durations are checked by argparse: a usage error (exit
    2) before anything runs, never a traceback, and never exit 1, which
    ``sbqa run`` keeps for a failed claim."""

    @pytest.mark.parametrize(
        "argv, flag, bound, value",
        [
            (["run", "--spec", "examples/specs/demo.json", "--workers", "0"], "--workers", ">= 1", "0"),
            (["run", "--spec", "examples/specs/demo.json", "--parallel", "--workers", "0"], "--workers", ">= 1", "0"),
            (["run", "scenario1", "--duration", "0"], "--duration", "> 0", "0"),
            (["run", "scenario1", "--providers", "-3"], "--providers", ">= 1", "-3"),
            (["spec", "scenario1", "--providers", "0"], "--providers", ">= 1", "0"),
            (["spec", "scenario1", "--duration", "-5"], "--duration", "> 0", "-5"),
            (["sweep", "kn", "--values", "1", "--providers", "0"], "--providers", ">= 1", "0"),
            (["sweep", "kn", "--values", "1", "--duration", "nan"], "--duration", "> 0", "nan"),
            (["tune", "--spec", "tune.json", "--budget", "-3"], "--budget", ">= 0", "-3"),
        ],
    )
    def test_rejected_with_a_usage_error(self, argv, flag, bound, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: must be {bound}, got {value}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 8):
            assert f"scenario{i}" in out

    def test_run_small_scenario(self, capsys):
        code = main(
            ["run", "scenario1", "--duration", "300", "--providers", "40", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert "scenario1" in out
        assert "Comparison" in out
        assert code in (0, 1)  # claims may be noisy at this tiny scale

    def test_run_exports_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        main(
            [
                "run", "scenario1",
                "--duration", "200", "--providers", "30",
                "--csv", str(csv_path),
            ]
        )
        assert csv_path.exists()
        content = csv_path.read_text()
        assert "series,t,value" in content
        assert "capacity/provider_satisfaction" in content

    def test_trace(self, capsys):
        assert main(["trace", "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "knbest" in out
        assert "allocate" in out

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_trace_rejects_fewer_than_one_query(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--queries", value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument --queries: must be >= 1, got {value}" in captured.err
        assert captured.out == ""

    def test_trace_counts_a_failed_query(self, monkeypatch, capsys):
        """A query ends at its ``fail`` line as well as at ``allocate``."""
        import repro.experiments.runner as runner

        def run_once(config, policy, trace):
            trace.record(1.0, "mediate", "query 0 from c0: |P_q|=0", qid=0)
            trace.record(1.0, "fail", "query 0: no capable provider")
            trace.record(2.0, "mediate", "query 1 from c0: |P_q|=3", qid=1)
            trace.record(2.0, "allocate", "query 1: -> ['p0']", qid=1)

        monkeypatch.setattr(runner, "run_once", run_once)
        assert main(["trace", "--queries", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and "  fail  " in lines[1]


class TestSweepCommand:
    def test_kn_sweep(self, capsys):
        code = main(
            [
                "sweep", "kn", "--values", "1,4",
                "--duration", "200", "--providers", "20", "--k", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kn sweep" in out
        assert "sbqa" not in out.splitlines()[0] or True
        assert "1" in out and "4" in out

    def test_omega_sweep_accepts_adaptive(self, capsys):
        code = main(
            [
                "sweep", "omega", "--values", "0,adaptive",
                "--duration", "200", "--providers", "20",
            ]
        )
        assert code == 0
        assert "omega sweep" in capsys.readouterr().out

    def test_memory_sweep_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "memory", "--values", "20,100",
                "--duration", "200", "--providers", "20",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert "memory" in csv_path.read_text().splitlines()[0]

    def test_rejects_unknown_parameter(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "latency", "--values", "1"])

    def test_empty_values_error(self, capsys):
        code = main(
            ["sweep", "kn", "--values", " ,", "--duration", "100", "--providers", "10"]
        )
        assert code == 2

    def test_missing_values_error(self, capsys):
        assert main(["sweep", "kn"]) == 2
        assert "--values" in capsys.readouterr().err

    def test_zero_replications_rejected(self, capsys):
        code = main(["sweep", "kn", "--values", "1", "--replications", "0",
                     "--duration", "100", "--providers", "10"])
        assert code == 2
        assert "at least one replication" in capsys.readouterr().err

    def test_no_parameter_no_spec_error(self, capsys):
        assert main(["sweep"]) == 2
        assert "parameter or --spec" in capsys.readouterr().err


class TestSweepSpecDriven:
    """The declarative sweep path: spec --sweep emitters + sweep --spec."""

    def emit(self, tmp_path, *extra):
        path = tmp_path / "grid.json"
        code = main(
            ["spec", "scenario3", "--duration", "100", "--providers", "12",
             "--replications", "2",
             "--sweep", "sbqa.omega=0,adaptive", *extra, "-o", str(path)]
        )
        assert code == 0
        return path

    def test_spec_sweep_emits_sweep_spec(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        from repro.api.sweep import SweepSpec

        sweep = SweepSpec.load(path)
        assert sweep.name == "scenario3-sweep"
        assert len(sweep) == 2
        assert sweep.axes[0].path == "sbqa.omega"
        assert sweep.axes[0].values == (0, "adaptive")
        assert sweep.base.name == "scenario3"
        assert sweep.base.replications == 2

    def test_spec_sweep_zip_and_name(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        code = main(
            ["spec", "scenario3", "--duration", "100", "--providers", "12",
             "--sweep", "sbqa.k=4,8", "--sweep", "sbqa.kn=2,4",
             "--zip", "--sweep-name", "pool-grid", "-o", str(path)]
        )
        assert code == 0
        from repro.api.sweep import SweepSpec

        sweep = SweepSpec.load(path)
        assert sweep.name == "pool-grid"
        assert len(sweep) == 2  # zipped, not 2 x 2
        assert {a.zip_group for a in sweep.axes} == {"zip"}

    def test_spec_sweep_bad_axis_errors(self, tmp_path, capsys):
        code = main(
            ["spec", "scenario3", "--sweep", "nonsense", "-o",
             str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "bad sweep axis" in capsys.readouterr().err

    def test_zip_without_sweep_axes_rejected(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        assert main(["spec", "scenario3", "--zip", "-o", str(path)]) == 2
        assert "--sweep" in capsys.readouterr().err
        assert not path.exists()
        assert main(["spec", "scenario3", "--sweep-name", "grid",
                     "-o", str(path)]) == 2
        assert not path.exists()

    def test_sweep_spec_runs_and_exports(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        capsys.readouterr()
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "digest.json"
        code = main(
            ["sweep", "--spec", str(path), "--csv", str(csv_path),
             "--json", str(json_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "omega=adaptive" in out
        assert "best per column" in out
        assert csv_path.read_text().splitlines()[0].startswith("sweep,point,omega")
        import json

        digest = json.loads(json_path.read_text())
        assert [p["label"] for p in digest["points"]] == ["omega=0", "omega=adaptive"]
        assert digest["points"][0]["comparisons"]  # 2 replications -> t-tests

    def test_sweep_spec_workers_stream_matches_serial_digest(self, tmp_path, capsys):
        """--workers N implies parallel; streamed output, identical digest."""
        path = self.emit(tmp_path)
        capsys.readouterr()
        serial_json = tmp_path / "serial.json"
        parallel_json = tmp_path / "parallel.json"
        assert main(["sweep", "--spec", str(path), "--json", str(serial_json)]) == 0
        capsys.readouterr()
        code = main(
            ["sweep", "--spec", str(path), "--workers", "2", "--stream",
             "--json", str(parallel_json)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "point omega=0:" in out  # streamed per-point blocks
        assert serial_json.read_bytes() == parallel_json.read_bytes()

    def test_sweep_replications_override(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        capsys.readouterr()
        code = main(["sweep", "--spec", str(path), "--replications", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "±" not in out  # single replication: no spread cells

    def test_sweep_spec_base_overrides_apply(self, tmp_path, capsys):
        """--seed/--duration/--providers rewrite the grid's base, like
        `sbqa run --spec`; they must not be silently dropped."""
        path = self.emit(tmp_path)
        capsys.readouterr()
        json_a = tmp_path / "a.json"
        json_b = tmp_path / "b.json"
        assert main(["sweep", "--spec", str(path), "--json", str(json_a)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--spec", str(path), "--seed", "99",
                     "--duration", "80", "--providers", "8",
                     "--json", str(json_b)]) == 0
        capsys.readouterr()
        import json

        base = json.loads(json_b.read_text())["sweep"]["base"]
        assert base["seed"] == 99
        assert base["duration"] == 80.0
        assert base["population"]["n_providers"] == 8
        assert json_a.read_text() != json_b.read_text()

    def test_sweep_spec_override_keeps_the_rest_of_the_file(self, tmp_path, capsys):
        """An override rewrites the base only: restating the file's own
        seed changes nothing, keep_runs included."""
        import json

        path = self.emit(tmp_path)
        grid = json.loads(path.read_text())
        grid["keep_runs"] = True
        path.write_text(json.dumps(grid))
        json_a = tmp_path / "a.json"
        json_b = tmp_path / "b.json"
        assert main(["sweep", "--spec", str(path), "--json", str(json_a)]) == 0
        assert main(["sweep", "--spec", str(path), "--seed", str(grid["base"]["seed"]),
                     "--json", str(json_b)]) == 0
        assert json.loads(json_b.read_text())["sweep"]["keep_runs"] is True
        assert json_a.read_bytes() == json_b.read_bytes()
        # the CLI only prints and exports, so keep_runs (serial-only in
        # the library) must not stop the same file running on workers
        assert main(["sweep", "--spec", str(path), "--workers", "2",
                     "--json", str(json_b)]) == 0
        capsys.readouterr()
        assert json_a.read_bytes() == json_b.read_bytes()

    def test_sweep_spec_rejects_quick_only_k(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        capsys.readouterr()
        assert main(["sweep", "--spec", str(path), "--k", "10"]) == 2
        assert "quick form only" in capsys.readouterr().err

    def test_sweep_spec_rejects_quick_only_values(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        capsys.readouterr()
        assert main(["sweep", "--spec", str(path), "--values", "0.25,0.75"]) == 2
        assert "quick form only" in capsys.readouterr().err

    def test_sweep_spec_and_parameter_rejected(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        capsys.readouterr()
        assert main(["sweep", "kn", "--values", "1", "--spec", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_sweep_missing_spec_file_errors(self, capsys):
        assert main(["sweep", "--spec", "/nonexistent/grid.json"]) == 2
        assert "cannot read sweep spec" in capsys.readouterr().err

    def test_sweep_rejects_nonpositive_workers(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--spec", str(path), "--workers", "0"])
        assert exit_info.value.code == 2
        assert "error: argument --workers: must be >= 1, got 0" in capsys.readouterr().err


class TestTuneCommand:
    """The adaptive-tuning path: tune --spec with overrides and exports."""

    def emit(self, tmp_path, **kwargs):
        from repro.api.builder import Experiment

        spec = (
            Experiment.builder()
            .named("cli-tune")
            .seed(11)
            .duration(60.0)
            .providers(10)
            .policy("sbqa")
            .replications(kwargs.pop("replications", 4))
            .sweep()
            .named("cli-tune-grid")
            .axis("sbqa.kn", [1, 5])
            .tune()
            .named("cli-tune")
            .objective("consumer_sat_final")
            .rungs(3, 4)
            .build()
        )
        path = tmp_path / "tune.json"
        spec.save(path)
        return path

    def test_tune_runs_and_reports_winner(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        code = main(["tune", "--spec", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "winner" in out
        assert "exhaustive" in out
        assert "p_holm" in out

    def test_tune_stream_prints_rung_decisions(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        code = main(["tune", "--spec", str(path), "--stream"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[rung 1/2]" in out
        assert "incumbent" in out
        assert "eliminated kn=1" in out

    def test_tune_workers_stream_matches_serial_digest(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        serial_json = tmp_path / "serial.json"
        parallel_json = tmp_path / "parallel.json"
        assert main(["tune", "--spec", str(path), "--json",
                     str(serial_json)]) == 0
        assert main(["tune", "--spec", str(path), "--workers", "2",
                     "--stream", "--json", str(parallel_json)]) == 0
        assert serial_json.read_bytes() == parallel_json.read_bytes()

    def test_tune_csv_and_json_exports(self, tmp_path, capsys):
        import json

        path = self.emit(tmp_path)
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "digest.json"
        code = main(["tune", "--spec", str(path), "--csv", str(csv_path),
                     "--json", str(json_path)])
        assert code == 0
        assert csv_path.read_text().splitlines()[0].startswith("tune,point,kn")
        digest = json.loads(json_path.read_text())
        assert digest["winner"]["label"].startswith("kn=")
        assert digest["runs_executed"] + digest["runs_saved"] == digest[
            "exhaustive_runs"
        ]
        assert digest["trace"]

    def test_tune_budget_and_alpha_overrides(self, tmp_path, capsys):
        import json

        path = self.emit(tmp_path)
        json_path = tmp_path / "digest.json"
        # alpha=0.000001: nothing can be eliminated; the budget (7: one
        # short of both rungs' 6+2) must then stop before the last rung
        code = main(["tune", "--spec", str(path), "--budget", "7",
                     "--alpha", "0.000001", "--json", str(json_path)])
        assert code == 0
        digest = json.loads(json_path.read_text())
        assert digest["tune"]["budget"] == 7
        assert digest["tune"]["alpha"] == 0.000001
        assert digest["status"] == "budget_exhausted"
        assert digest["runs_executed"] <= 7

    def test_tune_budget_zero_lifts_the_cap(self, tmp_path, capsys):
        import json

        path = self.emit(tmp_path)
        json_path = tmp_path / "digest.json"
        assert main(["tune", "--spec", str(path), "--budget", "0",
                     "--json", str(json_path)]) == 0
        assert json.loads(json_path.read_text())["tune"]["budget"] is None

    def test_tune_objective_override(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        code = main(["tune", "--spec", str(path), "--objective", "mean_rt"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_rt (minimize)" in out

    def test_tune_objective_override_drops_pinned_direction(self, tmp_path, capsys):
        """A direction pinned in the file belongs to the file's metric;
        overriding the objective must fall back to the new metric's
        natural direction, not race it the wrong way."""
        import json

        path = self.emit(tmp_path)
        data = json.loads(path.read_text())
        data["direction"] = "maximize"  # pinned for consumer_sat_final
        path.write_text(json.dumps(data))
        code = main(["tune", "--spec", str(path), "--objective", "mean_rt"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_rt (minimize)" in out  # not maximize

    def test_tune_too_small_budget_errors(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        assert main(["tune", "--spec", str(path), "--budget", "2"]) == 2
        assert "cannot cover the first rung" in capsys.readouterr().err

    def test_tune_missing_spec_file_errors(self, capsys):
        assert main(["tune", "--spec", "/nonexistent/tune.json"]) == 2
        assert "cannot read tune spec" in capsys.readouterr().err

    def test_tune_requires_spec_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune"])

    def test_tune_rejects_nonpositive_workers(self, tmp_path, capsys):
        path = self.emit(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["tune", "--spec", str(path), "--workers", "0"])
        assert exit_info.value.code == 2
        assert "error: argument --workers: must be >= 1, got 0" in capsys.readouterr().err


class TestSweepAlpha:
    def test_sweep_alpha_flows_into_table_and_digest(self, tmp_path, capsys):
        import json

        grid = tmp_path / "grid.json"
        main(["spec", "scenario3", "--duration", "100", "--providers", "12",
              "--replications", "2", "--sweep", "sbqa.omega=0,adaptive",
              "-o", str(grid)])
        capsys.readouterr()
        json_path = tmp_path / "digest.json"
        code = main(["sweep", "--spec", str(grid), "--alpha", "0.2",
                     "--json", str(json_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "p < 0.2" in out
        assert json.loads(json_path.read_text())["alpha"] == 0.2


class TestRunAll:
    def test_run_all_executes_every_scenario(self, capsys):
        code = main(
            ["run", "all", "--duration", "250", "--providers", "25", "--seed", "5"]
        )
        out = capsys.readouterr().out
        for i in range(1, 8):
            assert f"scenario{i}" in out
        assert code in (0, 1)  # claims may be noisy at this tiny scale


class TestSpecDrivenRun:
    def test_run_without_scenario_or_spec_errors(self, capsys):
        assert main(["run"]) == 2
        assert "scenario id or --spec" in capsys.readouterr().err

    def test_spec_subcommand_writes_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        code = main(
            ["spec", "scenario3", "--duration", "150", "--providers", "20",
             "--replications", "2", "-o", str(path)]
        )
        assert code == 0
        assert path.exists()
        from repro.api.spec import ExperimentSpec

        spec = ExperimentSpec.load(path)
        assert spec.name == "scenario3"
        assert spec.duration == 150.0
        assert spec.replications == 2

    def test_spec_subcommand_stdout(self, capsys):
        assert main(["spec", "scenario3", "--duration", "100"]) == 0
        out = capsys.readouterr().out
        assert '"spec_version"' in out

    def test_run_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        main(["spec", "scenario3", "--duration", "120", "--providers", "15",
              "-o", str(path)])
        capsys.readouterr()
        csv_path = tmp_path / "runs.csv"
        json_path = tmp_path / "digest.json"
        code = main(
            ["run", "--spec", str(path), "--csv", str(csv_path),
             "--json", str(json_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "capacity" in out and "economic" in out
        assert csv_path.exists() and json_path.exists()

    def test_run_scenario_with_replications(self, capsys):
        code = main(
            ["run", "scenario1", "--duration", "120", "--providers", "15",
             "--replications", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 replication(s)" in out
        assert "±" in out

    def test_run_spec_file_parallel_matches_serial(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        main(["spec", "scenario3", "--duration", "120", "--providers", "15",
              "--replications", "2", "-o", str(path)])
        capsys.readouterr()
        assert main(["run", "--spec", str(path)]) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", "--spec", str(path), "--parallel",
                     "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_json_rejected_on_classic_path(self, capsys):
        assert main(["run", "scenario1", "--duration", "60",
                     "--json", "out.json"]) == 2
        assert "--json" in capsys.readouterr().err

    def test_scenario_and_spec_together_rejected(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        main(["spec", "scenario3", "--duration", "60", "-o", str(path)])
        capsys.readouterr()
        assert main(["run", "scenario1", "--spec", str(path)]) == 2
        assert "not both" in capsys.readouterr().err


class TestWorkloadCommand:
    def test_synthetic_to_file(self, tmp_path, capsys):
        from repro.workloads.traces import TraceSpec

        path = tmp_path / "diurnal.json"
        code = main(
            ["workload", "diurnal", "-o", str(path), "--duration", "30",
             "--seed", "5", "--base-rate", "3"]
        )
        assert code == 0
        trace = TraceSpec.load(path)
        assert trace.shape == "diurnal"
        assert trace.duration == 30.0
        assert trace.seed == 5
        assert trace.materialize()

    def test_synthetic_to_stdout(self, capsys):
        import json

        code = main(["workload", "heavy-tail", "--duration", "20"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shape"] == "heavy-tail"
        assert "trace_version" in payload

    def test_param_overrides(self, tmp_path, capsys):
        from repro.workloads.traces import TraceSpec

        path = tmp_path / "crowd.json"
        code = main(
            ["workload", "flash-crowd", "-o", str(path), "--duration", "40",
             "--param", "spike_factor=2", "--param", "spike_start=5"]
        )
        assert code == 0
        trace = TraceSpec.load(path)
        assert trace.params["spike_factor"] == 2.0
        assert trace.params["spike_start"] == 5.0

    def test_bad_param_errors(self, tmp_path, capsys):
        code = main(
            ["workload", "diurnal", "--duration", "10", "--param", "wobble=1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_digest_out_rejected_for_synthetic(self, tmp_path, capsys):
        code = main(
            ["workload", "diurnal", "--duration", "10",
             "--digest-out", str(tmp_path / "d.json")]
        )
        assert code == 2
        assert "record" in capsys.readouterr().err

    def test_synthetic_flags_rejected_for_record(self, tmp_path, capsys):
        code = main(
            ["workload", "record", "--duration", "10", "--consumers", "x"]
        )
        assert code == 2
        assert "synthetic" in capsys.readouterr().err

    def test_record_writes_trace_and_digest(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "rec.json"
        digest_path = tmp_path / "digest.json"
        code = main(
            ["workload", "record", "-o", str(trace_path), "--duration", "60",
             "--seed", "7", "--digest-out", str(digest_path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "recorded" in captured.err
        digest = json.loads(digest_path.read_text())
        assert len(digest["digest"]) == 64
        assert digest["seed"] == 7


class TestServeCommand:
    def test_replay_matches_recorded_digest(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "rec.json"
        digest_path = tmp_path / "digest.json"
        assert main(
            ["workload", "record", "-o", str(trace_path), "--duration", "60",
             "--seed", "7", "--digest-out", str(digest_path)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["serve", "--replay", str(trace_path), "--duration", "60",
             "--seed", "7"]
        )
        assert code == 0
        replayed = json.loads(capsys.readouterr().out)
        recorded = json.loads(digest_path.read_text())
        assert replayed["digest"] == recorded["digest"]

    def test_replay_digest_out(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "rec.json"
        assert main(
            ["workload", "record", "-o", str(trace_path), "--duration", "40"]
        ) == 0
        capsys.readouterr()
        out_path = tmp_path / "replay-digest.json"
        code = main(
            ["serve", "--replay", str(trace_path), "--duration", "40",
             "--digest-out", str(out_path)]
        )
        assert code == 0
        assert len(json.loads(out_path.read_text())["digest"]) == 64

    def test_replay_rejects_feeds(self, tmp_path, capsys):
        code = main(
            ["serve", "--replay", "x.json", "--stdin"]
        )
        assert code == 2
        assert "--replay" in capsys.readouterr().err

    def test_live_rejects_digest_out(self, tmp_path, capsys):
        code = main(
            ["serve", "--digest-out", str(tmp_path / "d.json")]
        )
        assert code == 2
        assert "--replay" in capsys.readouterr().err

    def test_missing_trace_file_errors(self, capsys):
        code = main(["serve", "--replay", "/nonexistent/trace.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestBenchBadInput:
    """Rejected before anything is measured: exit 2 and an error line."""

    def test_unknown_policy(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--smoke", "--policy", "nonsense"])
        assert exit_info.value.code == 2
        assert "error: argument --policy: invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--mediations", "--repeats", "--scale-providers"]
    )
    def test_sizes_below_one(self, flag, capsys):
        assert main(["bench", "--smoke", flag, "0"]) == 2
        assert f"error: {flag} must be >= 1, got 0" in capsys.readouterr().err
