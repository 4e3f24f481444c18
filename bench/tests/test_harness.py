"""The benchmark harness itself, on smoke sizes (N<=80, duration<=200,
sub-second phases) so the whole file stays well inside tier-1's budget.

No assertion here depends on how fast the host is: values must be
present, finite and self-consistent, not small.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for _path in (str(ROOT / "src"), str(BENCH_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 4242
BATCH = ("batch-default", "batch-fused", "batch-churn-mixed")


@pytest.fixture(scope="module")
def records():
    """One traced smoke run of every workload, in this process."""
    return {
        name: run.run_workload(
            name, SEED, seconds=2.5 if name == "serve-open-loop" else 0.5, trace=True, smoke=True, probes=0
        )
        for name in WORKLOADS
    }


def test_benchmark_json_names_the_workloads_and_setup_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["bench"]
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_every_named_metric_is_present_finite_and_carries_its_unit(records):
    for name, record in records.items():
        assert record["mode"] == "smoke"
        assert record["correct"], {k: v for k, v in record["checks"].items() if not v["ok"]}
        for spec in BENCHMARK["end_to_end"]:
            entry = record["end_to_end"][spec["name"]]
            assert entry["unit"] == spec["unit"]
            assert math.isfinite(entry["value"]) and entry["value"] > 0, (name, spec["name"])
            assert entry["samples"], (name, spec["name"])
        assert set(record["per_layer"]) == {spec["name"] for spec in BENCHMARK["per_layer"]}
        for spec in BENCHMARK["per_layer"]:
            entry = record["per_layer"][spec["name"]]
            assert entry["unit"] == spec["unit"]
            assert math.isfinite(entry["value"]), (name, spec["name"])
        line = json.loads(run.contract_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert set(line["metrics"]) == set(record["per_layer"])
        env = record["env"]
        for key in ("nproc", "python", "numpy", "scoring_backend", "pythonhashseed", "load1_at_start"):
            assert key in env


def test_layers_split_the_way_the_workloads_were_chosen_to(records):
    default = records["batch-default"]["per_layer"]
    fused = records["batch-fused"]["per_layer"]
    churn = records["batch-churn-mixed"]["per_layer"]
    assert default["core.engine.fused_share"]["value"] == 0.0
    assert default["core.sbqa.select_fast_calls"]["value"] > 0
    assert fused["core.engine.fused_share"]["value"] == 1.0
    for quiet in ("core.sbqa.select_fast_calls", "core.knbest.calls", "core.scoring.calls",
                  "core.satisfaction.record_calls"):
        assert fused[quiet]["value"] == 0.0, quiet
    assert fused["core.soa.column_builds"]["value"] > 0
    assert churn["allocation.economic.select_fast_calls"]["value"] > 0
    assert churn["allocation.capacity.select_fast_calls"]["value"] > 0
    assert churn["system.failures.crashes"]["value"] > 0
    assert churn["system.registry.version_bumps"]["value"] > 0
    assert records["federated-parallel"]["per_layer"]["federation.mediator.routes"]["value"] > 0
    serve = records["serve-open-loop"]["per_layer"]
    assert serve["serve.admission.drop_share_overload"]["value"] > 0
    assert serve["serve.engine.submits"]["value"] == serve["serve.admission.decisions"]["value"]


def test_traced_self_times_plus_unattributed_account_for_the_pass_wall(records):
    for name in BATCH:
        record = records[name]
        wall = record["traced_wall_s"] / record["traced_passes"]  # per-layer numbers are per pass
        layer = {k: v["value"] for k, v in record["per_layer"].items()}
        named = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        named += layer["api.session.overhead_s"]
        total = named + layer["bench.tracer.unattributed_share"] * wall
        assert total == pytest.approx(wall, rel=0.05), name
        # and every span's self time, none left out, is the wall exactly
        spans = sum(span["self_s"] for span in record["spans"].values())
        other = sum(s["self_s"] for n, s in record["spans"].items() if n.startswith("other:"))
        root_self = layer["bench.tracer.unattributed_share"] * record["traced_wall_s"] - other
        assert spans + root_self == pytest.approx(record["traced_wall_s"], rel=1e-6), name
        assert layer["bench.tracer.overhead_ratio"] > 0


def _targets():
    for module_name, class_name, attrs, _layer in tracer_module.CLASS_TARGETS:
        owner = getattr(importlib.import_module(module_name), class_name)
        for attr in attrs:
            yield owner, attr
    for module_name, names, _layer in tracer_module.FUNCTION_TARGETS:
        owner = importlib.import_module(module_name)
        for attr in names:
            yield owner, attr


def test_after_a_traced_pass_every_wrapped_attribute_is_the_original():
    from repro.des.scheduler import Simulator

    before = {(owner, attr): vars(owner)[attr] for owner, attr in _targets()}
    workload = WORKLOADS["batch-churn-mixed"](SEED, True)
    workload.setup()

    live = tracer_module.Tracer().install()
    patched = live.patched()
    assert len(patched) > len(before)  # by-name imports are re-bound too
    assert vars(Simulator)["post_in"] is not dict(((o, a), v) for o, a, v in patched)[(Simulator, "post_in")]
    live.uninstall()

    tracer, result = workload.traced_passes(0.0)
    assert result.completed > 0 and tracer.wall_s > 0
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, (owner, attr)
    assert not tracer.patched()


def _fingerprint(name: str, seed: int):
    workload = WORKLOADS[name](seed, True)
    workload.setup()
    if name == "serve-open-loop":
        workload.checks()
        schedule = workload.schedule(2000.0, 0.2, ["seti", "proteins", "einstein"])
        return workload.replay_digest, {"scheduled": len(schedule), "first_due": schedule[0]}
    result = workload.one_pass()
    return result.digest, result.counts


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_digest_and_counts_other_seed_other_digest(name):
    digest, counts = _fingerprint(name, SEED)
    again_digest, again_counts = _fingerprint(name, SEED)
    other_digest, _ = _fingerprint(name, SEED + 1)
    assert (digest, counts) == (again_digest, again_counts)
    assert digest != other_digest


def _record_of(records) -> dict:
    workloads = {name: run.fold_runs(BENCHMARK, [record] * 3, record) for name, record in records.items()}
    return {"mode": "smoke", "seed": SEED, "workloads": workloads, "claim": None}


def test_compare_of_a_record_with_itself_is_all_within_bound(records, tmp_path, capsys):
    record = _record_of(records)
    rows = compare.compare(record, copy.deepcopy(record))
    n_rows = len(WORKLOADS) * len(BENCHMARK["end_to_end"])
    assert len(rows["within bound"]) == n_rows
    assert not rows["regressed"] and not rows["unresolved"] and not rows["improved"] and not rows["checks"]

    path = tmp_path / "record.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert compare.main([str(path), str(path)]) == 0
    assert "within bound" in capsys.readouterr().out


def test_compare_flags_the_doctored_row_and_any_checks_difference(records, tmp_path):
    record = _record_of(records)
    doctored = copy.deepcopy(record)
    row = doctored["workloads"]["batch-fused"]["end_to_end"]["queries_per_s"]
    for key in ("median", "q1", "q3"):
        row[key] *= 0.5
    row["runs"] = [value * 0.5 for value in row["runs"]]
    rows = compare.compare(record, doctored)
    assert rows["regressed"] == ["batch-fused/queries_per_s"]

    faster = copy.deepcopy(record)
    row = faster["workloads"]["batch-default"]["end_to_end"]["cpu_ms_per_query"]
    for key in ("median", "q1", "q3"):
        row[key] *= 0.5
    row["runs"] = [value * 0.5 for value in row["runs"]]
    assert compare.compare(record, faster)["improved"] == ["batch-default/cpu_ms_per_query"]

    broken = copy.deepcopy(record)
    check = next(iter(broken["workloads"]["serve-open-loop"]["checks"].values()))
    check["ok"] = False
    assert compare.compare(record, broken)["checks"]

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record), encoding="utf-8")
    new.write_text(json.dumps(doctored), encoding="utf-8")
    assert compare.main([str(old), str(new)]) == 1


def test_the_contract_command_ends_with_one_json_object(capsys):
    status = run.main(
        ["--workload", "batch-fused", "--seed", str(SEED), "--seconds", "0.3", "--trace", "0", "--smoke"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0 and last["correct"] is True
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for spec in BENCHMARK["end_to_end"]:
        assert last["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert last["metrics"][spec["name"]]["value"] > 0
