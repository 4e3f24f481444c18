"""The repository's benchmark: one command, five workloads.

Two ways in, one measurement underneath:

``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``
    One workload in this process (the driver's contract).  Prints every
    metric by name with its unit, the checks, then -- as the last line
    -- one JSON object ``{"correct", "attempted", "failed", "metrics"}``
    holding every ``end_to_end`` metric (``--trace 0``) or every
    ``per_layer`` metric (``--trace 1``) of ``BENCHMARK.json``.

``python3 bench/run.py [--seed S] [--runs R] [--out record.json]``
    Every workload, each in a fresh subprocess, one at a time: ``R``
    untraced runs for the end-to-end rows, one traced run for the
    per-layer numbers.  Writes a record ``bench/compare.py`` can diff.

Exit status is non-zero when any correctness check fails.  No gain is
ever claimed here: a record ends with ``"claim": null``.
"""

import time

_T_ENTRY = time.perf_counter()  # set-up is timed from process entry

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import measure  # stdlib only; the script's directory is on sys.path
from measure import BENCH_DIR, ROOT, SRC

PINS_JSON = BENCH_DIR / "pins.json"
RECORD_PREFIX = "BENCH_RECORD "
RECORD_VERSION = 1
SETUP_PROBES = 3


def _bootstrap() -> None:
    """Import the program under test from *this* checkout, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"bench: {SRC}/repro not found -- the benchmark measures the "
            "package in its own checkout and has nothing to run without it"
        )
    if str(SRC) in sys.path:
        sys.path.remove(str(SRC))
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"bench: imported repro from {repro.__file__}, not from {SRC}")


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def _minor(version) -> str:
    return ".".join(str(version).split(".")[:2]) if version else "none"


def _pin_check(workload: str, seed: int, smoke: bool, digest: str, env: dict) -> dict:
    """Compare the run's result digest with the one pinned for the
    default seed.  A simulator speed-up must leave it identical; on
    another interpreter a mismatch is reported, not fatal."""
    pins = json.loads(PINS_JSON.read_text(encoding="utf-8"))
    if smoke or seed != pins["seed"]:
        return {"ok": True, "detail": "not the pinned seed/size", "fatal": False}
    pinned = pins["digests"].get(workload)
    if pinned is None:
        return {"ok": True, "detail": "no digest pinned for this workload", "fatal": False}
    same_interpreter = _minor(env["python"]) == _minor(pins["python"]) and _minor(
        env["numpy"]
    ) == _minor(pins["numpy"])
    return {
        "ok": digest == pinned,
        "detail": f"run {digest} pinned {pinned} (pin taken on python "
        f"{pins['python']}, numpy {pins['numpy']})",
        "fatal": same_interpreter,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, probes: int = SETUP_PROBES
) -> dict:
    """Set up, check, measure and fold one workload into a record.

    ``probes=0`` skips the fresh-interpreter set-up probes and reports
    this process's own entry-to-ready time (the harness test's choice).
    """
    _bootstrap()
    from workloads import WORKLOADS

    benchmark = measure.load_benchmark()
    env = measure.capture_env()
    workload = WORKLOADS[name](seed, smoke)
    workload.setup()
    setup_inprocess_s = time.perf_counter() - _T_ENTRY

    checks = workload.checks()  # reduced horizon: also the warm-up pass
    measured = workload.measure(seconds, trace)
    rss = measure.peak_rss_mb(include_children=workload.forks_workers)
    checks.update(measured["checks"])
    checks["result digest == pin (default seed)"] = _pin_check(
        name, seed, smoke, measured["digest"], env
    )
    for check in checks.values():
        check.setdefault("fatal", True)

    # Last, so that the probes' children never count towards the
    # workload's own CPU and memory readings.
    setup_samples = (
        measure.probe_setup(name, seed, smoke, probes) if probes else [setup_inprocess_s]
    )

    samples = dict(measured["samples"])
    samples["setup_s"] = setup_samples
    samples["peak_rss_mb"] = [rss]
    end_to_end = {}
    for spec in benchmark["end_to_end"]:
        stats = measure.quartiles(samples[spec["name"]])
        value = measure.best_decile(samples[spec["name"]], spec["better"])
        if not (math.isfinite(value) and value > 0):
            raise RuntimeError(f"{name}: end-to-end metric {spec['name']} = {value!r}")
        # A run whose own passes disagree by more than the bound is not
        # a measurement of anything; say so instead of medianing it.
        noisy = spec["name"] != "setup_s" and stats["spread"] > spec["bound"]
        end_to_end[spec["name"]] = {
            "value": value,
            "unit": spec["unit"],
            "median": stats["median"],
            "q1": stats["q1"],
            "q3": stats["q3"],
            "spread": stats["spread"],
            "samples": samples[spec["name"]],
            "status": "unresolved" if noisy else "ok",
        }
    per_layer = {
        spec["name"]: {"value": float(measured["per_layer"].get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in benchmark["per_layer"]
    }
    unknown = sorted(set(measured["per_layer"]) - set(per_layer))
    if unknown:
        raise RuntimeError(f"{name}: per-layer metrics missing from BENCHMARK.json: {unknown}")

    return {
        "workload": name,
        "mode": "smoke" if smoke else "full",
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "env": env,
        "params": workload.params(),
        "setup_inprocess_s": setup_inprocess_s,
        "pass_wall_s": measured["pass_wall_s"],
        "phases": measured.get("phases"),
        "end_to_end": end_to_end,
        "per_layer": per_layer if trace else None,
        "traced_wall_s": measured.get("traced_wall_s"),
        "traced_passes": measured.get("traced_passes"),
        "spans": measured["spans"],
        "checks": checks,
        "correct": all(c["ok"] or not c["fatal"] for c in checks.values()),
        "attempted": int(measured["attempted"]),
        "failed": int(measured["failed"]),
        "digest": measured["digest"],
        "counts": measured["counts"],
    }


def contract_line(record: dict) -> str:
    """The driver's last line: every metric of the run's mode."""
    block = record["per_layer"] if record["traced"] else record["end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": max(1, record["attempted"]),
            "failed": record["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in block.items()
            },
        }
    )


def print_workload(record: dict, out=None) -> None:
    out = out or sys.stdout
    env = record["env"]
    print(
        f"== {record['workload']}  seed {record['seed']}  {record['mode']}  "
        f"python {env['python']} numpy {env['numpy']} backend {env['scoring_backend']} "
        f"nproc {env['nproc']} load1 {env['load1_at_start']}",
        file=out,
    )
    print(f"   passes (wall s): {', '.join(f'{w:.3f}' for w in record['pass_wall_s'])}", file=out)
    for name, entry in record["end_to_end"].items():
        flag = "  UNRESOLVED: passes spread beyond the bound" if entry["status"] != "ok" else ""
        print(
            f"   {name:<34} {entry['value']:>14.4f} {entry['unit']:<6} "
            f"[median {entry['median']:.4f}, q1 {entry['q1']:.4f}, q3 {entry['q3']:.4f}, "
            f"n={len(entry['samples'])}]{flag}",
            file=out,
        )
    for name, entry in (record["per_layer"] or {}).items():
        print(f"   {name:<44} {entry['value']:>16.6g} {entry['unit']}", file=out)
    for name, check in record["checks"].items():
        verdict = "ok" if check["ok"] else ("FAILED" if check["fatal"] else "differs (not fatal)")
        print(f"   check: {name}: {verdict}", file=out)
        if not check["ok"]:
            print(f"          {check['detail']}", file=out)


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------


def _spawn(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "1" if trace else "0",
        "--emit-record",
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.PIPE, timeout=900)
    text = done.stdout.decode("utf-8", errors="replace")
    for line in text.splitlines():
        if line.startswith(RECORD_PREFIX):
            return json.loads(line[len(RECORD_PREFIX):])
    raise RuntimeError(f"{name}: no record (exit {done.returncode})\n{text}")


def fold_runs(benchmark: dict, untraced: list, traced: dict) -> dict:
    """One workload's entry in a record: the end-to-end rows over the
    untraced runs (each run's value is the best decile of its passes), the
    per-layer numbers of the traced run, and the checks of all."""
    end_to_end = {}
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        values = [run["end_to_end"][name]["value"] for run in untraced]
        stats = measure.quartiles(values)
        noisy = any(run["end_to_end"][name]["status"] != "ok" for run in untraced)
        end_to_end[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "runs": values,
            "median": stats["median"],
            "q1": stats["q1"],
            "q3": stats["q3"],
            "spread": stats["spread"],
            "status": "unresolved" if noisy else "ok",
            "raw_samples": [run["end_to_end"][name]["samples"] for run in untraced],
        }
    checks = {}
    for run in untraced + [traced]:
        for check_name, check in run["checks"].items():
            merged = checks.setdefault(check_name, {"ok": True, "fatal": check["fatal"]})
            merged["ok"] = merged["ok"] and check["ok"]
    return {
        "params": traced["params"],
        "digest": traced["digest"],
        "counts": traced["counts"],
        "attempted": sum(run["attempted"] for run in untraced),
        "failed": sum(run["failed"] for run in untraced),
        "load1_at_start": [run["env"]["load1_at_start"] for run in untraced],
        "end_to_end": end_to_end,
        "per_layer": traced["per_layer"],
        "traced_wall_s": traced["traced_wall_s"],
        "traced_passes": traced["traced_passes"],
        "spans": traced["spans"],
        "phases": traced["phases"],
        "checks": checks,
        "correct": all(run["correct"] for run in untraced + [traced]),
    }


def run_all(names, seed: int, seconds: float, runs: int, smoke: bool) -> dict:
    """The full record: ``runs`` untraced runs + one traced run each."""
    benchmark = measure.load_benchmark()
    record = {
        "record_version": RECORD_VERSION,
        "mode": "smoke" if smoke else "full",
        "seed": seed,
        "seconds": seconds,
        "runs": runs,
        "env": None,
        "workloads": {},
    }
    for name in names:
        untraced = [_spawn(name, seed, seconds, False, smoke) for _ in range(runs)]
        traced = _spawn(name, seed, seconds, True, smoke)
        for run in untraced + [traced]:
            print_workload(run)
        record["env"] = record["env"] or untraced[0]["env"]
        record["workloads"][name] = fold_runs(benchmark, untraced, traced)
    record["correct"] = all(w["correct"] for w in record["workloads"].values())
    record["claim"] = None
    return record


def update_pins(record: dict) -> None:
    env = record["env"]
    pins = {
        "seed": record["seed"],
        "python": env["python"],
        "numpy": env["numpy"],
        "digests": {name: w["digest"] for name, w in record["workloads"].items()},
    }
    PINS_JSON.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    benchmark = measure.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, help="default: all")
    parser.add_argument("--seed", type=int, default=20090301)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload (all-workloads mode)")
    parser.add_argument("--smoke", action="store_true", help="harness-test sizes; record tagged smoke")
    parser.add_argument("--out", help="write the all-workloads record here")
    parser.add_argument("--update-pins", action="store_true", help="re-pin the digests from this run")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--emit-record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        _bootstrap()
        from workloads import WORKLOADS

        WORKLOADS[args.workload[0]](args.seed, args.smoke).setup()
        return 0

    if args.trace is not None:  # the driver's contract: one workload, here
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        record = run_workload(
            args.workload[0],
            args.seed,
            args.seconds,
            bool(args.trace),
            args.smoke,
            probes=1 if args.smoke else SETUP_PROBES,
        )
        print_workload(record)
        if args.emit_record:
            print(RECORD_PREFIX + json.dumps(record))
        print(contract_line(record))
        return 0 if record["correct"] else 1

    record = run_all(args.workload or names, args.seed, args.seconds, max(1, args.runs), args.smoke)
    if args.update_pins:
        update_pins(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": record["correct"], "claim": record["claim"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
