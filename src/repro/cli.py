"""Command-line interface: run scenarios, specs, and export their data.

Usage::

    sbqa list
    sbqa run scenario3 --duration 900 --providers 80 --seed 7
    sbqa run scenario4 --csv out.csv
    sbqa run scenario3 --replications 8 --parallel   # replicated session
    sbqa run --spec experiment.json                  # declarative spec file
    sbqa spec scenario4 -o experiment.json           # emit a preset spec
    sbqa spec scenario3 --sweep "sbqa.omega=0,0.5,1,adaptive" -o grid.json
    sbqa trace --queries 3                      # Figure-1 pipeline trace
    sbqa sweep kn --values 1,2,5,10,20          # quick one-axis grids
    sbqa sweep omega --values 0,0.5,1,adaptive --replications 3
    sbqa sweep --spec grid.json --workers 4 --stream  # declarative grids
    sbqa tune --spec tune.json --stream         # budgeted adaptive tuning
    sbqa tune --spec tune.json --budget 80 --json digest.json
    sbqa workload flash-crowd --duration 60 -o crowd.json   # synthesize a trace
    sbqa workload record --spec experiment.json -o rec.json # arrivals of a run
    sbqa serve --trace crowd.json --speed 20 --exit-when-done
    sbqa serve --replay rec.json --digest-out digest.json   # parity replay

The CLI is a thin veneer over :mod:`repro.api` (spec / builder /
session / sweep) and :mod:`repro.experiments.scenarios`; it exists so
the reproduction can be driven without writing Python, mirroring how
the original demo was driven from its GUIs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.allocation.factory import POLICY_NAMES
from repro.analysis.export import series_to_csv
from repro.experiments.scenarios import ALL_SCENARIOS


def _positive_int(raw: str) -> int:
    """argparse type: an integer >= 1 (argparse reports the error, exit 2)."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(raw: str) -> float:
    """argparse type: a number > 0 (argparse reports the error, exit 2)."""
    value = float(raw)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {raw}")
    return value


def _nonnegative_int(raw: str) -> int:
    """argparse type: an integer >= 0 (argparse reports the error, exit 2)."""
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbqa",
        description="SbQA (ICDE 2009) reproduction: satisfaction-based query allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available scenarios")

    run = sub.add_parser(
        "run", help="run one scenario (or 'all'), or a JSON spec file"
    )
    run.add_argument(
        "scenario",
        nargs="?",
        choices=sorted(ALL_SCENARIOS) + ["all"],
        default=None,
        help="scenario id (omit when using --spec)",
    )
    run.add_argument(
        "--spec", type=str, default=None,
        help="run a declarative ExperimentSpec JSON file instead of a scenario",
    )
    run.add_argument("--seed", type=int, default=None, help="root random seed")
    run.add_argument(
        "--duration", type=_positive_float, default=None, help="simulated seconds (default 2400)"
    )
    run.add_argument(
        "--providers", type=_positive_int, default=None, help="volunteer population size (default 120)"
    )
    run.add_argument(
        "--replications", type=int, default=None,
        help="replications per policy (switches to the comparison table output)",
    )
    run.add_argument(
        "--parallel", action="store_true",
        help="execute replications across worker processes",
    )
    run.add_argument(
        "--workers", type=_positive_int, default=None,
        help="with --parallel: replication pool size (default: CPU "
        "count); without --parallel: run each run's federation shard "
        "groups across this many worker processes (slice-parallel "
        "execution, digest-identical to single-process runs; "
        "session runs)",
    )
    run.add_argument(
        "--csv", type=str, default=None, help="export run data to CSV"
    )
    run.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="export the aggregated result digest to JSON (spec/session runs)",
    )
    run.add_argument(
        "--engine", choices=("fast", "event"), default=None,
        help="allocation runtime: the hot-path engine (default) or the "
        "event-faithful reference; results are bit-identical "
        "(session runs: --spec, --replications or --parallel)",
    )
    run.add_argument(
        "--shards", type=int, default=None,
        help="shard the mediator into a K-way consistent-hash federation "
        "(K=1 is bit-identical to the single mediator; session runs)",
    )

    spec_cmd = sub.add_parser(
        "spec",
        help="emit a scenario preset as an ExperimentSpec (or, with "
        "--sweep, a SweepSpec) JSON file",
    )
    spec_cmd.add_argument(
        "scenario", choices=sorted(ALL_SCENARIOS), help="scenario id"
    )
    spec_cmd.add_argument(
        "-o", "--output", type=str, default=None,
        help="destination file (default: stdout)",
    )
    spec_cmd.add_argument("--seed", type=int, default=None)
    spec_cmd.add_argument("--duration", type=_positive_float, default=None)
    spec_cmd.add_argument("--providers", type=_positive_int, default=None)
    spec_cmd.add_argument("--replications", type=int, default=None)
    spec_cmd.add_argument(
        "--sweep", action="append", default=None, metavar="PATH=V1,V2,...",
        help="add a sweep axis (repeatable) and emit a SweepSpec instead; "
        "e.g. --sweep 'sbqa.omega=0,0.5,adaptive' --sweep "
        "'population.n_providers=40,120'",
    )
    spec_cmd.add_argument(
        "--zip", dest="zip_axes", action="store_true",
        help="advance all --sweep axes in lockstep instead of taking "
        "their cartesian product",
    )
    spec_cmd.add_argument(
        "--sweep-name", type=str, default=None,
        help="name of the emitted sweep (default: '<scenario>-sweep')",
    )

    trace = sub.add_parser("trace", help="trace the SbQA mediation pipeline (Figure 1)")
    trace.add_argument("--queries", type=_positive_int, default=3, help="queries to trace")
    trace.add_argument("--seed", type=int, default=None, help="root random seed")

    sweep = sub.add_parser(
        "sweep",
        help="run a parameter grid (a SweepSpec file, or one quick axis) "
        "and print the trade-off table with significance annotations",
    )
    sweep.add_argument(
        "parameter", nargs="?", choices=("kn", "omega", "epsilon", "memory"),
        default=None,
        help="quick single-axis form: which SbQA parameter to sweep "
        "(omit when using --spec)",
    )
    sweep.add_argument(
        "--values", type=str, default=None,
        help="comma-separated values for the quick form "
        "(e.g. '1,2,5,10' or '0,0.5,1,adaptive')",
    )
    sweep.add_argument(
        "--spec", type=str, default=None,
        help="run a declarative SweepSpec JSON file (see `sbqa spec --sweep`)",
    )
    sweep.add_argument("--seed", type=int, default=None, help="root random seed")
    sweep.add_argument(
        "--duration", type=_positive_float, default=None,
        help="simulated seconds (quick-form default 1200; overrides the "
        "spec file's base)",
    )
    sweep.add_argument(
        "--providers", type=_positive_int, default=None,
        help="volunteer population size (quick-form default 80; overrides "
        "the spec file's base)",
    )
    sweep.add_argument(
        "--k", type=int, default=None,
        help="KnBest pool size (quick form only; default 20)",
    )
    sweep.add_argument(
        "--replications", type=int, default=None,
        help="replications per grid cell (>= 2 enables Welch t-test "
        "annotations; overrides the spec file's base)",
    )
    sweep.add_argument(
        "--parallel", action="store_true",
        help="execute the whole grid over a shared worker-process pool "
        "(no per-point barrier; results identical to serial)",
    )
    sweep.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker process count (implies --parallel; default: CPU count)",
    )
    sweep.add_argument(
        "--stream", action="store_true",
        help="print each grid point's aggregate as soon as it completes",
    )
    sweep.add_argument(
        "--csv", type=str, default=None,
        help="export tidy per-replication rows to CSV",
    )
    sweep.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="export the sweep digest (aggregates + Welch comparisons) to JSON",
    )
    sweep.add_argument(
        "--alpha", type=float, default=0.05,
        help="significance level for the table's best-cell stars and the "
        "digest (default 0.05; pairwise tables are Holm-corrected)",
    )
    sweep.add_argument(
        "--engine", choices=("fast", "event"), default=None,
        help="allocation runtime for every grid run (digests are "
        "engine-independent)",
    )
    sweep.add_argument(
        "--shards", type=int, default=None,
        help="shard every grid run's mediator into a K-way "
        "consistent-hash federation",
    )

    tune = sub.add_parser(
        "tune",
        help="race a parameter grid under a run budget (successive "
        "halving, Welch/Holm elimination) and report the winner plus "
        "the elimination trace",
    )
    tune.add_argument(
        "--spec", type=str, required=True,
        help="a declarative TuneSpec JSON file (see docs/tuning.md)",
    )
    tune.add_argument(
        "--budget", type=_nonnegative_int, default=None,
        help="override the spec's total run budget (0 means unlimited)",
    )
    tune.add_argument(
        "--alpha", type=float, default=None,
        help="override the spec's family-wise elimination level",
    )
    tune.add_argument(
        "--objective", type=str, default=None,
        help="override the raced metric (an aggregated summary field)",
    )
    tune.add_argument(
        "--parallel", action="store_true",
        help="race each rung over a shared worker-process pool "
        "(results and elimination trace identical to serial)",
    )
    tune.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker process count (implies --parallel; default: CPU count)",
    )
    tune.add_argument(
        "--stream", action="store_true",
        help="print each rung's promotions and eliminations as decided",
    )
    tune.add_argument(
        "--csv", type=str, default=None,
        help="export tidy rows of the executed runs to CSV",
    )
    tune.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="export the tune digest (winner, trace, budget accounting) "
        "to JSON",
    )
    tune.add_argument(
        "--engine", choices=("fast", "event"), default=None,
        help="allocation runtime for every raced run (digests are "
        "engine-independent)",
    )

    bench = sub.add_parser(
        "bench",
        help="benchmark the hot-path allocation engine: mediation "
        "throughput (fused vs scalar vs event) plus the fast/event and "
        "fused/scalar digest-parity checks; see docs/performance.md",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="small, CI-sized configuration (fewer mediations, shorter "
        "parity runs)",
    )
    bench.add_argument(
        "--mediations", type=int, default=None,
        help="mediations per timing sample (default 4000; smoke 1200)",
    )
    bench.add_argument(
        "--repeats", type=int, default=None,
        help="timing samples per engine, best-of (default 3)",
    )
    bench.add_argument(
        "--json", dest="json_out", type=str, default=None,
        help="write the bench record (BENCH_core.json layout) to a file",
    )
    bench.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail (exit 1) when the fast engine's mediation throughput "
        "is below this multiple of the event engine's (default 2.0)",
    )
    bench.add_argument(
        "--min-mediate-per-s", type=float, default=None,
        help="fail (exit 1) when the fast engine's absolute mediation "
        "throughput is below this many mediations/second",
    )
    bench.add_argument(
        "--policy", action="append", default=None, choices=POLICY_NAMES,
        metavar="NAME",
        help="policy to include in the fast-vs-event matrix (repeatable; "
        "default: the built-in matrix set)",
    )
    bench.add_argument(
        "--scale-providers", action="append", type=int, default=None,
        metavar="N",
        help="population size for the scaling axis (repeatable; default "
        "120/500/2000/10000, smoke 120/600)",
    )
    bench.add_argument(
        "--min-scaling-ratio", type=float, default=None,
        help="fail (exit 1) when the flat-engine flatness ratio (fast-"
        "engine throughput at max-N over min-N) is below this",
    )
    bench.add_argument(
        "--min-federation-ratio", type=float, default=None,
        help="fail (exit 1) when the federation flatness ratio "
        "(throughput at the largest federated point over the smallest) "
        "is below this",
    )
    bench.add_argument(
        "--skip-parity", action="store_true",
        help="skip the digest-parity runs (timing only)",
    )

    workload = sub.add_parser(
        "workload",
        help="author open-loop workload traces: synthesize a diurnal / "
        "flash-crowd / heavy-tail shape, or record the arrivals of a "
        "closed run for bit-exact replay",
    )
    workload.add_argument(
        "shape", choices=("diurnal", "flash-crowd", "heavy-tail", "record"),
        help="synthetic shape to generate, or 'record' to capture a run",
    )
    workload.add_argument(
        "-o", "--output", type=str, default=None,
        help="destination trace file (default: stdout)",
    )
    workload.add_argument(
        "--spec", type=str, default=None,
        help="ExperimentSpec JSON file ('record' mode: the run to record; "
        "synthetic modes: source of the consumer population)",
    )
    workload.add_argument(
        "--policy", type=str, default=None,
        help="policy label to record under (default: the spec's first "
        "policy, or 'sbqa' without a spec)",
    )
    workload.add_argument("--seed", type=int, default=None, help="trace seed")
    workload.add_argument(
        "--duration", type=float, default=120.0,
        help="trace length in simulated seconds (default 120)",
    )
    workload.add_argument(
        "--base-rate", type=float, default=2.0,
        help="mean aggregate arrival rate of synthetic shapes "
        "(queries/second, default 2)",
    )
    workload.add_argument(
        "--consumers", type=str, default=None,
        help="comma-separated consumer ids of a synthetic trace "
        "(default: seti,proteins,einstein -- the paper population)",
    )
    workload.add_argument(
        "--param", action="append", default=None, metavar="NAME=VALUE",
        help="shape parameter override (repeatable), e.g. "
        "--param spike_factor=12 --param spike_start=20",
    )
    workload.add_argument(
        "--digest-out", type=str, default=None,
        help="'record' mode: also write the recording run's allocation "
        "digest JSON (the replay-parity target)",
    )

    serve = sub.add_parser(
        "serve",
        help="long-lived serving mode: accept queries over HTTP / stdin "
        "JSONL / a streamed trace, map wall-clock onto simulation time, "
        "expose live /metrics and an ASCII dashboard, shed load "
        "explicitly; see docs/serving.md",
    )
    serve.add_argument(
        "--spec", type=str, default=None,
        help="ExperimentSpec JSON file defining the served system "
        "(default: the paper population with an sbqa mediator)",
    )
    serve.add_argument(
        "--policy", type=str, default=None,
        help="policy label to serve with (default: the spec's first "
        "policy, or 'sbqa' without a spec)",
    )
    serve.add_argument("--seed", type=int, default=None, help="root random seed")
    serve.add_argument(
        "--duration", type=float, default=None,
        help="serving horizon in simulated seconds (default: the spec's, "
        "or 3600 without a spec)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="HTTP port (default 0 = ephemeral, printed as SERVE_READY); "
        "-1 disables HTTP",
    )
    serve.add_argument(
        "--host", type=str, default="127.0.0.1", help="HTTP bind address"
    )
    serve.add_argument(
        "--speed", type=float, default=1.0,
        help="simulation seconds per wall-clock second (default 1)",
    )
    serve.add_argument(
        "--tick", type=float, default=0.05,
        help="wall seconds between clock advances (default 0.05)",
    )
    serve.add_argument(
        "--trace", type=str, default=None,
        help="trace file streamed open-loop as the clock reaches each "
        "arrival (synthetic or recorded)",
    )
    serve.add_argument(
        "--stdin", dest="read_stdin", action="store_true",
        help="accept JSONL submissions on stdin "
        '(one {"consumer_id": ...} object per line)',
    )
    serve.add_argument(
        "--exit-when-done", action="store_true",
        help="shut down once the horizon is reached and all feeds drained "
        "(trace-driven smoke runs)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=None,
        help="bound on admitted-but-unserved queries (default: unbounded)",
    )
    serve.add_argument(
        "--shed-policy", choices=("drop-newest", "drop-oldest"),
        default="drop-newest",
        help="full-queue behaviour: reject the incoming query or evict "
        "the longest-waiting one (default drop-newest)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None,
        help="per-consumer sustained admission rate (queries/second of "
        "simulation time; default: unlimited)",
    )
    serve.add_argument(
        "--burst", type=float, default=10.0,
        help="token-bucket depth of --rate-limit (default 10)",
    )
    serve.add_argument(
        "--replay", type=str, default=None,
        help="replay a trace file to completion through the serve path "
        "(full ingestion, admit-everything) and print the allocation "
        "digest -- bit-identical to the batch engine's; no server runs",
    )
    serve.add_argument(
        "--digest-out", type=str, default=None,
        help="--replay mode: write the digest JSON to a file",
    )
    return parser


def _scenario_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.duration is not None:
        kwargs["duration"] = args.duration
    if args.providers is not None:
        kwargs["n_providers"] = args.providers
    return kwargs


def _print_session_result(
    result, args: argparse.Namespace, suffix: str = ""
) -> None:
    """Print the comparison table and export; ``suffix`` keeps per-
    scenario exports of a ``run all`` session from overwriting each
    other (``out.csv`` -> ``out.scenario2.csv``)."""

    def _suffixed(path: str) -> str:
        if not suffix:
            return path
        p = Path(path)
        return str(p.with_name(f"{p.stem}.{suffix}{p.suffix}"))

    print(result.comparison_table())
    if args.csv:
        path = _suffixed(args.csv)
        result.to_csv(path)
        print(f"replication data exported to {path}")
    if args.json_out:
        path = _suffixed(args.json_out)
        result.to_json(path)
        print(f"result digest exported to {path}")


def _print_shard_placement(session, requested: Optional[int]) -> None:
    """One stderr line per distinct way ``--workers`` was not honoured:
    a run that fell back to serial, or fewer workers than requested."""
    notes = []
    for report in session.shard_reports.values():
        if report.mode == "serial-fallback":
            note = f"serial-fallback: {report.reason}"
        elif report.workers < requested:
            loads = ", ".join(f"{load:.2f}" for load in report.loads)
            note = (
                f"shard-workers: {report.workers} of {requested} requested "
                f"(one per consumer-owning shard group; offered loads {loads})"
            )
        else:
            continue
        if note not in notes:
            notes.append(note)
    for note in notes:
        print(note, file=sys.stderr)


#: Base-experiment flag -> the spec dot path it overrides.  Every flag
#: reaches an experiment through ``ExperimentSpec.derive``; an unset
#: ``federation`` block is materialized with its defaults first.
_FLAG_PATHS = {
    "seed": "seed",
    "duration": "duration",
    "providers": "population.n_providers",
    "replications": "replications",
    "engine": "engine",
    "shards": "federation.shards",
}


def _flag_overrides(args: argparse.Namespace, *flags: str) -> dict:
    """The dot-path overrides of the given (default: all) flags that
    were passed; flags a subcommand lacks count as not passed."""
    return {
        _FLAG_PATHS[flag]: getattr(args, flag)
        for flag in flags or _FLAG_PATHS
        if getattr(args, flag, None) is not None
    }


def _run_spec_file(args: argparse.Namespace) -> int:
    """``sbqa run --spec experiment.json``: the declarative entry point."""
    from repro.api.session import Session
    from repro.api.spec import ExperimentSpec

    try:
        spec = ExperimentSpec.load(args.spec)
    except OSError as err:
        print(f"error: cannot read spec file: {err}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as err:
        print(f"error: invalid spec {args.spec}: {err}", file=sys.stderr)
        return 2
    try:
        session = Session(spec.derive(_flag_overrides(args)))
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # Only summaries are printed/exported: drop each full run (live
    # simulator + population) as soon as its summary is extracted.
    result = session.run(
        parallel=args.parallel,
        max_workers=args.workers if args.parallel else None,
        keep_runs=False,
        shard_workers=None if args.parallel else args.workers,
    )
    _print_shard_placement(session, args.workers)
    _print_session_result(result, args)
    return 0


def _run_session(args: argparse.Namespace) -> int:
    """``sbqa run scenarioN --replications R [--parallel]``: a replicated
    comparison over the scenario's preset spec."""
    from repro.api.presets import scenario_spec
    from repro.api.session import Session

    # seed / duration / providers / replications are preset parameters
    # (the autonomy warmup follows the duration); the rest are overrides.
    kwargs = _scenario_kwargs(args)
    if args.replications is not None:
        kwargs["replications"] = args.replications
    overrides = _flag_overrides(args, "engine", "shards")
    names = sorted(ALL_SCENARIOS) if args.scenario == "all" else [args.scenario]
    for name in names:
        try:
            spec = scenario_spec(name, **kwargs).derive(overrides)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        session = Session(spec)
        result = session.run(
            parallel=args.parallel,
            max_workers=args.workers if args.parallel else None,
            keep_runs=False,
            shard_workers=None if args.parallel else args.workers,
        )
        _print_shard_placement(session, args.workers)
        _print_session_result(result, args, suffix=name if len(names) > 1 else "")
        print()
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    if args.spec is not None:
        if args.scenario is not None:
            print(
                "error: give either a scenario id or --spec FILE, not both",
                file=sys.stderr,
            )
            return 2
        return _run_spec_file(args)
    if args.scenario is None:
        print("error: give a scenario id or --spec FILE", file=sys.stderr)
        return 2
    if args.replications is not None or args.parallel or args.workers is not None:
        return _run_session(args)
    if args.json_out:
        print(
            "error: --json needs a session run (--spec, --replications "
            "or --parallel); the classic scenario path exports with --csv",
            file=sys.stderr,
        )
        return 2
    if args.engine is not None or args.shards is not None:
        print(
            "error: --engine/--shards need a session run (--spec, "
            "--replications or --parallel); the classic scenario path "
            "runs the default single-mediator engine",
            file=sys.stderr,
        )
        return 2
    kwargs = _scenario_kwargs(args)

    names = sorted(ALL_SCENARIOS) if args.scenario == "all" else [args.scenario]
    combined = {}
    all_pass = True
    for name in names:
        result = ALL_SCENARIOS[name](**kwargs)
        print(result.report())
        print()
        all_pass = all_pass and result.all_claims_pass
        for run in result.runs:
            for series_name, points in run.hub.series_map().items():
                combined[f"{name}/{run.label}/{series_name}"] = points
    if args.csv:
        series_to_csv(combined, path=args.csv)
        print(f"series exported to {args.csv}")
    return 0 if all_pass else 1


def _parse_axis_value(raw: str):
    """Coerce one CLI axis value: JSON scalar if it parses, else string."""
    import json

    try:
        return json.loads(raw)
    except ValueError:
        return raw


def _parse_axis_arg(arg: str, zip_group: Optional[str]):
    """One ``--sweep 'path=v1,v2,...'`` argument as a SweepAxis."""
    from repro.api.sweep import SweepAxis

    path, sep, values_text = arg.partition("=")
    path = path.strip()
    raw_values = [v.strip() for v in values_text.split(",") if v.strip()]
    if not sep or not path or not raw_values:
        raise ValueError(
            f"bad sweep axis {arg!r}; expected 'path=v1,v2,...' "
            "(e.g. 'sbqa.omega=0,0.5,adaptive')"
        )
    return SweepAxis(
        path=path,
        values=tuple(_parse_axis_value(v) for v in raw_values),
        zip_group=zip_group,
    )


def _emit_spec(args: argparse.Namespace) -> int:
    """``sbqa spec scenarioN -o file.json``: author spec files from presets.

    With ``--sweep`` axes the emitted document is a :class:`SweepSpec`
    whose base is the scenario preset; otherwise an ``ExperimentSpec``.
    """
    from repro.api.presets import scenario_spec

    if not args.sweep and (args.zip_axes or args.sweep_name):
        print(
            "error: --zip and --sweep-name only apply together with "
            "--sweep axes; add at least one --sweep 'path=v1,v2,...'",
            file=sys.stderr,
        )
        return 2
    kwargs = _scenario_kwargs(args)
    if args.replications is not None:
        kwargs["replications"] = args.replications
    spec = scenario_spec(args.scenario, **kwargs)
    if args.sweep:
        from repro.api.sweep import SweepSpec

        zip_group = "zip" if args.zip_axes else None
        try:
            axes = tuple(_parse_axis_arg(arg, zip_group) for arg in args.sweep)
            spec = SweepSpec(
                name=args.sweep_name or f"{args.scenario}-sweep",
                base=spec,
                axes=axes,
            )
        except (ValueError, TypeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    text = spec.to_json()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"spec written to {args.output}")
    else:
        print(text, end="")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    # Local imports keep CLI startup light for `sbqa list`.
    from repro.des.tracing import TraceRecorder
    from repro.experiments.config import DEFAULT_SEED, ExperimentConfig, PolicySpec
    from repro.experiments.runner import run_once
    from repro.workloads.boinc import BoincScenarioParams

    seed = DEFAULT_SEED if args.seed is None else args.seed
    recorder = TraceRecorder(enabled=True)
    config = ExperimentConfig(
        name="trace",
        seed=seed,
        duration=60.0,
        population=BoincScenarioParams(n_providers=20),
    )
    run_once(config, PolicySpec(name="sbqa"), trace=recorder)
    shown = 0
    for event in recorder.events:
        print(event.format())
        if event.category in ("allocate", "fail"):
            shown += 1
            if shown >= args.queries:
                break
    return 0


#: Quick-form parameter -> (axis dot-path, value coercion).
_QUICK_SWEEP_AXES = {
    "kn": ("sbqa.kn", int),
    "omega": ("sbqa.omega", lambda raw: raw if raw == "adaptive" else float(raw)),
    "epsilon": ("sbqa.epsilon", float),
    "memory": ("population.memory", int),
}


def _quick_sweep_spec(args: argparse.Namespace):
    """The quick form (``sbqa sweep kn --values 1,2,5``) as a SweepSpec."""
    from repro.api.spec import ExperimentSpec
    from repro.api.sweep import SweepAxis, SweepSpec

    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        raise ValueError("no sweep values given")
    path, coerce = _QUICK_SWEEP_AXES[args.parameter]
    values = tuple(coerce(raw) for raw in raw_values)
    # The caller filled in the quick-form --duration/--providers
    # defaults; an explicit --replications 0 reaches spec validation
    # and errors out, matching the --spec path.
    base = ExperimentSpec(name=f"sweep-{args.parameter}").derive(
        {"sbqa.k": args.k, "sbqa.kn": max(1, args.k // 2), **_flag_overrides(args)}
    )
    axis = SweepAxis(path=path, values=values, label=args.parameter)
    return SweepSpec(name=f"sweep-{args.parameter}", base=base, axes=(axis,))


def _sweep_spec_from_file(args: argparse.Namespace):
    """Load ``--spec grid.json``, applying base overrides.

    The base-experiment flags rewrite the loaded grid's *base*
    experiment, exactly as ``sbqa run --spec`` does; everything else in
    the file (axes, ``keep_runs``) is kept.  Points re-expand and
    re-validate around the overridden base (the spec caches its
    expansion, so it is rebuilt rather than mutated in place).
    """
    from dataclasses import replace

    from repro.api.sweep import SweepSpec

    spec = SweepSpec.load(args.spec)
    return replace(spec, base=spec.base.derive(_flag_overrides(args)))


def _run_sweep(args: argparse.Namespace) -> int:
    """``sbqa sweep``: execute a parameter grid through the sweep engine."""
    from repro.api.sweep import SweepSession

    if args.spec is not None and args.parameter is not None:
        print(
            "error: give either a quick-form parameter or --spec FILE, not both",
            file=sys.stderr,
        )
        return 2
    try:
        if args.spec is not None:
            if args.k is not None:
                print(
                    "error: --k applies to the quick form only; sweep the "
                    "pool size of a spec file with an 'sbqa.k' axis",
                    file=sys.stderr,
                )
                return 2
            if args.values is not None:
                print(
                    "error: --values applies to the quick form only; a "
                    "spec file's axes carry their own values",
                    file=sys.stderr,
                )
                return 2
            spec = _sweep_spec_from_file(args)
        elif args.parameter is not None:
            if args.values is None:
                print("error: the quick form needs --values", file=sys.stderr)
                return 2
            # Quick-form defaults; None elsewhere so the --spec path can
            # distinguish "explicitly passed" from "untouched".
            if args.duration is None:
                args.duration = 1200.0
            if args.providers is None:
                args.providers = 80
            if args.k is None:
                args.k = 20
            spec = _quick_sweep_spec(args)
        else:
            print("error: give a parameter or --spec FILE", file=sys.stderr)
            return 2
    except OSError as err:
        print(f"error: cannot read sweep spec: {err}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    session = SweepSession(spec)
    parallel = args.parallel or args.workers is not None
    # Only tables and exports leave this command: a file's keep_runs
    # (full runs for in-process analysis) would hold every simulator
    # alive for nothing, and rules out worker processes.
    stream = session.stream(
        parallel=parallel, max_workers=args.workers, keep_runs=False
    )
    if args.stream:
        # Partial tables while the grid runs: one block per completed
        # point (completion order in parallel mode; identical final
        # aggregate regardless).
        for event in stream:
            if event.point_result is None:
                continue
            print(
                f"[{event.completed}/{event.total} runs] "
                f"point {event.point_result.label}:"
            )
            for policy in event.point_result.policies:
                print(
                    f"  {policy.label}: cons sat {policy.cell('consumer_sat_final')}, "
                    f"prov sat {policy.cell('provider_sat_final')}, "
                    f"mean rt {policy.cell('mean_rt')}s"
                )
        print()
    result = stream.result()
    title = (
        f"SbQA {args.parameter} sweep (k={args.k})"
        if args.parameter is not None
        else None
    )
    print(result.table(title=title, alpha=args.alpha))
    if args.csv:
        result.to_csv(args.csv)
        print(f"\ntidy rows exported to {args.csv}")
    if args.json_out:
        result.to_json(args.json_out, alpha=args.alpha)
        print(f"sweep digest exported to {args.json_out}")
    return 0


def _tune_spec_from_file(args: argparse.Namespace):
    """Load ``--spec tune.json``, applying the CLI overrides.

    ``--budget`` / ``--alpha`` / ``--objective`` are field replacements,
    so ``__post_init__`` re-validates the overridden combination (a
    budget too small for the first rung fails here, not mid-race).  A
    ``--budget`` of 0 lifts the cap entirely.  ``--engine`` is a
    dot-path override of the search space's base experiment.
    """
    from dataclasses import replace

    from repro.api.tune import TuneSpec

    spec = TuneSpec.load(args.spec)
    changes = {}
    if args.budget is not None:
        changes["budget"] = args.budget or None
    if args.alpha is not None:
        changes["alpha"] = args.alpha
    if args.objective is not None:
        # A direction pinned in the file belonged to the file's metric;
        # the overriding metric gets its own natural direction.
        changes.update(objective=args.objective, direction=None)
    base = spec.sweep.base.derive(_flag_overrides(args, "engine"))
    return replace(spec, sweep=replace(spec.sweep, base=base), **changes)


def _run_tune(args: argparse.Namespace) -> int:
    """``sbqa tune``: race a grid through the adaptive tuner."""
    from repro.api.tune import TuneRungEvent, TuneSession, TuneStopEvent

    try:
        spec = _tune_spec_from_file(args)
    except OSError as err:
        print(f"error: cannot read tune spec: {err}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    session = TuneSession(spec)
    parallel = args.parallel or args.workers is not None
    stream = session.stream(parallel=parallel, max_workers=args.workers)
    if args.stream:
        for event in stream:
            if isinstance(event, TuneRungEvent):
                record = event.record
                budget = (
                    "unlimited"
                    if record.budget_remaining is None
                    else f"{record.budget_remaining} left"
                )
                print(
                    f"[rung {record.rung + 1}/{len(spec.rungs)}] "
                    f"{len(record.contenders)} contender(s) at "
                    f"{record.replications} rep(s); incumbent "
                    f"{record.incumbent}; {record.runs_total} run(s) so far, "
                    f"budget {budget}"
                )
                for elimination in record.eliminated:
                    print(
                        f"  - eliminated {elimination.label}: "
                        f"{spec.objective} {elimination.mean:.4f} vs "
                        f"{elimination.incumbent_mean:.4f} "
                        f"(p_holm={elimination.p_adjusted:.4f})"
                    )
            elif isinstance(event, TuneStopEvent):
                print(f"budget exhausted: {event.reason}")
        print()
    result = stream.result()
    print(result.table())
    winner = result.winner
    print(
        f"\nwinner: {winner.label} "
        f"({spec.objective} {result.objective_cell(winner)}, "
        f"{result.runs_saved} of {result.exhaustive_runs} runs saved)"
    )
    if args.csv:
        result.to_csv(args.csv)
        print(f"tidy rows exported to {args.csv}")
    if args.json_out:
        result.to_json(args.json_out)
        print(f"tune digest exported to {args.json_out}")
    return 0


def _serve_config(args: argparse.Namespace):
    """The ``(ExperimentConfig, PolicySpec)`` pair serve/workload act on.

    From ``--spec`` when given (``--policy`` selects among its policies
    by label), else the paper population under an SbQA mediator.
    """
    from repro.api.spec import ExperimentSpec
    from repro.experiments.config import PolicySpec

    overrides = _flag_overrides(args, "seed", "duration")
    if args.spec is not None:
        spec = ExperimentSpec.load(args.spec)
    else:
        name = "sbqa" if args.policy is None else args.policy
        spec = ExperimentSpec(name="serve", policies=(PolicySpec(name=name),))
        if args.command == "serve":
            overrides.setdefault("duration", 3600.0)
    spec = spec.derive(overrides)
    if args.policy is None or args.spec is None:
        policy = spec.policies[0]
    else:
        matches = [p for p in spec.policies if p.label == args.policy]
        if not matches:
            raise ValueError(
                f"spec has no policy labelled {args.policy!r}; available: "
                f"{', '.join(p.label for p in spec.policies)}"
            )
        policy = matches[0]
    return spec.to_config(), policy


def _run_workload(args: argparse.Namespace) -> int:
    """``sbqa workload``: synthesize or record open-loop traces."""
    import json

    from repro.workloads.traces import TraceSpec, record_trace

    try:
        if args.shape == "record":
            if args.base_rate != 2.0 or args.consumers or args.param:
                print(
                    "error: --base-rate/--consumers/--param apply to "
                    "synthetic shapes only; 'record' captures a run's own "
                    "arrivals",
                    file=sys.stderr,
                )
                return 2
            config, policy = _serve_config(args)
            trace, result = record_trace(config, policy)
            digest = result.digest()
            if args.digest_out:
                Path(args.digest_out).write_text(
                    json.dumps(
                        {"digest": digest, "experiment": config.name,
                         "policy": policy.label, "seed": config.seed},
                        indent=2, sort_keys=True,
                    ) + "\n",
                    encoding="utf-8",
                )
            print(f"recorded {len(trace)} arrivals; digest {digest}", file=sys.stderr)
        else:
            if args.digest_out:
                print(
                    "error: --digest-out applies to 'record' mode only",
                    file=sys.stderr,
                )
                return 2
            from repro.experiments.config import DEFAULT_SEED

            consumers = tuple(
                c.strip() for c in (args.consumers or "seti,proteins,einstein").split(",")
                if c.strip()
            )
            params = {}
            for raw in args.param or ():
                name, sep, value = raw.partition("=")
                if not sep:
                    raise ValueError(
                        f"bad --param {raw!r}; expected NAME=VALUE"
                    )
                params[name.strip()] = float(value)
            trace = TraceSpec(
                name=f"{args.shape}-{args.duration:g}s",
                shape=args.shape,
                duration=args.duration,
                seed=DEFAULT_SEED if args.seed is None else args.seed,
                base_rate=args.base_rate,
                params=params,
                consumers=consumers,
            )
            n = len(trace.materialize())
            print(f"{args.shape}: {n} arrivals over {args.duration:g}s", file=sys.stderr)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.output:
        trace.save(args.output)
        print(f"trace written to {args.output}")
    else:
        print(trace.to_json(), end="")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """``sbqa serve``: the long-lived serving mode (docs/serving.md)."""
    import json

    from repro.serve.admission import AdmissionConfig
    from repro.serve.engine import ServeEngine
    from repro.workloads.traces import TraceSpec

    try:
        config, policy = _serve_config(args)
        if args.replay is not None:
            if args.trace or args.read_stdin:
                print(
                    "error: --replay is a batch parity check; it takes no "
                    "--trace/--stdin feeds",
                    file=sys.stderr,
                )
                return 2
            trace = TraceSpec.load(args.replay)
            engine = ServeEngine(config, policy)
            result = engine.replay(trace)
            payload = {
                "digest": result.digest(),
                "trace": trace.name,
                "arrivals": len(trace.materialize(engine.consumer_ids())),
                "policy": policy.label,
                "seed": config.seed,
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            if args.digest_out:
                Path(args.digest_out).write_text(
                    json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
                print(f"digest written to {args.digest_out}", file=sys.stderr)
            return 0
        if args.digest_out:
            print(
                "error: --digest-out applies to --replay mode only; live "
                "sessions flush SERVE_FINAL (with digest) on shutdown",
                file=sys.stderr,
            )
            return 2
        admission = AdmissionConfig(
            queue_capacity=args.queue_capacity,
            shed_policy=args.shed_policy,
            rate_limit=args.rate_limit,
            burst=args.burst,
        )
        engine = ServeEngine(config, policy, admission=admission)
        trace = TraceSpec.load(args.trace) if args.trace else None
        from repro.serve.server import ServeServer

        server = ServeServer(
            engine,
            host=args.host,
            port=None if args.port < 0 else args.port,
            speed=args.speed,
            tick_interval=args.tick,
            trace=trace,
            read_stdin=args.read_stdin,
            exit_when_done=args.exit_when_done,
        )
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    server.run()
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    """``sbqa bench``: the core hot-path bench (see docs/performance.md)."""
    from repro.perf.hotpath import format_report, gate_failures, run_bench, write_record

    sizes = [("--mediations", args.mediations), ("--repeats", args.repeats)]
    sizes += [("--scale-providers", n) for n in args.scale_providers or ()]
    for flag, value in sizes:
        if value is not None and value < 1:
            print(f"error: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2

    record = run_bench(
        smoke=args.smoke,
        mediations=args.mediations,
        repeats=args.repeats,
        check_parity=not args.skip_parity,
        policies=args.policy,
        scale_providers=args.scale_providers,
    )
    print(format_report(record))
    if args.json_out:
        write_record(record, args.json_out)
        print(f"\nbench record written to {args.json_out}")
    failures = gate_failures(
        record,
        min_speedup=args.min_speedup,
        min_mediate_per_s=args.min_mediate_per_s,
        min_scaling_ratio=args.min_scaling_ratio,
        min_federation_ratio=args.min_federation_ratio,
    )
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``sbqa`` console script."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Piping into `head` closes stdout early; that is not an error.
        # Point stdout at devnull so the interpreter's exit-time flush
        # does not raise a second time.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # pragma: no cover - capture streams
            pass
        return 0


def _dispatch(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(ALL_SCENARIOS):
            fn = ALL_SCENARIOS[name]
            first_line = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name}: {first_line}")
        return 0
    if args.command == "run":
        return _run_scenario(args)
    if args.command == "spec":
        return _emit_spec(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "tune":
        return _run_tune(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "workload":
        return _run_workload(args)
    if args.command == "serve":
        return _run_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
