"""Byte pins of the CLI's base-experiment flags.

Each ``--json`` digest below was hashed before the CLI flags became
dot-path overrides (``ExperimentSpec.derive``); a flag that drops or
reorders a field changes the bytes.  The ``tune-*`` digests were hashed
while ``sbqa tune`` still applied its overrides through a
``TuneSpec.to_dict()`` round trip.  ``_serve_config`` is pinned by
equality with the hand-built ``(config, policy)`` pair instead.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.api.builder import Experiment
from repro.api.serialization import canonical_population
from repro.api.spec import ExperimentSpec
from repro.api.sweep import SweepSpec
from repro.api.tune import TuneSpec
from repro.cli import _serve_config, build_parser, main
from repro.experiments.config import ExperimentConfig, PolicySpec

ROOT = Path(__file__).resolve().parents[1]
DEMO = str(ROOT / "examples" / "specs" / "demo.json")
SWEEP_OMEGA = str(ROOT / "examples" / "specs" / "sweep_omega.json")
#: Stands for the path of a small TuneSpec the test writes (``_tune_spec``).
TUNE = "<tune.json>"

CASES = {
    # demo.json has no federation block: --shards materialises one.
    "run-spec": (
        ["run", "--spec", DEMO, "--seed", "3", "--duration", "100",
         "--providers", "30", "--replications", "2", "--engine", "event",
         "--shards", "2"],
        "1e14990b2672b43317880207d1f64dbae8bcf46da9870cb41cc6aaeaae26c12e",
    ),
    "run-scenario": (
        ["run", "scenario4", "--replications", "1", "--duration", "300",
         "--providers", "40", "--engine", "event", "--shards", "2"],
        "8a82314d63049fd6469e7ae86a38dcf616a295c6115005f030820d8286a90160",
    ),
    "sweep-quick": (
        ["sweep", "kn", "--values", "1,4", "--duration", "100",
         "--providers", "20", "--shards", "2"],
        "b1c6c65a6c2f449e87e9cb7b57ec30db5d76098aa3e5a532c9cd2da44254eb85",
    ),
    "sweep-spec": (
        ["sweep", "--spec", SWEEP_OMEGA, "--duration", "100",
         "--providers", "20"],
        "346574c1a37894fbd093708f52282035e04459f6886218b6d0e70fec16f1d657",
    ),
    "tune-spec": (
        ["tune", "--spec", TUNE, "--budget", "9", "--alpha", "0.2",
         "--engine", "event"],
        "c0dc7b70c73e6e3733e84a6b3580206c91cda860042910a96163cee6f217d25e",
    ),
    # The file pins direction "minimize"; --objective resets it.
    "tune-objective": (
        ["tune", "--spec", TUNE, "--budget", "0", "--objective",
         "provider_sat_final"],
        "db21f32eb837e373659d65ca4a1d23200d9c474bb0c5ff993197ac1dd36caa5f",
    ),
}


def _tune_spec(path):
    base = (
        Experiment.builder()
        .named("pin-tune-base")
        .seed(5)
        .duration(100.0)
        .providers(16)
        .policy("sbqa", kn=3)
        .policy("capacity")
        .replications(2)
        .build()
    )
    sweep = SweepSpec(
        name="pin-tune-grid",
        base=base,
        axes=({"path": "sbqa.omega", "values": [0.0, 1.0, "adaptive"]},),
    )
    spec = TuneSpec(
        name="pin-tune", sweep=sweep, direction="minimize", budget=6, rungs=(1, 2)
    )
    return str(spec.save(path))


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_digest_is_pinned(case, tmp_path, capsys):
    argv, expected = CASES[case]
    if TUNE in argv:
        tune = _tune_spec(tmp_path / "tune.json")
        argv = [tune if arg == TUNE else arg for arg in argv]
    out = tmp_path / "digest.json"
    assert main(argv + ["--json", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


FLAG_SETS = {
    "none": ([], {}),
    "seed": (["--seed", "9"], {"seed": 9}),
    "duration": (["--duration", "50"], {"duration": 50.0}),
    "both": (["--seed", "9", "--duration", "50"], {"seed": 9, "duration": 50.0}),
}


def _canonical(config):
    """Intention models as their declarative dicts: two default
    populations hold distinct model objects, which compare unequal."""
    return dataclasses.replace(
        config, population=canonical_population(config.population)
    )


@pytest.mark.parametrize("flags", sorted(FLAG_SETS))
@pytest.mark.parametrize("command", ["serve", "workload"])
def test_serve_config_without_spec(command, flags):
    argv, changed = FLAG_SETS[flags]
    prefix = [command] if command == "serve" else [command, "diurnal"]
    config, policy = _serve_config(build_parser().parse_args(prefix + argv))
    # serve defaults to a 3600 s horizon, workload to its --duration 120.
    default = {"serve": 3600.0, "workload": 120.0}[command]
    expected = ExperimentConfig(name="serve", duration=default)
    assert _canonical(config) == _canonical(
        dataclasses.replace(expected, **changed)
    )
    assert policy == PolicySpec(name="sbqa")


@pytest.mark.parametrize("flags", sorted(FLAG_SETS))
def test_serve_config_with_spec(flags):
    argv, changed = FLAG_SETS[flags]
    args = build_parser().parse_args(
        ["serve", "--spec", DEMO, "--policy", "capacity"] + argv
    )
    config, policy = _serve_config(args)
    spec = ExperimentSpec.load(DEMO)
    assert config == dataclasses.replace(spec.to_config(), **changed)
    assert policy == spec.policy("capacity")
