"""Byte pins of the CLI's base-experiment flags.

Each ``--json`` digest below was hashed before the CLI flags became
dot-path overrides (``ExperimentSpec.derive``); a flag that drops or
reorders a field changes the bytes.  ``_serve_config`` is pinned by
equality with the hand-built ``(config, policy)`` pair instead.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.api.serialization import canonical_population
from repro.api.spec import ExperimentSpec
from repro.cli import _serve_config, build_parser, main
from repro.experiments.config import ExperimentConfig, PolicySpec

ROOT = Path(__file__).resolve().parents[1]
DEMO = str(ROOT / "examples" / "specs" / "demo.json")
SWEEP_OMEGA = str(ROOT / "examples" / "specs" / "sweep_omega.json")

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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_digest_is_pinned(case, tmp_path, capsys):
    argv, expected = CASES[case]
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
