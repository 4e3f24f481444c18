"""Every shipped spec file is in canonical form.

Each file under ``examples/specs/`` loads with its own class and
re-saves byte-identically: a field the serializer gained (or lost)
shows up here as a file that no longer matches what the code writes.
"""

import json
from pathlib import Path

import pytest

from repro.api.spec import ExperimentSpec
from repro.api.sweep import SweepSpec
from repro.api.tune import TuneSpec

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"
FILES = sorted(SPECS.rglob("*.json"))


def _kind(data):
    if "tune_version" in data:
        return TuneSpec
    if "sweep_version" in data:
        return SweepSpec
    return ExperimentSpec


def test_the_shipped_files_are_found():
    assert len(FILES) >= 9


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(SPECS)))
def test_spec_file_resaves_byte_identically(path):
    text = path.read_text(encoding="utf-8")
    kind = _kind(json.loads(text))
    spec = kind.load(path)
    assert spec.to_json() == text
    assert kind.from_json(spec.to_json()) == spec
