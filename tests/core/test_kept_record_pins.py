"""Kept allocation records, pinned byte for byte on both engines.

``keep_records=True`` must hand back every record exactly as the
mediator decided it, whatever an unkept record drops at store.  The
pins are the sha256 of a canonical JSON dump of every kept record --
qid, allocated and informed ids, the four maps in insertion order,
adequation and consultation delay -- of short runs at N=40, one pin per
case shared by both engines (fast == event), computed before unkept
records began to drop anything.
"""

import hashlib
import json

import pytest

from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import run_once
from repro.workloads.boinc import BoincScenarioParams

LATENCIES = {"constant": (0.05, 0.05), "random": (0.02, 0.08)}

PINS = {
    ("sbqa", "constant"): "29c57f3aed0a5f09d9b66b351ac86f3aed5a9204c2745a26907f4ebfc0bf1d06",
    ("sbqa", "random"): "3312d96f4aae951b8a8035d3c6d5469e7fb0898aa42e008fba974e26fd1982ec",
    ("economic", "random"): "e9b11e358ae8b095bb0eff122358acd8b22cc924ffaaeef9eb89520d63c609c4",
    ("capacity", "random"): "fa66de2f8f25c5717583919a5e53543b524c6b8d2b9a28c18df7b6607efae905",
}


def _pairs(mapping):
    return [[pid, value] for pid, value in mapping.items()]


def record_dump(records) -> str:
    """The canonical JSON of a list of kept records."""
    return json.dumps(
        [
            {
                "qid": record.query.qid,
                "allocated": record.allocated_ids,
                "informed": record.informed_ids,
                "consumer_intentions": _pairs(record.consumer_intentions),
                "provider_intentions": _pairs(record.provider_intentions),
                "scores": _pairs(record.scores),
                "omegas": _pairs(record.omegas),
                "adequation": record.adequation,
                "consultation_delay": record.consultation_delay,
            }
            for record in records
        ],
        separators=(",", ":"),
    )


@pytest.mark.parametrize("engine", ["fast", "event"])
@pytest.mark.parametrize("case", list(PINS), ids="-".join)
def test_kept_records_are_pinned(case, engine):
    policy, latency = case
    low, high = LATENCIES[latency]
    config = ExperimentConfig(
        name="kept-records",
        seed=20090301,
        duration=100.0,
        population=BoincScenarioParams(n_providers=40),
        engine=engine,
        latency_low=low,
        latency_high=high,
        keep_records=True,
    )
    records = run_once(config, PolicySpec(name=policy)).mediator.records
    assert len(records) > 20
    text = record_dump(records)
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[case]
