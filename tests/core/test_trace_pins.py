"""The trace text of every tracing policy, pinned on both engines.

A traced run's recorder output is part of the observable contract:
each policy that emits trace lines (SbQA's ``knbest``/``sqlb``, the
economic, capacity and boinc-shares one-liners) must keep emitting the
same text, in the same order, whichever engine runs it -- so both
engines are held to one pin per policy.  The pins are
the sha256 of the newline-joined :meth:`TraceEvent.format` lines of a
short run at the default seed (qids restart per test, see conftest).
"""

import hashlib

import pytest

from repro.des.tracing import TraceRecorder
from repro.experiments.config import DEFAULT_SEED, ExperimentConfig, PolicySpec
from repro.experiments.runner import run_once
from repro.workloads.boinc import BoincScenarioParams

PINS = {
    "sbqa": "38da5238b84605566776391df6f9ee67f20d889878efa8088075500df0a62d56",
    "economic": "4bbac41f6305eb6f6246060a99e60a55c2ed102bb5c6a0bbd334ee96c67e34df",
    "capacity": "41592207ea32065d90cd53f5808703b2b46f53caa03053d2410496031aab0500",
    "boinc-shares": "d44058794a91f65e9f00e7e4564b2826ea5a8226181bc83942667d040ec53d03",
}


@pytest.mark.parametrize("engine", ["event", None], ids=["event", "default"])
@pytest.mark.parametrize("policy", sorted(PINS))
def test_trace_text_is_pinned(policy, engine):
    overrides = {} if engine is None else {"engine": engine}
    config = ExperimentConfig(
        name="trace",
        seed=DEFAULT_SEED,
        duration=60.0,
        population=BoincScenarioParams(n_providers=20),
        **overrides,
    )
    recorder = TraceRecorder(enabled=True)
    run_once(config, PolicySpec(name=policy), trace=recorder)
    text = "\n".join(event.format() for event in recorder.events)
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[policy]
