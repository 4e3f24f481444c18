"""Engine-level differential oracle: randomized mediation workloads.

Each case draws a workload configuration at random -- population size,
latency regime, KnBest pool shape, omega mode, churn, crashes, a
second (non-SbQA) policy that forces the per-query fallback -- and
replays it three ways:

* ``engine="fast"`` with the **fused SoA kernel** (the default);
* ``engine="fast"`` with the kernel switched off
  (``repro.core.engine._FUSED_KERNEL = False``), i.e. the **scalar
  oracle**: the select_fast/_commit reference path the fused kernel
  must reproduce;
* ``engine="event"``, the event-faithful core.

All three ``ExperimentResult`` JSON digests must be byte-identical.
The case generator is seeded from ``SBQA_ORACLE_SEED`` when set and
from system entropy otherwise, so CI sweeps a fresh slice of the
workload space on every run while any failure stays reproducible from
the seed in its message.
"""

import os
import random

import pytest

import repro.core.engine as engine_module
from repro.api.builder import Experiment
from repro.api.session import Session

ORACLE_SEED = int(
    os.environ.get("SBQA_ORACLE_SEED", "0")
) or random.SystemRandom().randrange(1, 2**31)

N_CASES = 5

LATENCIES = {
    "zero": (0.0, 0.0),
    "fixed": (0.05, 0.05),  # the collapsed-dispatch / fused path
    "uniform": (0.02, 0.08),  # random latency: fused gate stays off
}


def _draw_cases():
    rng = random.Random(ORACLE_SEED)
    cases = []
    for index in range(N_CASES):
        k = rng.randrange(4, 21)
        sbqa = {"k": k, "kn": rng.randrange(1, k + 1)}
        if rng.random() < 0.4:
            sbqa["omega"] = round(rng.uniform(0.0, 1.0), 3)
        cases.append(
            {
                "index": index,
                "seed": rng.randrange(1, 2**31),
                "duration": rng.choice((150.0, 200.0, 250.0)),
                "providers": rng.randrange(16, 48),
                "latency": rng.choice(tuple(LATENCIES)),
                "sbqa": sbqa,
                "extra_policy": rng.random() < 0.5,
                "autonomous": rng.random() < 0.5,
                "failures": rng.random() < 0.4,
            }
        )
    return cases


CASES = _draw_cases()


def _case_digest(case, engine, fused):
    previous = engine_module._FUSED_KERNEL
    engine_module._FUSED_KERNEL = fused
    try:
        builder = (
            Experiment.builder()
            .named(f"oracle-case-{case['index']}")
            .seed(case["seed"])
            .duration(case["duration"])
            .providers(case["providers"])
            .engine(engine)
            .latency(*LATENCIES[case["latency"]])
            .policy("sbqa", **case["sbqa"])
        )
        if case["extra_policy"]:
            builder.policy("capacity")
        if case["autonomous"]:
            builder.autonomous()
        if case["failures"]:
            builder.failures(
                mttf=1200.0, repair_time=60.0, result_timeout=240.0
            )
        return Session(builder.build()).run(keep_runs=False).to_json()
    finally:
        engine_module._FUSED_KERNEL = previous


@pytest.mark.parametrize("case", CASES, ids=[f"case{c['index']}" for c in CASES])
def test_fused_scalar_and_event_digests_agree(case):
    fused = _case_digest(case, "fast", fused=True)
    scalar = _case_digest(case, "fast", fused=False)
    event = _case_digest(case, "event", fused=False)
    context = f"seed {ORACLE_SEED}, case {case}"
    assert fused == scalar, f"fused kernel diverged from scalar oracle: {context}"
    assert scalar == event, f"fast engine diverged from event engine: {context}"
