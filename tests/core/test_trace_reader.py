"""Tracing reads finished records: a traced run is the production run.

The recorder renders each record's Figure-1 lines when the mediator
stores it, so attaching one must not move a run onto another code
path.  For every tracing policy, at random and at constant latency, on
both engines, a traced run must equal the untraced one: the same
digest and -- on the fast engine -- the same ``route_counts`` and
``commit_counts``, with exactly one terminal (``allocate`` / ``fail``)
line per mediation.  A federated run with forwarding active holds the
same, and each forwarded mediation shows the merged pool it was
decided over.  (Seed 7 at 200 s makes boinc-shares refuse some queries,
so failure records are traced too.)
"""

from dataclasses import replace

import pytest

from repro.api.builder import Experiment
from repro.core.mediator import Mediator
from repro.core.sbqa import SbQAConfig, SbQAPolicy
from repro.des.rng import RandomStream
from repro.des.tracing import TraceRecorder
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import run_once
from repro.federation import FederationConfig
from repro.federation.mediator import _ShardForwarding
from repro.system.query import reset_query_counter
from repro.workloads.boinc import BoincScenarioParams

POLICIES = ("sbqa", "economic", "capacity", "boinc-shares")
LATENCIES = {"random": {}, "constant": {"latency_low": 0.05, "latency_high": 0.05}}


def _run(config, policy, trace=None):
    reset_query_counter()  # the digests of both runs see the same qids
    if trace is None:
        return run_once(config, policy)
    return run_once(config, policy, trace=trace)


def _terminal_lines(recorder):
    return [e for e in recorder if e.category in ("allocate", "fail")]


@pytest.mark.parametrize("engine", ["fast", "event"])
@pytest.mark.parametrize("latency", sorted(LATENCIES))
@pytest.mark.parametrize("policy", POLICIES)
def test_traced_run_equals_untraced(policy, latency, engine):
    config = ExperimentConfig(
        name="trace-reader",
        seed=7,
        duration=200.0,
        population=BoincScenarioParams(n_providers=20),
        engine=engine,
        **LATENCIES[latency],
    )
    spec = PolicySpec(name=policy)
    recorder = TraceRecorder(enabled=True)
    traced = _run(config, spec, recorder)
    untraced = _run(config, spec)

    assert traced.digest() == untraced.digest()
    mediator = traced.mediator
    if engine == "fast":
        assert "traced" not in mediator.route_counts
        assert mediator.route_counts == untraced.mediator.route_counts
        assert mediator.commit_counts == untraced.mediator.commit_counts
    assert mediator.mediations > 0
    assert len(recorder.by_category("mediate")) == mediator.mediations
    terminal = _terminal_lines(recorder)
    assert len(terminal) == mediator.mediations
    assert len(recorder.by_category("fail")) == mediator.failures
    if policy == "boinc-shares":
        refusals = [e for e in recorder.by_category(policy) if "no provider" in e.message]
        assert 0 < len(refusals) == mediator.failures


def test_empty_pool_traces_mediate_then_fail(factory):
    consumer = factory.consumer("c0")
    recorder = TraceRecorder(enabled=True)
    policy = SbQAPolicy(SbQAConfig(), RandomStream(1))
    mediator = Mediator(factory.sim, factory.network, factory.registry, policy, trace=recorder)
    mediator.mediate(factory.query(consumer, topic="nobody-serves-this"))
    assert [(e.category, e.message) for e in recorder] == [
        ("mediate", "query 0 from c0: |P_q|=0"),
        ("fail", "query 0: no capable provider"),
    ]


def test_forwarded_mediations_trace_the_merged_pool(monkeypatch):
    # Each of the two shards homes 20 providers, so with a threshold of
    # 20 a shard forwards exactly while one of its providers is crashed.
    spec = (
        Experiment.from_scenario("scenario3", duration=300.0, n_providers=40)
        .failures(mttf=600.0, repair_time=60.0, result_timeout=240.0)
        .build()
    )
    config = replace(
        spec.to_config(), federation=FederationConfig(shards=2, forward_threshold=20)
    )
    policy = spec.policies[0]

    pools = {}
    forward = _ShardForwarding._mediate_forwarded

    def recording_forward(self, query, merged, peers):
        pools[query.qid] = len(merged)
        return forward(self, query, merged, peers)

    monkeypatch.setattr(_ShardForwarding, "_mediate_forwarded", recording_forward)
    recorder = TraceRecorder(enabled=True)
    traced = _run(config, policy, recorder)
    traced_pools = dict(pools)
    untraced = _run(config, policy)

    assert traced.digest() == untraced.digest()
    mediator = traced.mediator
    assert 0 < mediator.forwarded == len(traced_pools) < mediator.mediations
    assert mediator.route_counts == untraced.mediator.route_counts
    assert len(_terminal_lines(recorder)) == mediator.mediations

    mediate_lines = {}
    for event in recorder.by_category("mediate"):
        mediate_lines.setdefault(event.data["qid"], []).append(event.message)
    assert len(mediate_lines) == mediator.mediations
    for qid, size in traced_pools.items():
        (line,) = mediate_lines[qid]
        assert line.endswith(f": |P_q|={size}")
    # the merged pool is larger than the home shard's thin one
    assert all(size > 20 for size in traced_pools.values())
