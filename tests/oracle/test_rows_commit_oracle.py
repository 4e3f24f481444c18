"""Rows-commit differential oracle: every policy, three commits, one state.

The fast engine commits every policy's mediations in snapshot rows
(:meth:`repro.core.soa.ConsultColumns.commit`); the reference is the
tracker-method walk of :meth:`repro.core.mediator.Mediator._commit`.
Each case replays one run three ways --

* ``engine="fast"``: rows commit (the default);
* ``engine="fast"`` with ``repro.core.engine._FUSED_KERNEL = False``:
  the same ``select_fast`` decisions committed on the provider objects;
* ``engine="event"``, the event-faithful core --

and demands the same result digest *and* the same end state of every
satisfaction tracker, float for float, with windows short enough that
they wrap and ``_rebuild_sums`` fires on both sides.  The fallback
cases pin what the rows commit must leave to the object walk.
"""

import hashlib
from dataclasses import replace

import pytest

import repro.core.engine as engine_module
from repro.allocation.factory import POLICY_NAMES
from repro.api.builder import Experiment
from repro.api.session import Session
from repro.core.engine import FastMediator, FastNetwork
from repro.core.policy import AllocationPolicy, FastAllocationDecision
from repro.des.network import FixedLatency
from repro.des.scheduler import Simulator
from repro.experiments.runner import wire_run
from repro.federation import FederationConfig
from repro.serve.engine import ServeEngine
from repro.system.consumer import Consumer
from repro.system.provider import Provider
from repro.system.query import Query
from repro.system.registry import SystemRegistry
from repro.workloads.traces import record_trace

MEMORY = 5
LATENCIES = {"constant": (0.05, 0.05), "random": (0.02, 0.08)}
REGIMES = {
    "captive": lambda b: b.captive(),
    # duration must reach past the 300 s autonomy warm-up
    "autonomous+failures": lambda b: b.autonomous(rejoin_cooldown=60.0).failures(
        mttf=900.0, repair_time=60.0, result_timeout=240.0
    ),
}


def _spec(policy, latency="constant", regime="captive", over_candidates=False):
    builder = (
        Experiment.from_scenario("scenario4", duration=400.0, n_providers=30)
        .clear_policies()
        .policy(policy)
        .latency(*LATENCIES[latency])
        .memory(MEMORY)
        .adequation_over_candidates(over_candidates)
    )
    return REGIMES[regime](builder).build()


def _run(spec, engine="fast", kernel=True, drive=None):
    previous = engine_module._FUSED_KERNEL
    engine_module._FUSED_KERNEL = kernel
    try:
        live = wire_run(replace(spec.to_config(), engine=engine), spec.policies[0])
        if drive is not None:
            drive(live)
        return live.finalize()
    finally:
        engine_module._FUSED_KERNEL = previous


def _provider_state(tracker):
    return (
        tracker.window_entries(),
        tracker._performed_in_window,
        tracker._performed_unit_sum,
        tracker._evictions_since_rebuild,
        tracker.total_proposed,
        tracker.total_performed,
    )


def _consumer_state(tracker):
    return (
        list(tracker._satisfactions),
        list(tracker._adequations),
        tracker._sat_sum,
        tracker._adq_sum,
        tracker._ratio_sum,
        tracker._evictions_since_rebuild,
        tracker.total_recorded,
    )


def _tracker_states(result):
    population = result.population
    return (
        {p.participant_id: _provider_state(p.tracker) for p in population.providers},
        {c.participant_id: _consumer_state(c.tracker) for c in population.consumers},
    )


def _assert_three_commits_agree(spec, drive=None):
    rows = _run(spec, drive=drive)
    objects = _run(spec, kernel=False, drive=drive)
    event = _run(spec, engine="event", drive=drive)
    assert rows.digest() == objects.digest() == event.digest()
    expected_providers, expected_consumers = _tracker_states(event)
    for result in (rows, objects):
        providers, consumers = _tracker_states(result)
        for pid, state in expected_providers.items():
            assert providers[pid] == state, pid
        for cid, state in expected_consumers.items():
            assert consumers[cid] == state, cid
    # the windows wrapped and were rebuilt from their contents at least once
    assert max(state[4] for state in expected_providers.values()) >= 2 * MEMORY
    assert max(state[6] for state in expected_consumers.values()) >= 2 * MEMORY
    assert objects.mediator.commit_counts["rows"] == 0
    return rows, objects


@pytest.mark.parametrize("over_candidates", [False, True], ids=["informed", "candidates"])
@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("latency", list(LATENCIES))
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_rows_commit_matches_the_reference(policy, latency, regime, over_candidates):
    rows, objects = _assert_three_commits_agree(_spec(policy, latency, regime, over_candidates))
    mediator = rows.mediator
    commits = mediator.commit_counts
    assert commits["rows"] > 0 and commits["objects"] == 0
    assert commits["rows"] + mediator.failures == mediator.mediations
    assert objects.mediator.commit_counts["objects"] == commits["rows"]
    routes = mediator.route_counts
    if policy == "sbqa":
        assert routes["fused" if latency == "constant" else "columns"] == commits["rows"]
        assert mediator.scalar_reasons == {}
    else:  # decided on objects, committed on rows
        assert routes["scalar"] >= commits["rows"]
        assert mediator.scalar_reasons == {"policy not column-encodable": routes["scalar"]}


@pytest.mark.parametrize("policy", ["economic", "capacity"])
def test_a_subclassed_intention_model_commits_its_topic_on_objects(policy):
    """While a provider whose model the columns cannot encode is in
    ``P_q``, that snapshot's mediations commit on objects -- counted --
    and once it has left the rebuilt snapshot commits on rows again."""

    def drive(live):
        odd = live.population.providers[3]
        model = odd.intention_model
        custom = type("CustomIntentions", (type(model),), {})  # same arithmetic, not the exact type
        odd.intention_model = custom.__new__(custom)
        odd.intention_model.__dict__.update(model.__dict__)
        live.step_until(150.0)
        odd.leave()

    rows, _ = _assert_three_commits_agree(_spec(policy), drive)
    commits = rows.mediator.commit_counts
    assert commits["objects"] > 0 and commits["rows"] > 0
    assert commits["rows"] + commits["objects"] + rows.mediator.failures == rows.mediator.mediations


# ----------------------------------------------------------------------
# Decisions the rows cannot express
# ----------------------------------------------------------------------


def _micro_system(n_providers=6):
    sim = Simulator()
    network = FastNetwork(sim, FixedLatency(0.05))
    registry = SystemRegistry()
    providers = [
        Provider(sim, network, participant_id=f"p{i}", preferences={"c0": 0.1 * i})
        for i in range(n_providers)
    ]
    for provider in providers:
        registry.add_provider(provider)
    consumer = Consumer(sim, network, participant_id="c0")
    registry.add_consumer(consumer)
    return sim, network, registry, consumer, providers


class _ScriptedPolicy(AllocationPolicy):
    """Returns whatever ``script(candidates)`` builds."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def select_fast(self, query, candidates, ctx):
        return self.script(candidates)


def _mediate_once(policy, sim, network, registry, consumer):
    mediator = FastMediator(sim, network, registry, policy)
    consumer.attach_mediator(mediator)
    query = Query(consumer=consumer, topic="c0", service_demand=5.0, n_results=1, issued_at=0.0)
    return mediator, mediator.mediate(query)


def test_a_decision_without_intentions_is_computed_from_the_columns():
    sim, network, registry, consumer, providers = _micro_system()
    policy = _ScriptedPolicy(
        lambda candidates: FastAllocationDecision(allocated=[candidates[2]], informed=list(candidates))
    )
    mediator, record = _mediate_once(policy, sim, network, registry, consumer)
    assert mediator.commit_counts == {"rows": 1, "objects": 0}
    query = record.query
    assert record.provider_intentions == {p.participant_id: p.intention_for(query) for p in providers}
    assert list(record.provider_intentions) == [p.participant_id for p in providers]
    assert record.consumer_intentions == {"p2": consumer.intention_for(query, providers[2])}
    assert record.informed == providers and record.allocated == [providers[2]]
    assert record.scores == {} and record.omegas == {}
    for provider in providers:
        assert provider.tracker.window_entries() == [
            (record.provider_intentions[provider.participant_id], provider is providers[2])
        ]


def test_a_decision_that_supplies_its_own_intentions_is_honoured():
    sim, network, registry, consumer, providers = _micro_system()
    policy = _ScriptedPolicy(
        lambda candidates: FastAllocationDecision(
            allocated=[candidates[1]],
            informed=[candidates[0], candidates[1]],
            provider_intentions={"p1": -0.625},  # partial, and not what the model says
        )
    )
    mediator, record = _mediate_once(policy, sim, network, registry, consumer)
    assert mediator.commit_counts == {"rows": 0, "objects": 1}
    assert record.provider_intentions["p1"] == -0.625
    assert providers[1].tracker.window_entries() == [(-0.625, True)]
    assert providers[0].tracker.window_entries() == [(providers[0].intention_for(record.query), False)]


def test_an_informed_provider_outside_the_snapshot_commits_on_objects():
    sim, network, registry, consumer, providers = _micro_system()
    outsider = Provider(sim, network, participant_id="elsewhere")  # never registered
    policy = _ScriptedPolicy(
        lambda candidates: FastAllocationDecision(
            allocated=[candidates[0]], informed=[candidates[0], outsider]
        )
    )
    mediator, record = _mediate_once(policy, sim, network, registry, consumer)
    assert mediator.commit_counts == {"rows": 0, "objects": 1}
    assert record.informed == [providers[0], outsider]
    assert outsider.tracker.total_proposed == 1 and outsider.tracker.total_performed == 0


# ----------------------------------------------------------------------
# commit_counts is execution metadata
# ----------------------------------------------------------------------


def test_commit_counts_never_reach_the_result_json():
    """The pin is the sha256 of this run's JSON at the parent commit,
    where every baseline still committed on objects."""
    spec = (
        Experiment.builder().named("commit-counts-pin").seed(20090301).duration(360.0)
        .providers(40).memory(8).policy("sbqa").policy("economic").policy("capacity")
        .autonomous(rejoin_cooldown=60.0).build()
    )
    text = Session(spec).run(keep_runs=False).to_json()
    assert "commit_counts" not in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "0601ed6efa067536547b221ad1ea4baff38959584c30d4d37c9d33fc8f39d035"
    )


def test_federation_and_serve_report_the_commit_counts():
    spec = _spec("economic", latency="random")
    config = replace(spec.to_config(), federation=FederationConfig(shards=2))
    mediator = wire_run(config, spec.policies[0]).finalize().mediator
    shards = mediator.federation.mediators
    assert mediator.commit_counts == {
        stage: sum(shard.commit_counts[stage] for shard in shards)
        for stage in ("rows", "objects")
    }
    assert mediator.commit_counts["rows"] > 0

    trace, _ = record_trace(spec.to_config(), spec.policies[0])
    engine = ServeEngine(spec.to_config(), spec.policies[0])
    engine.replay(trace)
    routes = engine.metrics_snapshot()["routes"]
    assert routes["commit"] == engine.live.mediator.commit_counts
    assert routes["commit"]["rows"] == routes["scalar"] > 0
