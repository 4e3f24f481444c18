"""Random-latency differential oracle: three routes, one result.

Under a *random* latency model (the config default, ``U[0.02, 0.08]``)
the fast engine decides through ``SbQAPolicy.select_fast``'s **column
route** (:meth:`repro.core.soa.ConsultColumns.decide`) and commits one
event per delivery.  Each case here replays one run three ways --

* ``engine="fast"``, column route (the default);
* ``engine="fast"`` with ``repro.core.engine._FUSED_KERNEL = False``:
  the **object route** of ``select_fast``, the scalar oracle;
* ``engine="event"``, the event-faithful core --

and demands the same digest, every ``MetricsHub`` series float for
float, and the same latency-stream state at the end (no draw added,
dropped or reordered).  ``route_counts`` must say which route ran.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repro.core.engine as engine_module
from repro.api.builder import Experiment
from repro.api.session import Session
from repro.core.engine import FastMediator, FastNetwork
from repro.core.policy import AllocationContext
from repro.core.sbqa import SbQAConfig, SbQAPolicy
from repro.core.soa import ConsultColumns
from repro.des.network import UniformLatency
from repro.des.rng import RandomStream
from repro.des.scheduler import Simulator
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import wire_run
from repro.federation import FederationConfig
from repro.serve.engine import ServeEngine
from repro.system.consumer import Consumer
from repro.system.provider import Provider
from repro.system.query import Query
from repro.system.registry import SystemRegistry
from repro.workloads.boinc import BoincScenarioParams
from repro.workloads.traces import record_trace

ROUTES = (("fast", True), ("fast", False), ("event", True))  # columns, object, event

REGIMES = {
    "captive": lambda b: b.captive(),
    # duration must reach past the 300 s autonomy warm-up
    "autonomous+rejoin": lambda b: b.autonomous(rejoin_cooldown=60.0),
    "failures": lambda b: b.failures(mttf=900.0, repair_time=60.0, result_timeout=240.0),
}
OMEGAS = {"adaptive": {}, "fixed": {"omega": 0.3, "kn": 4}}


def _with_kernel(kernel, fn):
    previous = engine_module._FUSED_KERNEL
    engine_module._FUSED_KERNEL = kernel
    try:
        return fn()
    finally:
        engine_module._FUSED_KERNEL = previous


def _run(config, policy, engine, kernel, drive=None):
    """One run on ``engine``; ``drive(live)`` may script the run."""

    def go():
        live = wire_run(replace(config, engine=engine), policy)
        if drive is not None:
            drive(live)
        return live.finalize()

    return _with_kernel(kernel, go)


def _latency_state(result):
    return result.mediator.network.latency._stream._rng.getstate()


def _assert_three_routes_agree(config, policy, drive=None):
    columns, objects, event = (
        _run(config, policy, engine, kernel, drive) for engine, kernel in ROUTES
    )
    assert columns.digest() == objects.digest() == event.digest()
    expected = event.hub.series_map()
    for result in (columns, objects):
        series = result.hub.series_map()
        assert list(series) == list(expected)
        for name, points in expected.items():
            assert series[name] == points, name
        assert _latency_state(result) == _latency_state(event)
    routes, commits = event.mediator.route_counts, event.mediator.commit_counts
    assert routes["fused"] == routes["columns"] == commits["rows"] == 0
    assert event.mediator.scalar_reasons == (
        {"event engine": routes["scalar"]} if routes["scalar"] else {}
    )
    return columns, objects


@pytest.mark.parametrize("omega", list(OMEGAS))
@pytest.mark.parametrize("regime", list(REGIMES))
def test_scenario_presets_default_latency(regime, omega):
    builder = (
        Experiment.from_scenario("scenario4", duration=420.0, n_providers=36)
        .clear_policies()
        .policy("sbqa", **OMEGAS[omega])
    )
    spec = REGIMES[regime](builder).build()
    config = spec.to_config()
    assert config.latency_low != config.latency_high  # the preset default
    columns, objects = _assert_three_routes_agree(config, spec.policies[0])

    routes = columns.mediator.route_counts
    assert routes["columns"] > 0
    assert routes["fused"] == routes["scalar"] == 0
    assert columns.mediator.scalar_reasons == {}
    assert routes["columns"] + columns.mediator.failures >= columns.mediator.mediations

    scalar = objects.mediator.route_counts
    assert scalar["scalar"] == routes["columns"] and scalar["columns"] == 0
    assert objects.mediator.scalar_reasons == {"kernel hook off": scalar["scalar"]}


def test_baseline_policy_is_counted_as_not_column_encodable():
    config = ExperimentConfig(
        name="baseline", seed=5, duration=120.0, population=BoincScenarioParams(n_providers=20)
    )
    result = _run(config, PolicySpec(name="capacity"), "fast", True)
    routes = result.mediator.route_counts
    assert routes["scalar"] > 0 and routes["columns"] == routes["fused"] == 0
    assert result.mediator.scalar_reasons == {"policy not column-encodable": routes["scalar"]}


def test_event_engine_tallies_equal_the_hook_off_fast_engine():
    """Without columns both engines run the one pipeline the same way:
    every mediation takes the scalar route and the objects commit, and
    only the tallied reason differs."""
    spec = Experiment.from_scenario("scenario3", duration=240.0, n_providers=30).build()
    config = spec.to_config()
    event = _run(config, spec.policies[0], "event", True).mediator
    objects = _run(config, spec.policies[0], "fast", False).mediator
    assert event.route_counts == objects.route_counts
    assert event.commit_counts == objects.commit_counts
    scalar = event.route_counts["scalar"]
    assert event.route_counts == {"fused": 0, "columns": 0, "scalar": scalar}
    assert event.commit_counts == {"rows": 0, "objects": scalar} and scalar > 0
    assert event.scalar_reasons == {"event engine": scalar}
    assert objects.scalar_reasons == {"kernel hook off": scalar}


def test_one_custom_provider_model_falls_back_per_query():
    """While a provider with a model the columns cannot encode is in
    ``P_q`` every query takes the object route; once it has left, the
    rebuilt snapshot is column-encodable again -- and all of it agrees
    with the event engine."""
    config = ExperimentConfig(
        name="mixed-models", seed=11, duration=240.0, population=BoincScenarioParams(n_providers=30)
    )
    policy = PolicySpec(name="sbqa")

    def drive(live):
        odd = live.population.providers[3]
        model = odd.intention_model
        custom = type("CustomIntentions", (type(model),), {})  # same arithmetic, not the exact type
        odd.intention_model = custom.__new__(custom)
        odd.intention_model.__dict__.update(model.__dict__)
        live.step_until(80.0)
        odd.leave()
        live.step_until(160.0)
        odd.rejoin()

    columns, _ = _assert_three_routes_agree(config, policy, drive)
    routes = columns.mediator.route_counts
    assert routes["scalar"] > 0 and routes["columns"] > 0 and routes["fused"] == 0
    assert columns.mediator.scalar_reasons == {"unsupported intention models": routes["scalar"]}


def _federated_config(forward_threshold=None, duration=150.0, failures=False):
    builder = Experiment.from_scenario("scenario3", duration=duration, n_providers=40)
    if failures:
        builder.failures(mttf=600.0, repair_time=60.0, result_timeout=240.0)
    spec = builder.build()
    federation = FederationConfig(shards=2, forward_threshold=forward_threshold)
    return replace(spec.to_config(), federation=federation), spec.policies[0]


def test_two_shard_federation_sums_the_shard_routes():
    config, policy = _federated_config()
    columns, objects = _assert_three_routes_agree(config, policy)
    mediator = columns.mediator
    shards = mediator.federation.mediators
    assert len(shards) == 2
    assert mediator.route_counts == {
        route: sum(shard.route_counts[route] for shard in shards)
        for route in ("fused", "columns", "scalar")
    }
    assert mediator.route_counts["columns"] > 0 and mediator.forwarded == 0
    assert mediator.scalar_reasons == {}
    assert objects.mediator.scalar_reasons == {
        "kernel hook off": objects.mediator.route_counts["scalar"]
    }


def test_forwarded_mediations_never_see_the_home_shards_columns():
    # Each shard homes 20 providers, so with a threshold of 20 a shard
    # forwards exactly while one of its providers is crashed: forwarded
    # selects (over the merged pool, which is no registry snapshot)
    # interleave with column-route ones on the same reusable context
    # and must be handed no columns.
    config, policy = _federated_config(forward_threshold=20, duration=300.0, failures=True)
    columns, _ = _assert_three_routes_agree(config, policy)
    mediator = columns.mediator
    assert 0 < mediator.forwarded < mediator.mediations
    routes = mediator.route_counts
    assert routes["columns"] > 0 and routes["scalar"] == 0
    assert routes["columns"] + mediator.forwarded + mediator.failures >= mediator.mediations


def test_serve_record_then_replay_round():
    config = ExperimentConfig(
        name="serve-random-latency", seed=42, duration=150.0,
        population=BoincScenarioParams(n_providers=15),
    )
    policy = PolicySpec(name="sbqa")
    trace, batch = record_trace(config, policy)
    engine = ServeEngine(config, policy)
    replayed = engine.replay(trace).digest()
    scalar = _with_kernel(False, lambda: ServeEngine(config, policy).replay(trace).digest())
    event_engine = ServeEngine(replace(config, engine="event"), policy)
    event = event_engine.replay(trace).digest()
    assert replayed == scalar == event == batch.digest()
    routes = engine.metrics_snapshot()["routes"]
    assert routes["columns"] == engine.live.mediator.mediations > 0
    assert routes["scalar_reasons"] == {}
    event_routes = event_engine.metrics_snapshot()["routes"]
    assert event_routes["scalar"] == event_routes["commit"]["objects"] > 0
    assert event_routes["scalar_reasons"] == {"event engine": event_routes["scalar"]}


_HASHSEED_SCRIPT = """
import sys
import repro.core.engine as engine_module
from repro.api.presets import scenario_spec
from repro.experiments.runner import run_once

engine_module._FUSED_KERNEL = sys.argv[1] == "columns"
spec = scenario_spec("scenario4", duration=360.0, n_providers=30)
sys.stdout.write(run_once(spec.to_config(), spec.policies[0]).digest())
"""


def test_column_route_digest_is_hash_seed_independent():
    def digest(route, hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT, route],
            env=env, check=True, capture_output=True, text=True,
        ).stdout

    assert digest("columns", "random") == digest("object", "0")


def test_result_json_is_byte_equal_to_the_parent_commits():
    """Route counts are execution metadata: nothing of them may reach
    ``to_dict()``/``to_json()``.  The pin is the sha256 of this run's
    JSON at the commit before the column route existed."""
    spec = (
        Experiment.builder().named("route-counts-pin").seed(20090301).duration(300.0)
        .providers(40).policy("sbqa").policy("capacity").autonomous().build()
    )
    text = Session(spec).run(keep_runs=False).to_json()
    assert "route_counts" not in text and "scalar_reasons" not in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "3e43b7ec983b2299a1b42e28a9a8a11176ca058e59f59230afcbcabe0a0ee9d4"
    )


# ----------------------------------------------------------------------
# Decision level: select_fast with and without ctx.columns
# ----------------------------------------------------------------------


def _micro_system(n_providers, seed):
    sim = Simulator()
    network = FastNetwork(sim, UniformLatency(0.02, 0.08, RandomStream(seed + 1)))
    registry = SystemRegistry()
    stream = RandomStream(seed)
    providers = [
        Provider(
            sim, network, participant_id=f"p{i:02d}",
            capacity=stream.uniform(0.5, 2.0),
            preferences={"c0": stream.uniform(-1.0, 1.0)},
        )
        for i in range(n_providers)
    ]
    for provider in providers:
        registry.add_provider(provider)
    consumer = Consumer(
        sim, network, participant_id="c0",
        preferences={p.participant_id: stream.uniform(-1.0, 1.0) for p in providers},
    )
    registry.add_consumer(consumer)
    # Uneven load and satisfaction history, so stage 2, Equation 2 and
    # both scoring branches all have something to disagree about.
    for provider in providers:
        provider._busy_until = stream.uniform(0.0, 2.0) * provider.saturation_horizon
        for _ in range(stream.randint(0, 6)):
            provider.record_proposal(stream.uniform(-1.0, 1.0), stream.bernoulli(0.5))
    for _ in range(4):
        consumer.record_query_satisfaction(stream.uniform(0.0, 1.0), adequation=1.0)
    return sim, registry, consumer


@pytest.mark.parametrize("omega", ["adaptive", 0.25])
@pytest.mark.parametrize("n_providers", [6, 25, 90])  # n < kn, kn < n < setsize, set branch
def test_select_fast_with_and_without_columns_builds_the_same_decision(n_providers, omega):
    sim, registry, consumer = _micro_system(n_providers, seed=n_providers)
    config = SbQAConfig(k=20, kn=10, omega=omega)
    with_columns = SbQAPolicy(config, RandomStream(3))
    without = SbQAPolicy(config, RandomStream(3))
    meta = registry.snapshot_meta("c0")
    snapshot = meta.snapshot
    cols = ConsultColumns.build(snapshot, meta, consumer, "c0")
    assert cols.supported
    for n_results in (1, 2, 3, 12):
        query = Query(
            consumer=consumer, topic="c0", service_demand=10.0,
            n_results=n_results, issued_at=0.0,
        )
        a = with_columns.select_fast(query, snapshot, AllocationContext(now=sim.now, columns=cols))
        b = without.select_fast(query, snapshot, AllocationContext(now=sim.now))
        assert [p.participant_id for p in a.allocated] == [p.participant_id for p in b.allocated]
        assert all(x is y for x, y in zip(a.allocated, b.allocated))
        assert len(a.informed) == len(b.informed) == min(10, n_providers)
        assert all(x is y for x, y in zip(a.informed, b.informed))
        for name in ("consumer_intentions", "provider_intentions", "scores", "omegas"):
            left, right = getattr(a, name), getattr(b, name)
            assert left == right, name
            assert list(left) == list(right), f"{name}: key order"
        assert a.consult_messages == b.consult_messages == 2 * len(a.informed) + 2
        assert not hasattr(a, "metadata") and not hasattr(b, "metadata")
    assert with_columns.selector._stream._rng.getstate() == without.selector._stream._rng.getstate()


def test_hook_off_mediator_hands_select_fast_no_columns():
    sim, registry, consumer = _micro_system(20, seed=2)
    seen = []

    class SpyPolicy:
        """Records ctx.columns, then decides like the wrapped policy."""

        def __init__(self, inner):
            self.inner = inner

        def select_fast(self, query, candidates, ctx):
            seen.append(ctx.columns)
            return self.inner.select_fast(query, candidates, ctx)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    for kernel in (True, False):
        policy = SbQAPolicy(SbQAConfig(), RandomStream(1))
        mediator = _with_kernel(
            kernel, lambda: FastMediator(sim, consumer.network, registry, policy)
        )
        mediator._fast_select = SpyPolicy(policy).select_fast
        consumer.attach_mediator(mediator)
        mediator.mediate(Query(
            consumer=consumer, topic="c0", service_demand=5.0, n_results=2, issued_at=0.0,
        ))
        assert mediator._ctx.columns is None  # never left behind on the shared context
    assert isinstance(seen[0], ConsultColumns) and seen[1] is None
