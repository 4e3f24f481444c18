"""The allocation-record lifecycle: an unkept record keeps what delivery reads.

Every record of every engine and commit route passes through
``Mediator._store``.  With ``keep_records=False`` it drops the record's
decision state there -- the informed list, the four intention / score /
omega maps and the fast engine's rows -- right after the metrics hub
has seen it, while the query is still in flight.  What delivery,
completion and the hub read stays readable; a dropped field raises an
``AttributeError`` naming ``keep_records`` instead of reading as empty.
Cases cover each route a record can take into ``_store``: the fused
kernel, the random-latency column route, rows built from a baseline's
decision, the object commit (event engine, and a subclassed intention
model on the fast engine), ``_fail`` and a forwarding K=2 federation.
"""

import gc

import pytest

from repro.allocation.factory import make_policy
from repro.core.engine import make_mediator
from repro.core.mediator import Mediator
from repro.core.soa import DecidedAllocationRecord, LazyAllocationRecord, RowsAllocationRecord
from repro.des.rng import RandomRoot
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import wire_run
from repro.federation import FederationConfig
from repro.system.query import AllocationRecord, Query
from repro.workloads.boinc import BoincScenarioParams

HORIZON = 100.0
LATENCIES = {"constant": (0.05, 0.05), "random": (0.02, 0.08)}

#: What delivery, completion and the metrics hub read of a record.
DELIVERY_FIELDS = ("query", "allocated", "adequation", "consultation_delay", "results", "completed_at")

#: Everything an unkept record may still hold in its ``__dict__``.
RETAINED = frozenset(DELIVERY_FIELDS + ("decided_at",))


def _config(engine="fast", latency="constant", keep_records=False, **overrides):
    low, high = LATENCIES[latency]
    return ExperimentConfig(
        name="lifecycle",
        seed=11,
        duration=HORIZON,
        population=BoincScenarioParams(n_providers=40),
        engine=engine,
        latency_low=low,
        latency_high=high,
        keep_records=keep_records,
        **overrides,
    )


@pytest.fixture
def stored(monkeypatch):
    """Every record handed to ``Mediator._store``, in store order."""
    seen = []
    original = Mediator._store

    def capture(self, record):
        original(self, record)
        seen.append(record)

    monkeypatch.setattr(Mediator, "_store", capture)
    return seen


def _assert_dropped(record):
    for name in DELIVERY_FIELDS:
        getattr(record, name)
    assert record.allocated_ids == [p.participant_id for p in record.allocated]
    assert set(vars(record)) <= RETAINED
    for name in type(record)._DECISION_STATE:
        with pytest.raises(AttributeError, match="keep_records"):
            getattr(record, name)


def _run(config, policy="sbqa", drive=None):
    live = wire_run(config, PolicySpec(name=policy))
    if drive is not None:
        drive(live)
    live.step_until(HORIZON)
    return live


ROUTES = {
    # name: (engine, latency, policy, record type, fast-engine counts)
    "fused": ("fast", "constant", "sbqa", LazyAllocationRecord, ("fused", "rows")),
    "columns": ("fast", "random", "sbqa", DecidedAllocationRecord, ("columns", "rows")),
    "economic-rows": ("fast", "random", "economic", RowsAllocationRecord, ("scalar", "rows")),
    "capacity-rows": ("fast", "constant", "capacity", RowsAllocationRecord, ("scalar", "rows")),
    "event-objects": ("event", "random", "sbqa", AllocationRecord, None),
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_an_unkept_record_drops_its_decision_state_at_store(route, stored):
    engine, latency, policy, record_type, counts = ROUTES[route]
    live = _run(_config(engine, latency), policy)
    mediator = live.mediator
    if counts is not None:
        decided_on, committed_on = counts
        assert mediator.route_counts[decided_on] == mediator.commit_counts[committed_on] > 0
    allocated = [r for r in stored if r.allocated]
    assert allocated and all(type(r) is record_type for r in allocated)
    assert mediator.records == []
    for record in stored:
        _assert_dropped(record)


def test_a_subclassed_intention_model_commits_on_objects_and_drops_too(stored):
    def drive(live):
        odd = live.population.providers[3]
        model = odd.intention_model
        custom = type("CustomIntentions", (type(model),), {})  # same arithmetic, not the exact type
        odd.intention_model = custom.__new__(custom)
        odd.intention_model.__dict__.update(model.__dict__)

    live = _run(_config("fast", "random"), "economic", drive)
    assert live.mediator.commit_counts["objects"] > 0
    assert any(type(r) is AllocationRecord and r.allocated for r in stored)
    for record in stored:
        _assert_dropped(record)


@pytest.mark.parametrize("engine", ["fast", "event"])
def test_a_failed_mediation_drops_too(engine, factory, stored):
    consumer = factory.consumer("c0")  # no provider: P_q is empty
    mediator = make_mediator(
        engine, factory.sim, factory.network, factory.registry, make_policy("sbqa", RandomRoot(3)),
        keep_records=False,
    )
    query = Query(consumer=consumer, topic="c0", service_demand=1.0, n_results=1, issued_at=0.0)
    record = mediator.mediate(query)
    assert mediator.failures == 1 and stored == [record]
    assert record.is_failure and record.adequation == 0.0
    _assert_dropped(record)


@pytest.mark.parametrize("engine", ["fast", "event"])
def test_a_forwarding_federation_drops_too(engine, stored):
    config = _config(engine, federation=FederationConfig(shards=2, forward_threshold=1000))
    live = _run(config, "sbqa")
    assert live.mediator.forwarded > 0
    assert any(r.allocated for r in stored)
    for record in stored:
        _assert_dropped(record)


@pytest.mark.parametrize("route", ["fused", "columns", "economic-rows", "event-objects"])
def test_a_kept_record_keeps_everything(route, stored):
    engine, latency, policy, _, _ = ROUTES[route]
    live = _run(_config(engine, latency, keep_records=True), policy)
    assert live.mediator.records == stored
    for record in stored:
        assert set(record.informed_ids) >= set(record.allocated_ids)
        assert list(record.provider_intentions) == record.informed_ids
        assert set(record.consumer_intentions) >= set(record.allocated_ids)
        assert isinstance(record.scores, dict) and isinstance(record.omegas, dict)


@pytest.mark.parametrize("latency", list(LATENCIES))
@pytest.mark.parametrize("engine", ["fast", "event"])
def test_in_flight_records_hold_no_rows_or_maps(engine, latency):
    gc.collect()
    live = _run(_config(engine, latency))
    consumers = set(map(id, live.population.consumers))
    in_flight = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, AllocationRecord)
        and id(obj.query.consumer) in consumers
        and obj.allocated
        and obj.completed_at is None
    ]
    assert in_flight
    for record in in_flight:
        assert set(vars(record)) <= RETAINED, sorted(vars(record))
        assert not any(isinstance(value, dict) for value in vars(record).values())


def test_the_dropped_error_names_the_field_and_the_switch():
    record = AllocationRecord(query=None, decided_at=0.0)
    record.drop_decision_state()
    with pytest.raises(AttributeError, match=r"AllocationRecord\.omegas .*keep_records=True"):
        record.omegas
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        record.nonsense
    assert not hasattr(record, "informed")
