"""Baseline decisions held to test-local references.

Every built-in baseline states its decision once, as ``select_fast``
(``select`` only adds trace lines), so the decision is checked against
a reference written here from the public surface only -- ``bid``,
``debt``, ``available_capacity``, ``backlog_seconds`` and
``RandomStream.sample`` -- over randomized load, share and demand
states: same allocations, same informed set, same consult accounting.
"""

from __future__ import annotations

import pytest

from repro.allocation.factory import make_policy
from repro.core.policy import (
    AllocationContext,
    AllocationDecision,
    FastAllocationDecision,
    allocation_count,
)
from repro.des.network import Network
from repro.des.rng import RandomRoot, RandomStream
from repro.des.scheduler import Simulator
from repro.system.consumer import Consumer
from repro.system.provider import Provider
from repro.system.query import Query

BASELINES = (
    "capacity",
    "economic",
    "boinc-shares",
    "random",
    "round-robin",
    "shortest-queue",
)


@pytest.fixture
def population():
    sim = Simulator()
    network = Network(sim)
    stream = RandomStream(41)
    providers = [
        Provider(
            sim,
            network,
            participant_id=f"p{i:02d}",
            capacity=stream.uniform(0.5, 2.0),
            preferences={"c0": stream.uniform(-1.0, 1.0)},
            resource_shares={"c0": stream.uniform(0.0, 2.0), "other": 1.0},
        )
        for i in range(14)
    ]
    consumer = Consumer(
        sim,
        network,
        participant_id="c0",
        preferences={p.participant_id: stream.uniform(-1.0, 1.0) for p in providers},
    )
    return sim, providers, consumer


def assert_decisions_equal(a, b):
    assert [p.participant_id for p in a.allocated] == [
        p.participant_id for p in b.allocated
    ]
    assert [p.participant_id for p in a.informed] == [
        p.participant_id for p in b.informed
    ]
    assert a.consult_messages == b.consult_messages
    assert not hasattr(b, "metadata")
    assert a.scores == b.scores
    assert a.omegas == b.omegas


class Reference:
    """One baseline's decision rule, restated from public functions.

    Keeps its own state (round-robin cursor, boinc grants, random
    stream) so it evolves alongside the policy under test.
    """

    def __init__(self, name):
        self.name = name
        self.policy = make_policy(name, RandomRoot(77))  # stateless helpers
        self.stream = RandomRoot(77).stream("policy/random")
        self.cursor = 0
        self.granted = {}

    def decide(self, query, candidates, now):
        take = allocation_count(query, len(candidates))
        name = self.name
        if name == "capacity":
            ranked = sorted(
                candidates,
                key=lambda p: (-p.available_capacity, -p.capacity, p.participant_id),
            )
            return AllocationDecision(allocated=ranked[:take])
        if name == "shortest-queue":
            ranked = sorted(candidates, key=lambda p: (p.backlog_seconds, p.participant_id))
            return AllocationDecision(allocated=ranked[:take])
        if name == "random":
            return AllocationDecision(allocated=self.stream.sample(list(candidates), take))
        if name == "round-robin":
            ordered = sorted(candidates, key=lambda p: p.participant_id)
            allocated = [ordered[(self.cursor + i) % len(ordered)] for i in range(take)]
            self.cursor = (self.cursor + take) % len(ordered)
            return AllocationDecision(allocated=allocated)
        if name == "economic":
            bids = {p.participant_id: self.policy.bid(p, query) for p in candidates}
            ranked = sorted(candidates, key=lambda p: (bids[p.participant_id], p.participant_id))
            return AllocationDecision(
                allocated=ranked[:take],
                informed=list(candidates),
                consult_messages=2 * len(candidates),
            )
        assert name == "boinc-shares"
        # self.policy never grants, so its debt() is the entitlement;
        # the grants are tracked here.
        consumer_id = query.consumer_id
        willing = []
        for p in candidates:
            debt = self.policy.debt(p, consumer_id, now)
            if debt == float("-inf"):
                continue
            debt -= self.granted.get(p.participant_id, 0.0)
            if debt + self.policy.overdraft * p.capacity < query.service_demand:
                continue
            willing.append((-debt, p.participant_id, p))
        willing.sort(key=lambda row: row[:2])
        allocated = [row[2] for row in willing[: allocation_count(query, len(willing))]]
        for p in allocated:
            self.granted[p.participant_id] = (
                self.granted.get(p.participant_id, 0.0) + query.service_demand
            )
        return AllocationDecision(allocated=allocated)


@pytest.mark.parametrize("policy_name", BASELINES)
def test_select_fast_matches_select(policy_name, population):
    """``select_fast`` (which ``select`` returns) against the
    reference restatement of each rule."""
    sim, providers, consumer = population
    policy = make_policy(policy_name, RandomRoot(77))
    reference = Reference(policy_name)
    jitter = RandomStream(5)
    failures = 0
    for round_index in range(40):
        # Advance the clock and randomize backlogs so utilization,
        # bids, debts and queue depths all vary between rounds.
        sim.run_until(sim.now + jitter.uniform(1.0, 30.0))
        for p in providers:
            p._busy_until = sim.now + jitter.uniform(-20.0, 120.0)
        query = Query(
            consumer=consumer,
            topic="c0",
            service_demand=jitter.uniform(0.5, 25.0),
            n_results=1 + round_index % 3,
            issued_at=sim.now,
        )
        ctx = AllocationContext(now=sim.now)
        a = reference.decide(query, providers, sim.now)
        b = policy.select_fast(query, tuple(providers), ctx)
        assert isinstance(b, FastAllocationDecision)
        assert_decisions_equal(a, b)
        failures += a.is_failure
    assert failures < 40  # the states exercise real allocations


def test_round_robin_snapshot_cache_tracks_new_snapshots(population):
    """The id-sort cache keys on snapshot identity: a different tuple
    (e.g. after churn) must re-sort, not reuse the stale order."""
    sim, providers, consumer = population
    policy = make_policy("round-robin", RandomRoot(1))
    ctx = AllocationContext(now=0.0)

    def query():
        return Query(
            consumer=consumer,
            topic="c0",
            service_demand=1.0,
            n_results=1,
            issued_at=0.0,
        )

    full = tuple(providers)
    first = policy.select_fast(query(), full, ctx)
    shrunk = tuple(providers[5:])
    second = policy.select_fast(query(), shrunk, ctx)
    assert second.allocated[0] in providers[5:]


def test_default_select_fast_delegates_to_select(population):
    """A third-party policy may write either method: the base class
    delegates each to the other, so both answer on both engines."""
    from repro.core.policy import AllocationPolicy

    class SelectOnly(AllocationPolicy):
        name = "select-only"

        def select(self, query, candidates, ctx):
            return AllocationDecision(allocated=[candidates[0]])

    class SelectFastOnly(AllocationPolicy):
        name = "select-fast-only"

        def select_fast(self, query, candidates, ctx):
            return FastAllocationDecision(allocated=[candidates[0]])

    sim, providers, consumer = population
    ctx = AllocationContext(now=0.0)
    query = Query(
        consumer=consumer,
        topic="c0",
        service_demand=1.0,
        n_results=1,
        issued_at=0.0,
    )
    for policy in (SelectOnly(), SelectFastOnly()):
        assert policy.select_fast(query, tuple(providers), ctx).allocated == [providers[0]]
        assert policy.select(query, tuple(providers), ctx).allocated == [providers[0]]
