"""The indexed registry's contract: indexed lookups == naive re-scans.

Three layers of evidence:

* **randomized churn**: providers (topic-restricted and unrestricted)
  join, leave, rejoin, crash and toggle ``online`` directly in a
  seeded random order; after *every* transition, ``capable_snapshot``
  must equal a naive re-scan over the membership map for every topic;
* **snapshot discipline**: the returned tuple is reused (same object)
  between transitions and replaced after one -- the property the
  hot-path per-snapshot caches key on;
* **determinism**: snapshot ordering is registration order, immune to
  ``PYTHONHASHSEED`` (asserted in subprocesses), and the cached
  aggregate sweeps match their pre-index formulations bit-for-bit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.des.network import Network
from repro.des.rng import RandomStream
from repro.des.scheduler import Simulator
from repro.system.consumer import Consumer
from repro.system.provider import Provider
from repro.system.query import Query
from repro.system.registry import REBUILD_EVERY, SystemRegistry

TOPICS = ("astro", "bio", "climate")


def naive_capable(registry: SystemRegistry, topic: str):
    """The pre-index definition of ``P_q``: a scan in insertion order."""
    return [
        p
        for p in registry._providers.values()
        if p.online and registry.can_serve(p, topic)
    ]


def build_population(sim, network, registry, n=16, restricted_every=2, seed=5):
    stream = RandomStream(seed)
    providers = []
    for i in range(n):
        provider = Provider(
            sim, network, participant_id=f"p{i:02d}", capacity=stream.uniform(0.5, 2)
        )
        if i % restricted_every == 1:
            k = 1 + i % len(TOPICS)
            registry.add_provider(provider, topics=stream.sample(list(TOPICS), k))
        else:
            registry.add_provider(provider)
        providers.append(provider)
    return providers


class TestChurnConsistency:
    def assert_matches_naive(self, registry):
        for topic in TOPICS + ("unheard-of",):
            assert list(registry.capable_snapshot(topic)) == naive_capable(
                registry, topic
            ), f"index diverged from re-scan for topic {topic!r}"
        assert registry.check_index_consistency()

    def test_randomized_churn(self, sim, network):
        registry = SystemRegistry()
        providers = build_population(sim, network, registry, n=16)
        stream = RandomStream(99)
        self.assert_matches_naive(registry)
        next_id = len(providers)
        for step in range(300):
            action = stream.choice(("leave", "rejoin", "crash", "toggle", "add"))
            if action == "add":
                provider = Provider(sim, network, participant_id=f"x{next_id:03d}")
                next_id += 1
                if stream.uniform() < 0.5:
                    registry.add_provider(
                        provider, topics=[stream.choice(TOPICS)]
                    )
                else:
                    registry.add_provider(provider)
                providers.append(provider)
            else:
                provider = stream.choice(providers)
                if action == "leave":
                    provider.leave()
                elif action == "rejoin":
                    provider.rejoin()
                elif action == "crash":
                    provider.crash()
                else:
                    provider.online = not provider.online
            self.assert_matches_naive(registry)

    def test_rebuild_is_a_noop_on_consistent_state(self, sim, network):
        registry = SystemRegistry()
        build_population(sim, network, registry)
        before = {t: list(registry.capable_snapshot(t)) for t in TOPICS}
        registry.rebuild_indexes()
        self.assert_matches_naive(registry)
        after = {t: list(registry.capable_snapshot(t)) for t in TOPICS}
        assert before == after

    def test_periodic_rebuild_triggers(self, sim, network):
        registry = SystemRegistry()
        providers = build_population(sim, network, registry, n=4)
        for _ in range(REBUILD_EVERY // 2 + 1):
            providers[0].online = not providers[0].online
        # Each toggle is one transition; after REBUILD_EVERY of them the
        # counter must have wrapped through a rebuild at least once.
        assert registry._transitions_since_rebuild < REBUILD_EVERY
        self.assert_matches_naive(registry)

    def test_capable_providers_list_compat(self, sim, network):
        registry = SystemRegistry()
        build_population(sim, network, registry)
        consumer = Consumer(sim, network, participant_id="c0")
        registry.add_consumer(consumer)
        query = Query(
            consumer=consumer,
            topic="astro",
            service_demand=1.0,
            n_results=1,
            issued_at=0.0,
        )
        listed = registry.capable_providers(query)
        assert isinstance(listed, list)
        assert listed == naive_capable(registry, "astro")


class TestSnapshotDiscipline:
    def test_snapshot_reused_between_transitions(self, sim, network):
        registry = SystemRegistry()
        providers = build_population(sim, network, registry)
        first = registry.capable_snapshot("astro")
        assert registry.capable_snapshot("astro") is first
        providers[0].leave()
        second = registry.capable_snapshot("astro")
        assert second is not first
        assert registry.capable_snapshot("astro") is second

    def test_online_snapshot_reused(self, sim, network):
        registry = SystemRegistry()
        providers = build_population(sim, network, registry)
        first = registry.online_providers_snapshot()
        assert registry.online_providers_snapshot() is first
        providers[2].crash()
        assert registry.online_providers_snapshot() is not first

    def test_unrestricted_population_uses_online_snapshot(self, sim, network):
        registry = SystemRegistry()
        for i in range(5):
            registry.add_provider(
                Provider(sim, network, participant_id=f"p{i}")
            )
        assert (
            registry.capable_snapshot("anything")
            is registry.online_providers_snapshot()
        )

    def test_membership_listing_tuples_cached(self, sim, network):
        registry = SystemRegistry()
        build_population(sim, network, registry)
        providers = registry.providers
        assert isinstance(providers, tuple)
        assert registry.providers is providers
        registry.add_provider(Provider(sim, network, participant_id="late"))
        refreshed = registry.providers
        assert refreshed is not providers
        assert refreshed[-1].participant_id == "late"

        consumer = Consumer(sim, network, participant_id="c0")
        registry.add_consumer(consumer)
        consumers = registry.consumers
        assert isinstance(consumers, tuple)
        assert registry.consumers is consumers

    def test_consumer_online_snapshot_tracks_transitions(self, sim, network):
        registry = SystemRegistry()
        a = Consumer(sim, network, participant_id="a")
        b = Consumer(sim, network, participant_id="b")
        registry.add_consumer(a)
        registry.add_consumer(b)
        assert [c.participant_id for c in registry.online_consumers()] == ["a", "b"]
        a.leave()
        assert [c.participant_id for c in registry.online_consumers()] == ["b"]
        a.rejoin()
        assert [c.participant_id for c in registry.online_consumers()] == ["a", "b"]


class TestAggregates:
    def test_total_capacity_tracks_transitions(self, sim, network):
        registry = SystemRegistry()
        a = Provider(sim, network, participant_id="a", capacity=2.0)
        b = Provider(sim, network, participant_id="b", capacity=3.0)
        registry.add_provider(a)
        registry.add_provider(b)
        assert registry.total_capacity() == 5.0
        assert registry.total_capacity() == 5.0  # cached probe
        b.leave()
        assert registry.total_capacity() == 2.0
        assert registry.total_capacity(online_only=False) == 5.0
        b.rejoin()
        assert registry.total_capacity() == 5.0

    def test_means_match_pre_index_formulation(self, sim, network):
        registry = SystemRegistry()
        stream = RandomStream(3)
        providers = build_population(sim, network, registry, n=12)
        for p in providers:
            for _ in range(5):
                p.record_proposal(stream.uniform(-1, 1), stream.uniform() < 0.5)
        providers[3].leave()
        online = [p for p in registry._providers.values() if p.online]
        expected = sum(p.satisfaction for p in online) / len(online)
        assert registry.mean_provider_satisfaction() == expected


#: Subprocess probe: capability sets are stored as Python sets, whose
#: iteration order depends on PYTHONHASHSEED -- snapshot ordering must
#: not (it is registration-ordinal order by construction).
_HASHSEED_SCRIPT = """
import json, sys
from repro.des.network import Network
from repro.des.rng import RandomStream
from repro.des.scheduler import Simulator
from repro.system.provider import Provider
from repro.system.registry import SystemRegistry

sim = Simulator()
network = Network(sim)
registry = SystemRegistry()
stream = RandomStream(11)
topics = ["astro", "bio", "climate", "geo"]
for i in range(40):
    p = Provider(sim, network, participant_id=f"p{i:02d}")
    if i % 3:
        registry.add_provider(p, topics=stream.sample(topics, 1 + i % 3))
    else:
        registry.add_provider(p)
for i in range(0, 40, 7):
    registry.provider(f"p{i:02d}").leave()
snapshots = {
    topic: [p.participant_id for p in registry.capable_snapshot(topic)]
    for topic in topics
}
registry.rebuild_indexes()
rebuilt = {
    topic: [p.participant_id for p in registry.capable_snapshot(topic)]
    for topic in topics
}
assert snapshots == rebuilt, "rebuild changed snapshot ordering"
json.dump(snapshots, sys.stdout, sort_keys=True)
"""


def _snapshot_order_with_hash_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_snapshot_order_immune_to_hash_seed():
    assert _snapshot_order_with_hash_seed("0") == _snapshot_order_with_hash_seed(
        "31337"
    )
