"""Sharded multi-mediator federation.

One mediator owning the whole provider population is the scaling
ceiling: every mediation walks one registry and one scheduler.  The
federation splits the population across ``K`` shard mediators (the
:class:`~repro.federation.ring.ShardMap` decides who owns whom), routes
each query to its topic's home shard in O(1), and *forwards*
cross-shard only when the home shard's capable pool is thinner than the
policy needs -- the ADQUEX-style lift of an adaptive allocator into a
sharded topology.

Invariants
----------
1. **K=1 is the identity.**  With one shard, shard 0's registry holds
   every provider in global registration order, shard 0's policy is
   built from the *unprefixed* random root, every query routes to shard
   0, and forwarding never triggers -- so the run is bit-identical
   (same digests) to the unsharded mediator.  Asserted per scenario
   preset by ``tests/federation/test_parity.py``.
2. **Routing and forwarding are hash-seed independent.**  The ring
   hashes with sha1; merged candidate lists concatenate the home
   shard's snapshot with the peer snapshots in ascending shard-ordinal
   order; every per-shard snapshot is in that shard's registration
   order.  No step consults the builtin ``hash``.
3. **Forwarding cost is one extra consultation hop.**  A forwarded
   mediation consults the contributing peer shards (one request/reply
   pair each, counted in ``coordination_messages``); for consulting
   policies the hop extends the consultation delay by the worst peer
   round-trip (``2c`` under a constant latency model -- the same
   analytic collapse the mediator uses for the consultation itself).
   Non-consulting policies pay the messages but no delay, mirroring
   how the base mediator charges consultation.
4. **The global mediation order is preserved.**  All shard mediators
   append to one shared ``records`` list and report to one observer,
   so downstream analysis sees the same stream a single mediator would
   produce.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import FastMediator, resolve_engine
from repro.core.mediator import Mediator
from repro.core.policy import AllocationContext
from repro.des.entity import Entity
from repro.des.network import Message
from repro.des.tracing import NULL_RECORDER, TraceRecorder
from repro.federation.config import FederationConfig
from repro.federation.ring import ShardMap
from repro.system.registry import SystemRegistry


class _PrefixedRoot:
    """A :class:`~repro.des.rng.RandomRoot` view with a name prefix.

    Shard 0 uses the replication root itself (the K=1 parity
    requirement: identical stream names, identical draws); every other
    shard derives its policy streams under ``federation/shard<i>/`` so
    shards never share a sequence.
    """

    __slots__ = ("_root", "_prefix")

    def __init__(self, root, prefix: str) -> None:
        self._root = root
        self._prefix = prefix

    @property
    def seed(self) -> int:
        return self._root.seed

    def stream(self, name: str):
        return self._root.stream(self._prefix + name)

    def streams(self, names):
        return [self.stream(name) for name in names]

    def __repr__(self) -> str:
        return f"_PrefixedRoot({self._root!r}, prefix={self._prefix!r})"


class _ShardForwarding:
    """Mixin adding the cross-shard forwarding decision to a mediator.

    Mixed in *before* the engine's mediator class, so ``mediate`` sees
    every query first: if the federation is sharded and the home shard's
    capable pool is below the forward threshold, the mediation runs over
    the merged home+peer candidate pool; otherwise the engine's own
    (possibly fused) path runs untouched.
    """

    def __init__(
        self, *args, shard_ordinal: int = 0, federation: "Federation" = None, **kwargs
    ) -> None:
        kwargs.setdefault("name", f"mediator/shard{shard_ordinal}")
        super().__init__(*args, **kwargs)
        self.shard_ordinal = shard_ordinal
        self._federation = federation
        self._forwarding: Optional[Tuple[Sequence, Tuple[int, ...]]] = None
        self._forward_threshold_static = None
        #: Forwarded-mediation count for this shard (serve /metrics
        #: surfaces it per shard so dashboards can show imbalance).
        self.forwarded = 0

    def mediate(self, query):
        federation = self._federation
        if federation is not None and federation.forwarding_active:
            topic = query.topic
            local = self.registry.capable_snapshot(topic)
            if len(local) < federation.forward_threshold_for(self, query):
                merged, peers = federation.merged_candidates(self.shard_ordinal, topic)
                if peers:
                    guard = federation.foreign_guard
                    if guard is not None:
                        guard(self.shard_ordinal, peers)
                    return self._mediate_forwarded(query, merged, peers)
        return super().mediate(query)

    def _mediate_forwarded(self, query, merged, peers):
        """One mediation over the merged home+peer candidate pool."""
        self.mediations += 1
        self.forwarded += 1
        # One candidate request/reply pair per contributing peer shard.
        self.coordination_messages += 2 * len(peers)
        decision = self.policy.select_fast(query, merged, AllocationContext(now=self.now))
        # _consultation_delay (called from the commit's _send for
        # consulting policies) adds the forward hop to the peers; the trace shows
        # the merged pool.
        self._forwarding = (merged, peers)
        try:
            if not decision.allocated:
                return self._fail(query)
            return self._commit(query, merged, decision)
        finally:
            self._forwarding = None

    def _consultation_delay(self, consumer, record) -> float:
        delay = super()._consultation_delay(consumer, record)
        if self._forwarding is not None:
            delay += self._forward_hop(self._forwarding[1])
        return delay

    def _pool_size(self, query) -> int:
        forwarding = self._forwarding
        return super()._pool_size(query) if forwarding is None else len(forwarding[0])

    def _forward_hop(self, peers: Sequence[int]) -> float:
        """The extra consultation hop of one forwarded mediation.

        Parallel round-trips to the contributing peer mediators; the
        slowest pair gates, exactly like provider consultation.  Under
        a deterministic pair-independent latency model the hop is ``2c``
        analytically (no draws); otherwise the draws happen in shard-
        ordinal order -- ``peers`` is ascending by construction -- so
        the stream consumption is deterministic.
        """
        c = self._constant_one_way
        if c is not None:
            return c + c
        latency = self.network.latency
        mediators = self._federation.mediators
        worst = 0.0
        for ordinal in peers:
            peer = mediators[ordinal]
            rtt = latency.delay(self, peer) + latency.delay(peer, self)
            if rtt > worst:
                worst = rtt
        return worst


class ShardMediator(_ShardForwarding, FastMediator):
    """One federation shard on the fast engine."""


class EventShardMediator(_ShardForwarding, Mediator):
    """One federation shard on the event-faithful engine."""


class Federation:
    """The shard topology: map, per-shard registries, shard mediators.

    Owns no simulation behaviour of its own -- it answers the two
    routing questions (*which shard owns this topic*, *what is the
    merged candidate pool for a forwarded query*) and aggregates the
    shard mediators' counters for reporting.
    """

    def __init__(self, config: FederationConfig, shard_map: ShardMap) -> None:
        self.config = config
        self.shard_map = shard_map
        self.registries: List[SystemRegistry] = []
        self.mediators: List[Mediator] = []
        self._route_memo: Dict[str, Mediator] = {}
        # (home, topic) -> (per-shard registry versions, merged, peers)
        self._merge_cache: Dict[Tuple[int, str], tuple] = {}
        #: Optional hook ``guard(home_ordinal, peer_ordinals)`` called
        #: before every forwarded mediation.  The parallel runner
        #: installs one per worker to detect cross-worker forwarding
        #: (which a slice cannot serve) and abort to the serial path.
        self.foreign_guard: Optional[Callable[[int, Tuple[int, ...]], None]] = None

    @property
    def shards(self) -> int:
        return self.config.shards

    @property
    def forwarding_active(self) -> bool:
        """Forwarding only exists with more than one shard (K=1 parity)."""
        return self.config.shards > 1

    def route(self, topic: str) -> Mediator:
        """Home shard mediator of ``topic`` -- one dict probe after warmup."""
        mediator = self._route_memo.get(topic)
        if mediator is None:
            mediator = self.mediators[self.shard_map.shard_of_topic(topic)]
            self._route_memo[topic] = mediator
        return mediator

    def forward_threshold_for(self, mediator: Mediator, query) -> int:
        """Capable-pool size below which the home shard forwards.

        The configured threshold when set; otherwise the policy's
        KnBest ``kn`` (the pool the selection actually needs), falling
        back to the query's replica count for selector-less policies.
        The config/policy part is fixed for a given config object, so
        it is resolved once per mediator and cached (this runs on every
        mediation of every shard).
        """
        cached = mediator._forward_threshold_static
        if cached is None or cached[0] is not self.config:
            threshold = self.config.forward_threshold
            if threshold is None:
                selector = getattr(mediator.policy, "selector", None)
                threshold = getattr(selector, "kn", None)
            cached = (self.config, threshold)
            mediator._forward_threshold_static = cached
        static = cached[1]
        if static is not None:
            return static
        return query.n_results

    def merged_candidates(self, home: int, topic: str) -> Tuple[tuple, Tuple[int, ...]]:
        """The forwarded candidate pool of ``topic`` seen from ``home``.

        Home shard's snapshot first (local providers keep their usual
        sample ordinals), then each contributing peer's snapshot in
        ascending shard-ordinal order.  ``peers`` lists the contributing
        ordinals (ascending).  Cached per ``(home, topic)`` against the
        tuple of peer registry *versions*: any membership or
        online-state transition on any shard bumps that shard's version
        and invalidates the pool, so mid-run churn can never serve a
        stale merged pool.  Between transitions a forwarded mediation
        pays one dict probe and a K-tuple compare -- no snapshot
        fetches at all.
        """
        versions = tuple(r.version for r in self.registries)
        key = (home, topic)
        cached = self._merge_cache.get(key)
        if cached is not None and cached[0] == versions:
            return cached[1], cached[2]
        snapshots = tuple(r.capable_snapshot(topic) for r in self.registries)
        pool = list(snapshots[home])
        peers: List[int] = []
        for ordinal, snapshot in enumerate(snapshots):
            if ordinal == home or not snapshot:
                continue
            peers.append(ordinal)
            pool.extend(snapshot)
        merged = tuple(pool)
        peers_t = tuple(peers)
        self._merge_cache[key] = (versions, merged, peers_t)
        return merged, peers_t

    def __repr__(self) -> str:
        return f"Federation(shards={self.shards}, partition={self.config.partition!r})"


def sum_tallies(tallies) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for tally in tallies:
        for key, count in tally.items():
            total[key] = total.get(key, 0) + count
    return total


class FederatedMediator(Entity):
    """The consumer-facing front of a federation.

    Consumers attach to this entity exactly as they would to a single
    mediator; each query is routed to its topic's home shard in O(1).
    The aggregate counters (``mediations``, ``failures``,
    ``coordination_messages``) and the shared ``records`` list make the
    facade a drop-in for everything downstream (metrics, summaries,
    reports).
    """

    #: Fast-engine direct delivery (see Entity.FAST_HANDLERS).
    FAST_HANDLERS = {"query": "mediate"}

    def __init__(
        self,
        sim,
        network,
        registry: SystemRegistry,
        federation: Federation,
        name: str = "mediator/federated",
    ) -> None:
        super().__init__(sim, name=name)
        self.network = network
        #: The *global* registry (all shards); reports and metric
        #: samplers read population-wide state through this.
        self.registry = registry
        self.federation = federation
        #: Shared across every shard mediator, so appends interleave in
        #: global mediation order.
        self.records = federation.mediators[0].records

    def receive(self, message: Message) -> None:
        if message.kind != "query":
            raise ValueError(f"mediator got unexpected message {message.kind!r}")
        self.mediate(message.payload)

    def mediate(self, query):
        """Route one query to its home shard and mediate there."""
        return self.federation.route(query.topic).mediate(query)

    # -- aggregate counters (summary/report compatibility) --------------

    @property
    def policy(self):
        """The shard policies are clones; expose shard 0's for display."""
        return self.federation.mediators[0].policy

    @property
    def mediations(self) -> int:
        return sum(m.mediations for m in self.federation.mediators)

    @property
    def failures(self) -> int:
        return sum(m.failures for m in self.federation.mediators)

    @property
    def coordination_messages(self) -> int:
        return sum(m.coordination_messages for m in self.federation.mediators)

    @property
    def forwarded(self) -> int:
        return sum(m.forwarded for m in self.federation.mediators)

    @property
    def route_counts(self) -> Dict[str, int]:
        """Route counts summed over the shards."""
        return sum_tallies(m.route_counts for m in self.federation.mediators)

    @property
    def scalar_reasons(self) -> Dict[str, int]:
        return sum_tallies(m.scalar_reasons for m in self.federation.mediators)

    @property
    def commit_counts(self) -> Dict[str, int]:
        return sum_tallies(m.commit_counts for m in self.federation.mediators)

    def __repr__(self) -> str:
        return (
            f"FederatedMediator(shards={self.federation.shards}, "
            f"mediations={self.mediations}, failures={self.failures})"
        )


def build_federation(
    engine: str,
    sim,
    network,
    registry: SystemRegistry,
    config: FederationConfig,
    policy_factory: Callable[[object], object],
    root,
    observer=None,
    trace: TraceRecorder = NULL_RECORDER,
    adequation_over_candidates: bool = False,
    keep_records: bool = True,
) -> FederatedMediator:
    """Assemble a federation over an already-populated global registry.

    ``policy_factory(shard_root)`` must build one fresh policy from the
    given random root; shard 0 receives ``root`` itself (K=1 parity),
    shard ``i>0`` a ``federation/shard<i>/``-prefixed view.  Providers
    keep their global registration (metrics and summaries read the
    global registry); each also joins its home shard's registry, whose
    transition hooks keep the shard snapshots current through churn.
    """
    shard_map = ShardMap(config)
    federation = Federation(config, shard_map)

    capabilities = registry._capabilities
    shard_registries = [SystemRegistry() for _ in range(config.shards)]
    for pid, provider in registry._providers.items():
        topics = capabilities.get(pid)
        home = shard_map.shard_of_provider(pid, topics)
        shard_registries[home].add_provider(provider, topics=topics)
    federation.registries = shard_registries

    engine_key = resolve_engine(engine)
    mediator_cls = ShardMediator if engine_key == "fast" else EventShardMediator
    for ordinal in range(config.shards):
        shard_root = (
            root if ordinal == 0 else _PrefixedRoot(root, f"federation/shard{ordinal}/")
        )
        mediator = mediator_cls(
            sim,
            network,
            shard_registries[ordinal],
            policy_factory(shard_root),
            observer=observer,
            trace=trace,
            adequation_over_candidates=adequation_over_candidates,
            keep_records=keep_records,
            shard_ordinal=ordinal,
            federation=federation,
        )
        federation.mediators.append(mediator)

    # One records list, appended to in global mediation order.
    shared_records = federation.mediators[0].records
    for mediator in federation.mediators[1:]:
        mediator.records = shared_records

    return FederatedMediator(sim, network, registry, federation)
