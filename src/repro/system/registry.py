"""Membership and capability lookup.

The registry answers the first question of every mediation: *which
providers are able to perform this query* -- the set ``P_q`` of the
paper.  A provider is capable when it is online and either serves all
topics (the default; every BOINC volunteer attaches to all projects in
the demo scenario) or lists the query's topic among its capabilities.

Because that question is asked once per mediation, the registry keeps
**incremental indexes** so answering it costs ``O(|P_q|)`` instead of a
scan over every registered provider:

* a **per-topic capability index**: registered topic-restricted
  providers, grouped by topic, each entry carrying its registration
  ordinal so merged listings preserve registration order;
* an **unrestricted index**: registered providers that serve every
  topic (the common BOINC case), in registration order;
* **snapshot caches**: :meth:`capable_snapshot` returns a reusable
  tuple per topic, rebuilt lazily only after a membership or
  online-state transition.

The indexes stay current through a *registry-notification hook*:
:meth:`add_provider` subscribes the registry to the provider's
online-state transitions (``leave`` / ``rejoin`` / ``crash`` or a
direct ``provider.online = ...`` assignment), so a transition merely
bumps a version counter and the next lookup rebuilds the affected
snapshot.  Index membership itself only changes on ``add_provider``
(append-only, so registration order -- the order every pre-index
listing exposed, and the order the seeded KnBest sample depends on --
is preserved by construction).  As a defence in depth, a periodic
consistency rebuild re-derives the indexes from the authoritative
membership maps every :data:`REBUILD_EVERY` transitions, mirroring the
periodic window rebuilds of :mod:`repro.core.satisfaction`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.consumer import Consumer
    from repro.system.provider import Provider
    from repro.system.query import Query

#: Online-state transitions between full defensive re-derivations of the
#: capability indexes (the satisfaction windows use the same pattern:
#: incremental bookkeeping, periodically rebuilt from authority).
REBUILD_EVERY = 4096

#: Cross-run memo of id-sorted rank columns, keyed by the pids tuple.
#: Replications of one sweep point register identical provider ids in
#: identical order, so every run after the first reuses the sorted rank
#: permutation instead of re-deriving it per snapshot.  Entries are
#: read-only once stored.
_RANKS_MEMO: Dict[Tuple[str, ...], List[int]] = {}
_RANKS_MEMO_LIMIT = 64


def _ranks_for(pids: Tuple[str, ...]) -> List[int]:
    """``ranks[s]`` = position of ``pids[s]`` in the id-sorted order.

    Within one snapshot integer ranks compare exactly like the id
    strings (ids are unique), which is what lets ordinal-space kernels
    break ties on ints; see
    :meth:`repro.core.knbest.KnBestSelector.sample_working_ordinals`.
    """
    ranks = _RANKS_MEMO.get(pids)
    if ranks is None:
        order = sorted(range(len(pids)), key=pids.__getitem__)
        ranks = [0] * len(pids)
        for rank, slot in enumerate(order):
            ranks[slot] = rank
        if len(_RANKS_MEMO) >= _RANKS_MEMO_LIMIT:
            _RANKS_MEMO.clear()
        _RANKS_MEMO[pids] = ranks
    return ranks


class SnapshotMeta:
    """Ordinal metadata of one capability snapshot.

    Shared by every consumer consulting the same snapshot (the fused
    kernel's :class:`~repro.core.soa.ConsultColumns` borrow these
    rather than rebuilding them per consumer):

    * ``pids[s]`` -- participant id of snapshot slot ``s``;
    * ``slot_of[pid]`` -- inverse map;
    * ``ranks[s]`` -- position of ``pids[s]`` in id-sorted order.

    Like the snapshot tuple itself, a meta object is immutable once
    built and its validity is checked by snapshot *identity*.
    """

    __slots__ = ("snapshot", "pids", "slot_of", "ranks")

    def __init__(self, snapshot) -> None:
        self.snapshot = snapshot
        self.pids = [p.participant_id for p in snapshot]
        self.slot_of = {pid: s for s, pid in enumerate(self.pids)}
        self.ranks = _ranks_for(tuple(self.pids))


class SystemRegistry:
    """Tracks consumers, providers and topic capabilities."""

    def __init__(self) -> None:
        self._consumers: Dict[str, "Consumer"] = {}
        self._providers: Dict[str, "Provider"] = {}
        self._capabilities: Dict[str, Set[str]] = {}

        # -- incremental capability indexes (registration order) --------
        # Entries are (ordinal, provider); ordinals are the registration
        # sequence, so merging two index lists by ordinal reproduces the
        # order a scan over ``_providers`` would yield.
        self._unrestricted: List[Tuple[int, "Provider"]] = []
        self._topic_members: Dict[str, List[Tuple[int, "Provider"]]] = {}

        # -- snapshot caches, invalidated by version counters -----------
        # ``_provider_version`` advances on provider membership changes
        # and online-state transitions; ``_consumer_version`` likewise
        # for consumers.  Caches remember the version they were built at.
        self._provider_version = 0
        self._consumer_version = 0
        self._online_providers_cache: Tuple[int, Tuple["Provider", ...]] = (-1, ())
        self._online_consumers_cache: Tuple[int, Tuple["Consumer", ...]] = (-1, ())
        self._capable_cache: Dict[str, Tuple[int, Tuple["Provider", ...]]] = {}
        self._providers_cache: Optional[Tuple["Provider", ...]] = None
        self._consumers_cache: Optional[Tuple["Consumer", ...]] = None
        self._capacity_cache: Dict[bool, Tuple[int, float]] = {}
        self._snapshot_meta_cache: Dict[str, SnapshotMeta] = {}
        self._transitions_since_rebuild = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_consumer(self, consumer: "Consumer") -> None:
        if consumer.participant_id in self._consumers:
            raise ValueError(f"duplicate consumer id {consumer.participant_id!r}")
        self._consumers[consumer.participant_id] = consumer
        consumer.add_registry_hook(self._on_consumer_transition)
        self._consumers_cache = None
        self._consumer_version += 1

    def add_provider(
        self, provider: "Provider", topics: Optional[Iterable[str]] = None
    ) -> None:
        """Register a provider, optionally restricted to some topics.

        ``topics=None`` (the default) means the provider can perform
        queries of any topic.
        """
        if provider.participant_id in self._providers:
            raise ValueError(f"duplicate provider id {provider.participant_id!r}")
        ordinal = len(self._providers)
        self._providers[provider.participant_id] = provider
        if topics is not None:
            topic_set = set(topics)
            self._capabilities[provider.participant_id] = topic_set
            entry = (ordinal, provider)
            for topic in topic_set:
                self._topic_members.setdefault(topic, []).append(entry)
        else:
            self._unrestricted.append((ordinal, provider))
        provider.add_registry_hook(self._on_provider_transition)
        self._providers_cache = None
        self._provider_version += 1

    def consumer(self, participant_id: str) -> "Consumer":
        return self._consumers[participant_id]

    def provider(self, participant_id: str) -> "Provider":
        return self._providers[participant_id]

    @property
    def version(self) -> int:
        """Provider-membership/online-state version counter.

        Advances on every provider registration and online-state
        transition.  External caches over this registry's provider
        population (e.g. the federation's merged candidate pools) key
        their validity on it instead of re-fetching snapshots per call.
        """
        return self._provider_version

    @property
    def consumers(self) -> Tuple["Consumer", ...]:
        """All registered consumers, in insertion order (cached tuple)."""
        cache = self._consumers_cache
        if cache is None:
            cache = tuple(self._consumers.values())
            self._consumers_cache = cache
        return cache

    @property
    def providers(self) -> Tuple["Provider", ...]:
        """All registered providers, in insertion order (cached tuple).

        Metric collectors read this every sample; returning the cached
        tuple (invalidated only by ``add_provider``) avoids a fresh
        list per access.
        """
        cache = self._providers_cache
        if cache is None:
            cache = tuple(self._providers.values())
            self._providers_cache = cache
        return cache

    def online_consumers(self) -> List["Consumer"]:
        return list(self.online_consumers_snapshot())

    def online_providers(self) -> List["Provider"]:
        return list(self.online_providers_snapshot())

    def online_providers_snapshot(self) -> Tuple["Provider", ...]:
        """Online providers in registration order, as a reusable tuple.

        Rebuilt lazily after a membership/online transition; stable (the
        *same* object) between transitions, so hot-path consumers may
        key per-snapshot caches on its identity.
        """
        version, snapshot = self._online_providers_cache
        if version != self._provider_version:
            snapshot = tuple(p for p in self._providers.values() if p.online)
            self._online_providers_cache = (self._provider_version, snapshot)
        return snapshot

    def online_consumers_snapshot(self) -> Tuple["Consumer", ...]:
        """Online consumers in registration order, as a reusable tuple."""
        version, snapshot = self._online_consumers_cache
        if version != self._consumer_version:
            snapshot = tuple(c for c in self._consumers.values() if c.online)
            self._online_consumers_cache = (self._consumer_version, snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # Registry-notification hooks (membership/online transitions)
    # ------------------------------------------------------------------

    def _on_provider_transition(self, provider: "Provider") -> None:
        self._provider_version += 1
        self._transitions_since_rebuild += 1
        if self._transitions_since_rebuild >= REBUILD_EVERY:
            self.rebuild_indexes()

    def _on_consumer_transition(self, consumer: "Consumer") -> None:
        self._consumer_version += 1

    def rebuild_indexes(self) -> None:
        """Re-derive every index from the authoritative membership maps.

        The incremental indexes are append-only and therefore correct by
        construction; this defensive rebuild (periodic, like the
        satisfaction windows' exact re-summation) re-derives them from
        ``_providers`` / ``_capabilities`` so that even out-of-band
        mutation of the capability sets cannot leave a stale index
        behind indefinitely.  Also drops every snapshot cache.
        """
        self._unrestricted = []
        self._topic_members = {}
        for ordinal, (pid, provider) in enumerate(self._providers.items()):
            topics = self._capabilities.get(pid)
            if topics is None:
                self._unrestricted.append((ordinal, provider))
            else:
                entry = (ordinal, provider)
                for topic in topics:
                    self._topic_members.setdefault(topic, []).append(entry)
        self._capable_cache.clear()
        self._capacity_cache.clear()
        self._providers_cache = None
        self._provider_version += 1
        self._transitions_since_rebuild = 0

    def check_index_consistency(self) -> bool:
        """True when every index and cache matches a naive re-derivation.

        Verifies (tests call this after every churn transition):

        * the per-topic and unrestricted capability indexes against a
          fresh enumeration of the membership maps;
        * the cached ``.providers`` / ``.consumers`` tuples (when
          built) against a fresh scan -- a stale tuple would silently
          feed metric samplers the wrong population;
        * every **current-version** ``total_capacity`` cache entry
          against a fresh reduction over the same provider set
          (stale-version entries are legal by design: the next lookup
          discards them).
        """
        unrestricted = [
            (ordinal, p)
            for ordinal, (pid, p) in enumerate(self._providers.items())
            if pid not in self._capabilities
        ]
        if unrestricted != self._unrestricted:
            return False
        expected: Dict[str, List[Tuple[int, "Provider"]]] = {}
        for ordinal, (pid, p) in enumerate(self._providers.items()):
            for topic in self._capabilities.get(pid, ()):
                expected.setdefault(topic, []).append((ordinal, p))
        if expected != self._topic_members:
            return False

        # -- cached membership tuples (invalidated only by add_*) -------
        if self._providers_cache is not None and self._providers_cache != tuple(
            self._providers.values()
        ):
            return False
        if self._consumers_cache is not None and self._consumers_cache != tuple(
            self._consumers.values()
        ):
            return False

        # -- version-cached capacity aggregates -------------------------
        for online_only, (version, total) in self._capacity_cache.items():
            current = (
                self._provider_version if online_only else len(self._providers)
            )
            if version != current:
                continue  # stale entry: the next lookup recomputes it
            providers = (
                self.online_providers_snapshot() if online_only else self.providers
            )
            if total != sum([p.capacity for p in providers]):
                return False
        return True

    # ------------------------------------------------------------------
    # Capability lookup
    # ------------------------------------------------------------------

    def can_serve(self, provider: "Provider", topic: str) -> bool:
        """Whether ``provider`` declares capability for ``topic``."""
        topics = self._capabilities.get(provider.participant_id)
        return topics is None or topic in topics

    def capable_snapshot(self, topic: str) -> Tuple["Provider", ...]:
        """The set ``P_q`` for ``topic`` as a reusable tuple.

        Cached per topic and rebuilt only after a membership or
        online-state transition, so between transitions a mediation
        pays one dict probe instead of a scan over every registered
        provider.  The tuple lists providers in registration order --
        exactly the order the pre-index ``capable_providers`` scan
        produced, which the seeded KnBest stage-1 sample depends on.
        The returned tuple must not be mutated (it is shared across
        mediations); its identity is stable between transitions, so
        policies may key per-snapshot caches on ``snapshot is ...``.
        """
        if not self._capabilities:
            # Common case (every BOINC volunteer attaches to all
            # projects): P_q is the online set for every topic.
            return self.online_providers_snapshot()
        version = self._provider_version
        cached = self._capable_cache.get(topic)
        if cached is not None and cached[0] == version:
            return cached[1]
        members = self._topic_members.get(topic)
        if not members:
            snapshot = tuple(p for _, p in self._unrestricted if p.online)
        elif not self._unrestricted:
            snapshot = tuple(p for _, p in members if p.online)
        else:
            # Both index lists are ordinal-sorted; a linear merge
            # reproduces registration order across them.
            merged: List["Provider"] = []
            append = merged.append
            i = j = 0
            unrestricted = self._unrestricted
            n_u, n_m = len(unrestricted), len(members)
            while i < n_u and j < n_m:
                if unrestricted[i][0] < members[j][0]:
                    p = unrestricted[i][1]
                    i += 1
                else:
                    p = members[j][1]
                    j += 1
                if p.online:
                    append(p)
            for ordinal, p in unrestricted[i:]:
                if p.online:
                    append(p)
            for ordinal, p in members[j:]:
                if p.online:
                    append(p)
            snapshot = tuple(merged)
        self._capable_cache[topic] = (version, snapshot)
        return snapshot

    def snapshot_meta(self, topic: str) -> SnapshotMeta:
        """The current ``P_q`` snapshot for ``topic`` plus ordinal metadata.

        ``meta.snapshot`` is exactly what :meth:`capable_snapshot`
        would return; the metadata is cached per topic against the
        snapshot's identity, so between transitions this costs two dict
        probes and the ordinal columns are shared by every consumer.
        """
        snapshot = self.capable_snapshot(topic)
        cached = self._snapshot_meta_cache.get(topic)
        if cached is not None and cached.snapshot is snapshot:
            return cached
        meta = SnapshotMeta(snapshot)
        self._snapshot_meta_cache[topic] = meta
        return meta

    def capable_providers(self, query: "Query") -> List["Provider"]:
        """The set ``P_q``: online providers able to perform the query.

        List-returning compatibility form of :meth:`capable_snapshot`
        (the hot paths consume the snapshot tuple directly).
        """
        return list(self.capable_snapshot(query.topic))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def total_capacity(self, online_only: bool = True) -> float:
        """Aggregate provider capacity -- "the total system capacity"
        whose preservation motivates satisfaction-based allocation.

        Capacity is immutable per provider, so the sum is cached per
        membership/online version: the per-sample cost between
        transitions is a dict probe, not a population sweep.
        """
        version = self._provider_version if online_only else len(self._providers)
        cached = self._capacity_cache.get(online_only)
        if cached is not None and cached[0] == version:
            return cached[1]
        providers = (
            self.online_providers_snapshot() if online_only else self.providers
        )
        total = sum([p.capacity for p in providers])
        self._capacity_cache[online_only] = (version, total)
        return total

    def mean_provider_satisfaction(self) -> float:
        """Mean delta_s(p) over online providers (neutral if none).

        One pass over the cached online snapshot -- the per-call
        ``online_providers()`` list build and filter are gone.
        """
        online = self.online_providers_snapshot()
        if not online:
            return 0.0
        return sum([p.satisfaction for p in online]) / len(online)

    def mean_consumer_satisfaction(self) -> float:
        """Mean delta_s(c) over online consumers (neutral if none)."""
        online = self.online_consumers_snapshot()
        if not online:
            return 0.0
        return sum([c.satisfaction for c in online]) / len(online)

    def __repr__(self) -> str:
        return (
            f"SystemRegistry(consumers={len(self._consumers)}, "
            f"providers={len(self._providers)})"
        )
