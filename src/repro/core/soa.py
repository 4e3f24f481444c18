"""Structure-of-arrays consultation state: the fast engine's decision and commit.

The fast engine works in *snapshot ordinals*: every provider of one
registry capability snapshot is addressed by its slot ``s`` in the
snapshot tuple, and everything a mediation reads or writes per provider
-- static preference bases, blend weights, saturation horizons, tracker
references, the consumer's intention towards each provider -- lives in
preallocated, policy-independent parallel columns indexed by ``s``.
This module owns those columns and the two stages that run on them --
the decision :meth:`ConsultColumns.decide` (KnBest, Equation 2,
Definition 3, rank), which is SbQA's alone, and the commit
:meth:`ConsultColumns.commit` (Definition 1/2 windows, Equation 1,
adequation), which serves every policy's decision whose informed
providers are slots of the snapshot -- plus the allocation records
whose per-provider maps materialise lazily from the rows.

Ownership and invariants
------------------------

* A :class:`ConsultColumns` belongs to one ``(snapshot, consumer,
  topic)`` triple.  The snapshot tuple's *identity* is the validity
  token: the registry keeps the same tuple object between
  membership/online transitions (see
  :meth:`repro.system.registry.SystemRegistry.capable_snapshot`), so
  ``cols.snapshot is snapshot`` is the entire staleness check.  After a
  transition the engine drops the columns and builds fresh ones.
* Ordinal metadata (``pids``, ``slot_of``, ``ranks``) is borrowed from
  the registry's :class:`~repro.system.registry.SnapshotMeta`, shared
  across every consumer consulting the same snapshot.  ``ranks[s]`` is
  the position of ``pids[s]`` in the id-sorted order of the snapshot;
  within one snapshot, comparing ranks is order-isomorphic to comparing
  id strings, which is what lets the kernel break utilization and score
  ties on machine ints while matching the scalar kernels'
  ``participant_id`` tie-breaks bit for bit (asserted by the oracle
  tests).
* Static columns (``pp``, ``betas``, ``horizons``) encode state that
  cannot change while the snapshot lives: preferences never mutate
  after construction, and blend weights and horizons are fixed at
  provider construction.
* The consumer-intention column ``ci`` is the only *dynamic* column.
  Its single invalidation source is
  :meth:`repro.system.consumer.Consumer.observe_response_time` (the
  only mutation site of the reputation EWMA), which adds the moved
  provider id to every registered ``_intention_sinks`` set; the columns
  register their own ``dirty`` set there and refresh exactly the slots
  that moved before the next consultation.

Model support
-------------

Columns can only encode the built-in intention models whose arithmetic
they replicate (checked by *exact* type, so subclasses with overridden
math fall back to the scalar oracle path automatically):

* provider side: :class:`~repro.core.intentions.
  PreferenceUtilizationIntentions` (and its ``LoadOnlyIntentions``
  special case) as ``pp[s] = (1 - beta) * pref`` with the load term
  applied per query; :class:`~repro.core.intentions.
  ProviderPreferenceIntentions` as the degenerate ``pw = 1, beta = 0``
  encoding (``0.0 * load_term`` contributes a signed zero, which is
  bit-safe: every digest-visible value passes through the
  ``(i + 1) / 2`` unit mapping, where ``-0.0`` and ``+0.0`` coincide);
* consumer side: :class:`~repro.core.intentions.
  ReputationBlendIntentions` (and ``ResponseTimeIntentions``) as the
  cached dynamic ``ci`` column; :class:`~repro.core.intentions.
  PreferenceIntentions` as a static ``ci`` column that never needs
  refreshing.

Any other combination makes :meth:`ConsultColumns.build` return an
:class:`UnsupportedColumns` marker and that query is decided and
committed on the provider objects -- same decisions, same digests,
just without the columns' constant-factor savings -- and the mediator
counts it under ``scalar_reasons`` and ``commit_counts["objects"]``.
"""

from __future__ import annotations

from functools import cached_property
from operator import is_
from typing import TYPE_CHECKING, Dict, List

from repro.core.intentions import (
    LoadOnlyIntentions,
    PreferenceIntentions,
    PreferenceUtilizationIntentions,
    ProviderPreferenceIntentions,
    ReputationBlendIntentions,
    ResponseTimeIntentions,
)
from repro.core.sbqa import SbQAPolicy
from repro.system.query import AllocationRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.consumer import Consumer
    from repro.system.provider import Provider
    from repro.system.registry import SnapshotMeta

#: Provider models encoded as (pp, beta) columns.  Exact types only:
#: a subclass may override the blend arithmetic.
PROVIDER_BLEND_TYPES = (PreferenceUtilizationIntentions, LoadOnlyIntentions)

#: Provider models encoded as the degenerate pw=1, beta=0 columns.
PROVIDER_STATIC_TYPES = (ProviderPreferenceIntentions,)

#: Consumer models whose CI column is dynamic (reputation EWMA).
CONSUMER_DYNAMIC_TYPES = (ReputationBlendIntentions, ResponseTimeIntentions)

#: Consumer models whose CI column is static (pure preference).
CONSUMER_STATIC_TYPES = (PreferenceIntentions,)


def fused_policy_supported(policy) -> bool:
    """Whether the fused kernel can stand in for this policy.

    The kernel inlines :class:`~repro.core.sbqa.SbQAPolicy`'s exact
    pipeline (KnBest sample, per-pair omega, Definition-3 scores), so
    it requires that exact policy type with either the adaptive or a
    fixed omega -- which is every omega
    :func:`~repro.core.omega.make_omega_policy` can build, but a custom
    :class:`~repro.core.omega.OmegaPolicy` subclass opts out.
    """
    return type(policy) is SbQAPolicy and (
        policy._omega_adaptive or policy._omega_fixed is not None
    )


class UnsupportedColumns:
    """Marker cached in place of columns for unsupported model mixes.

    Carries the snapshot it was decided against so the engine's
    identity-based staleness check re-evaluates support only after a
    membership/online transition (model mixes are fixed at population
    construction, but a rebuilt snapshot is the natural recheck point).
    """

    __slots__ = ("snapshot",)

    supported = False

    def __init__(self, snapshot) -> None:
        self.snapshot = snapshot

    def detach(self) -> None:
        """No sinks were registered; nothing to unhook."""


class ConsultColumns:
    """Parallel per-slot columns for one (snapshot, consumer, topic).

    See the module docstring for ownership and invariants.  All columns
    are plain Python lists indexed by snapshot ordinal -- the kernel's
    inner loops touch ~``kn`` slots per mediation, where list indexing
    beats array scalarisation.
    """

    __slots__ = (
        "snapshot",
        "consumer",
        "pids",
        "slot_of",
        "ranks",
        "pp",
        "betas",
        "horizons",
        "trackers",
        "ci",
        "dirty",
        "_dynamic_ci",
        "_alpha",
        "_alpha_w",
        "_rt_ref",
    )

    supported = True

    def __init__(
        self,
        snapshot,
        meta: "SnapshotMeta",
        consumer: "Consumer",
        dynamic_ci: bool,
        pp: List[float],
        betas: List[float],
    ) -> None:
        self.snapshot = snapshot
        self.consumer = consumer
        self.pids = meta.pids
        self.slot_of = meta.slot_of
        self.ranks = meta.ranks
        self.pp = pp
        self.betas = betas
        self.horizons = [p.saturation_horizon for p in snapshot]
        self.trackers = [p.tracker for p in snapshot]
        self._dynamic_ci = dynamic_ci
        alpha = consumer.intention_model.alpha if dynamic_ci else 0.0
        self._alpha = alpha
        self._alpha_w = 1.0 - alpha
        self._rt_ref = consumer.rt_reference
        self.ci = [self._ci(pid) for pid in self.pids]
        self.dirty: set = set()
        if dynamic_ci:
            consumer._intention_sinks.append(self.dirty)

    @classmethod
    def build(cls, snapshot, meta: "SnapshotMeta", consumer: "Consumer", topic: str):
        """Columns for the triple, or :class:`UnsupportedColumns`.

        Provider support is per provider (mixed populations where every
        member uses a built-in model still qualify); the consumer model
        decides between the dynamic and static CI column.
        """
        consumer_type = type(consumer.intention_model)
        if consumer_type in CONSUMER_DYNAMIC_TYPES:
            dynamic_ci = True
        elif consumer_type in CONSUMER_STATIC_TYPES:
            dynamic_ci = False
        else:
            return UnsupportedColumns(snapshot)

        cid = consumer.participant_id
        pp: List[float] = []
        betas: List[float] = []
        for provider in snapshot:
            provider_type = type(provider.intention_model)
            if provider_type in PROVIDER_BLEND_TYPES:
                beta = provider.intention_model.beta
                preference_weight = 1.0 - beta
            elif provider_type in PROVIDER_STATIC_TYPES:
                beta = 0.0
                preference_weight = 1.0
            else:
                return UnsupportedColumns(snapshot)
            # Provider.preference_for(query), unrolled for a fixed
            # (consumer, topic): per-consumer preference first, then
            # per-topic, then the default.
            if cid in provider.preferences:
                preference = provider.preferences[cid]
            elif topic in provider.topic_preferences:
                preference = provider.topic_preferences[topic]
            else:
                preference = provider.default_preference
            pp.append(preference_weight * preference)
            betas.append(beta)
        return cls(snapshot, meta, consumer, dynamic_ci, pp, betas)

    def _ci(self, pid: str) -> float:
        """CI_q[p] for one provider, matching the model's arithmetic.

        Dynamic form: the exact expression of
        :meth:`ReputationBlendIntentions.intention` with the weights
        and reference resolved at construction.  Static form:
        ``clamp_intention`` of the raw preference, as
        :meth:`PreferenceIntentions.intention` computes it.
        """
        consumer = self.consumer
        preference = consumer.preferences.get(pid, consumer.default_preference)
        if self._dynamic_ci:
            ewma = consumer._rt_ewma.get(pid)
            rt_reference = self._rt_ref
            reputation = (
                0.5 if ewma is None else rt_reference / (rt_reference + ewma)
            )
            preference = self._alpha_w * preference + self._alpha * (
                2.0 * reputation - 1.0
            )
        if preference > 1.0:
            return 1.0
        if preference < -1.0:
            return -1.0
        return preference

    def refresh(self) -> None:
        """Recompute the CI slots whose reputation moved since last use."""
        slot_of = self.slot_of
        ci = self.ci
        for pid in self.dirty:
            s = slot_of.get(pid)
            if s is not None:
                ci[s] = self._ci(pid)
        self.dirty.clear()

    def decide(self, policy: SbQAPolicy, query, now: float):
        """The SbQA decision stage in snapshot ordinals: ``(consulted, ranked)``.

        The one place the fast engine's KnBest / Equation 2 /
        Definition 3 arithmetic lives: stage 1
        (:meth:`RandomStream.sample_indices`, draw for draw the
        sequence of sampling the provider objects), stage 2
        (utilization sort with integer-rank tie-breaks), intention
        consultation from the columns, per-pair omega, scores and the
        ranking.  Both results hold one ``(-score, rank, s, pi, ci,
        omega)`` row per member of ``Kn``: ``consulted`` in working-set
        order (least utilized first -- the order intentions were asked
        in, and the key order of a decision's maps), ``ranked`` best
        first.  Nothing here reads the latency model, so both
        fast-engine routes call it -- the fused route
        (:meth:`Mediator._mediate_fused`) and the column route of
        :meth:`SbQAPolicy.select_fast` -- and every float is produced
        by the same expression shapes in the same order as the object
        route of ``select_fast`` (asserted by ``tests/oracle/``).
        Requires ``fused_policy_supported(policy)`` and refreshed
        columns.
        """
        snapshot = self.snapshot
        selector = policy.selector
        # -- KnBest stage 1: the stdlib draw sequence over ordinals ----
        sampled = selector._stream.sample_indices(len(snapshot), selector.k)

        # -- KnBest stage 2: utilization sort, rank tie-breaks ---------
        # Provider.utilization inlined (same max/min arithmetic); ranks
        # are order-isomorphic to participant ids within one snapshot.
        ranks = self.ranks
        horizons = self.horizons
        decorated = []
        append = decorated.append
        for s in sampled:
            backlog = snapshot[s]._busy_until - now
            if backlog < 0.0:
                backlog = 0.0
            u = backlog / horizons[s]
            if u > 1.0:
                u = 1.0
            append((u, ranks[s], s))
        decorated.sort()

        # -- consultation + Equation 2 + Definition 3, one pass --------
        omega_fixed = policy._omega_fixed
        if omega_fixed is None:
            # ConsumerSatisfactionTracker.satisfaction(), inlined.
            ct_ = query.consumer.tracker
            n_sat = len(ct_._satisfactions)
            if n_sat:
                cs = ct_._sat_sum / n_sat
                if cs < 0.0:
                    cs = 0.0
                elif cs > 1.0:
                    cs = 1.0
            else:
                cs = 0.5
        pp = self.pp
        betas = self.betas
        ci_col = self.ci
        trackers = self.trackers
        epsilon = policy.config.epsilon
        consulted = []
        consult = consulted.append
        for u, rank, s in decorated[: selector.kn]:
            # PI_q[p]: blend base + load term, clamped (the exact
            # expression shape of PreferenceUtilizationIntentions;
            # beta*(1 - 2u) must not be algebraically refactored).
            pi = pp[s] + betas[s] * (1.0 - 2.0 * u)
            if pi > 1.0:
                pi = 1.0
            elif pi < -1.0:
                pi = -1.0
            ci = ci_col[s]
            if omega_fixed is None:
                # ProviderSatisfactionTracker.satisfaction(), inlined.
                tracker = trackers[s]
                if tracker._intentions:
                    performed = tracker._performed_in_window
                    if performed:
                        ps = tracker._performed_unit_sum / performed
                        if ps < 0.0:
                            ps = 0.0
                        elif ps > 1.0:
                            ps = 1.0
                    else:
                        ps = 0.0
                else:
                    ps = 0.5
                omega = ((cs - ps) + 1.0) / 2.0
            else:
                omega = omega_fixed
            if pi > 0.0 and ci > 0.0:
                score = (pi ** omega) * (ci ** (1.0 - omega))
            else:
                score = -(
                    ((1.0 - pi + epsilon) ** omega)
                    * ((1.0 - ci + epsilon) ** (1.0 - omega))
                )
            consult((-score, rank, s, pi, ci, omega))
        return consulted, sorted(consulted)

    def decision(self, policy: SbQAPolicy, query, now: float) -> "DecidedAllocationRecord":
        """:meth:`decide` as ``select_fast``'s column route returns it."""
        consulted, ranked = self.decide(policy, query, now)
        decision = DecidedAllocationRecord(query, now, self, consulted, ranked)
        decision.consult_messages = 2 * len(consulted) + 2
        return decision

    def record_for(self, query, now: float, decision):
        """``decision`` as a record in rows, ready for :meth:`commit`.

        None when rows cannot express it: it brings intentions or
        scores of its own (which the object commit honours), or informs
        a provider that is not a slot of this snapshot.
        """
        if isinstance(decision, DecidedAllocationRecord):
            return decision  # select_fast's column route
        if (
            decision.provider_intentions
            or decision.consumer_intentions
            or decision.scores
            or decision.omegas
        ):
            return None
        informed = decision.informed
        slots = self.slots_of(informed)
        performed = slots if decision.allocated is informed else self.slots_of(decision.allocated)
        if slots is None or performed is None:
            return None
        return RowsAllocationRecord(query, now, self, slots, self.intentions(slots, now), performed)

    def slots_of(self, providers):
        """Snapshot ordinals of ``providers`` (None if one is outside)."""
        snapshot = self.snapshot
        if len(providers) == len(snapshot) and all(map(is_, providers, snapshot)):
            return range(len(snapshot))  # the decision informs P_q itself
        slot_of = self.slot_of
        slots = []
        for provider in providers:
            s = slot_of.get(provider.participant_id)
            if s is None or snapshot[s] is not provider:
                return None
            slots.append(s)
        return slots

    def intentions(self, slots, now: float) -> List[float]:
        """``PI_q[p]`` of each slot at ``now``, for decisions that did not
        consult them (the exact expression shapes :meth:`decide` uses)."""
        snapshot = self.snapshot
        horizons = self.horizons
        pp = self.pp
        betas = self.betas
        pis = []
        append = pis.append
        for s in slots:
            backlog = snapshot[s]._busy_until - now
            if backlog < 0.0:
                backlog = 0.0
            u = backlog / horizons[s]
            if u > 1.0:
                u = 1.0
            pi = pp[s] + betas[s] * (1.0 - 2.0 * u)
            if pi > 1.0:
                pi = 1.0
            elif pi < -1.0:
                pi = -1.0
            append(pi)
        return pis

    def commit(self, slots, pis, performed, n_results: int, over_candidates: bool = False):
        """One mediation's satisfaction bookkeeping: ``(satisfaction, adequation)``.

        The one place the fast engine's window arithmetic lives.
        ``slots`` are the informed ordinals, ``pis`` their ``PI_q[p]``
        (the decision's, or :meth:`intentions`), ``performed`` the
        allocated ordinals in decision order; Equation 1 and the
        adequation (over the informed set, or all of ``P_q`` when
        ``over_candidates``) read the refreshed ``ci`` column.
        ``record_proposal`` / ``record_query`` are inlined, not called:
        same expression shapes in the same order, so the trackers end
        float for float where :meth:`Mediator._commit
        <repro.core.mediator.Mediator._commit>` leaves them (asserted by
        ``tests/oracle/test_rows_commit_oracle.py``).
        """
        # -- Definition-2 windows.  Each provider owns its tracker, so
        #    the order slots are walked in does not matter. -------------
        trackers = self.trackers
        chosen = frozenset(performed)
        for s, pi in zip(slots, pis):
            tracker = trackers[s]
            intentions = tracker._intentions
            memory = tracker.memory
            performs = s in chosen
            if len(intentions) == memory:
                # Full ring: _pos is the oldest entry, overwritten in place.
                pos = tracker._pos
                flags = tracker._performed
                if flags[pos]:
                    tracker._performed_in_window -= 1
                    tracker._performed_unit_sum -= (intentions[pos] + 1.0) / 2.0
                tracker._evictions_since_rebuild += 1
                intentions[pos] = pi
                flags[pos] = performs
                pos += 1
                tracker._pos = 0 if pos == memory else pos
            else:
                intentions.append(pi)
                tracker._performed.append(performs)
            tracker.total_proposed += 1
            if performs:
                tracker.total_performed += 1
                tracker._performed_in_window += 1
                tracker._performed_unit_sum += (pi + 1.0) / 2.0
            if tracker._evictions_since_rebuild >= memory:
                tracker._rebuild_sums()

        # -- Equation 1 over the performers, in decision order ----------
        ci = self.ci
        total = 0.0
        for s in performed:
            total += (ci[s] + 1.0) / 2.0
        satisfaction = total / n_results
        if satisfaction > 1.0:
            satisfaction = 1.0

        # -- adequation over the configured pool ------------------------
        if over_candidates:
            pool = sorted(ci, reverse=True)
        else:
            pool = sorted([ci[s] for s in slots], reverse=True)
        total = 0.0
        for intention in pool[:n_results]:
            total += (intention + 1.0) / 2.0
        adequation = total / n_results
        if adequation > 1.0:
            adequation = 1.0

        # -- Definition-1 window ----------------------------------------
        ct = self.consumer.tracker
        satisfactions = ct._satisfactions
        if len(satisfactions) == ct.memory:
            evicted_sat = satisfactions[0]
            evicted_adq = ct._adequations[0]
            ct._sat_sum -= evicted_sat
            ct._adq_sum -= evicted_adq
            if evicted_adq == 0.0:
                ratio = 1.0
            else:
                ratio = evicted_sat / evicted_adq
                if ratio > 1.0:
                    ratio = 1.0
            ct._ratio_sum -= ratio
            ct._evictions_since_rebuild += 1
        satisfactions.append(satisfaction)
        ct._adequations.append(adequation)
        ct._sat_sum += satisfaction
        ct._adq_sum += adequation
        if adequation == 0.0:
            ratio = 1.0
        else:
            ratio = satisfaction / adequation
            if ratio > 1.0:
                ratio = 1.0
        ct._ratio_sum += ratio
        ct.total_recorded += 1
        if ct._evictions_since_rebuild >= ct.memory:
            ct._rebuild_sums()
        return satisfaction, adequation

    def detach(self) -> None:
        """Unhook the dirty set from the consumer (columns retired)."""
        if self._dynamic_ci:
            sinks = self.consumer._intention_sinks
            try:
                sinks.remove(self.dirty)
            except ValueError:  # already detached (defensive)
                pass

    def __repr__(self) -> str:
        return (
            f"ConsultColumns(consumer={self.consumer.participant_id!r}, "
            f"slots={len(self.pids)}, dynamic_ci={self._dynamic_ci})"
        )


class RowsAllocationRecord(AllocationRecord):
    """An :class:`AllocationRecord` in snapshot ordinals, made *before*
    its commit (the engine fills in ``adequation`` and
    ``consultation_delay``) and whose per-provider maps materialise on
    first access -- the summary layer only ever reads scalar fields and
    the allocated list -- in the insertion order the policies and
    :meth:`~repro.core.mediator.Mediator._commit` build them in.

    This is the record of a decision made on provider objects: the
    informed ``slots`` with the ``pis`` :meth:`ConsultColumns.intentions`
    computed for them, and ``CI_q[p]`` asked of the ``performed`` slots
    only -- captured here because the ``ci`` column moves on.
    """

    #: The rows the commit reads and a kept record's maps are built from.
    _DECISION_STATE = AllocationRecord._DECISION_STATE + (
        "slots",
        "pis",
        "performed",
        "_cis",
        "_pids",
        "_providers",
    )

    def __init__(self, query, decided_at: float, cols: ConsultColumns, slots, pis, performed):
        self._open(query, decided_at, cols, performed)
        ci = cols.ci
        self.slots = slots
        self.pis = pis
        self.performed = performed
        self._cis = [ci[s] for s in performed]
        self.scores = {}
        self.omegas = {}

    def _open(self, query, decided_at: float, cols: ConsultColumns, performed) -> None:
        snapshot = cols.snapshot
        self.query = query
        self.decided_at = decided_at
        self.allocated = [snapshot[s] for s in performed]
        self.adequation = None
        self.consultation_delay = 0.0
        self.results = []
        self.completed_at = None
        self._pids = cols.pids
        self._providers = snapshot

    @cached_property
    def informed(self) -> List["Provider"]:
        providers = self._providers
        return [providers[s] for s in self.slots]

    @cached_property
    def consumer_intentions(self) -> Dict[str, float]:
        pids = self._pids
        return {pids[s]: ci for s, ci in zip(self.performed, self._cis)}

    @cached_property
    def provider_intentions(self) -> Dict[str, float]:
        pids = self._pids
        return {pids[s]: pi for s, pi in zip(self.slots, self.pis)}


class DecidedAllocationRecord(RowsAllocationRecord):
    """The record of one :meth:`ConsultColumns.decide`, kept as its two
    row lists plus ``performed`` (the ``min(n, |Kn|)`` best ranked);
    ``slots`` and ``pis`` are views of the rows, read once by the
    commit.  Intentions and omegas read in working-set order, scores in
    ranking order.  It is also what ``select_fast``'s column route
    returns: until committed it reads as the ``AllocationDecision`` it
    records.
    """

    #: Plus the two row lists and what it carried as a decision.
    _DECISION_STATE = RowsAllocationRecord._DECISION_STATE + (
        "_consulted",
        "_ranked",
        "consult_messages",
    )

    def __init__(self, query, decided_at: float, cols: ConsultColumns, consulted, ranked):
        self.performed = performed = [row[2] for row in ranked[: query.n_results]]
        self._open(query, decided_at, cols, performed)
        self._consulted = consulted
        self._ranked = ranked

    @property
    def slots(self) -> List[int]:
        return [row[2] for row in self._consulted]

    @property
    def pis(self) -> List[float]:
        return [row[3] for row in self._consulted]

    @cached_property
    def consumer_intentions(self) -> Dict[str, float]:
        pids = self._pids
        return {pids[row[2]]: row[4] for row in self._consulted}

    @cached_property
    def scores(self) -> Dict[str, float]:
        # IEEE negation is exact, so -(-score) restores the kernel's
        # score bit for bit.
        pids = self._pids
        return {pids[row[2]]: -row[0] for row in self._ranked}

    @cached_property
    def omegas(self) -> Dict[str, float]:
        pids = self._pids
        return {pids[row[2]]: row[5] for row in self._consulted}


class LazyAllocationRecord(DecidedAllocationRecord):
    """The fused kernel's records.  ``bench/tracer.py`` tells the fused
    route by this exact type, so nothing else may return it."""
