"""Structure-of-arrays consultation state and the fast engine's decision stage.

The fast engine decides in *snapshot ordinals*: every provider of one
registry capability snapshot is addressed by its slot ``s`` in the
snapshot tuple, and everything the per-query consultation needs --
static preference bases, blend weights, saturation horizons, tracker
references, the consumer's intention towards each provider -- lives in
preallocated parallel columns indexed by ``s``.  This module owns those
columns, the decision stage that reads them
(:meth:`ConsultColumns.decide`: KnBest, Equation 2, Definition 3, rank
-- called by the fused kernel :meth:`repro.core.engine.FastMediator.
_mediate_fused` under constant latency and by the column route of
:meth:`repro.core.sbqa.SbQAPolicy.select_fast` under any other), and
the lazily-materialised allocation record the fused kernel emits.

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
:class:`UnsupportedColumns` marker and the engine hands ``select_fast``
no columns for that query: its object route decides -- same decisions,
same digests, just without the columns' constant-factor savings -- and
the mediator counts the query under ``scalar_reasons``.
"""

from __future__ import annotations

from functools import cached_property
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
        "shard",
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
        shard: int = 0,
    ) -> None:
        self.snapshot = snapshot
        self.consumer = consumer
        #: Shard ordinal of the owning mediator (0 outside a
        #: federation).  Columns are per-shard state: each shard's
        #: registry produces its own snapshot tuples, and the ordinal
        #: keeps the engine's column cache keys disjoint across shards.
        self.shard = shard
        self.pids = meta.pids
        self.slot_of = meta.slot_of
        self.ranks = meta.ranks
        self.pp = pp
        self.betas = betas
        self.horizons = [p.saturation_horizon for p in snapshot]
        self.trackers = [p.tracker for p in snapshot]
        self._dynamic_ci = dynamic_ci
        if dynamic_ci:
            model = consumer.intention_model
            self._alpha = model.alpha
            self._alpha_w = 1.0 - model.alpha
            self._rt_ref = consumer.rt_reference
        else:
            self._alpha = 0.0
            self._alpha_w = 1.0
            self._rt_ref = consumer.rt_reference
        self.ci = [self._ci(pid) for pid in self.pids]
        self.dirty: set = set()
        if dynamic_ci:
            consumer._intention_sinks.append(self.dirty)

    @classmethod
    def build(
        cls,
        snapshot,
        meta: "SnapshotMeta",
        consumer: "Consumer",
        topic: str,
        shard: int = 0,
    ):
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
        return cls(snapshot, meta, consumer, dynamic_ci, pp, betas, shard=shard)

    def _ci(self, pid: str) -> float:
        """CI_q[p] for one provider, matching the model's arithmetic.

        Dynamic form: the exact expression of
        :meth:`ReputationBlendIntentions.intentions` with the weights
        and reference resolved at construction.  Static form:
        ``clamp_intention`` of the raw preference, as
        :meth:`PreferenceIntentions.intentions` computes it.
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
        fast-engine routes call it -- the fused kernel
        (:meth:`FastMediator._mediate_fused`) and the column route of
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
                if tracker._proposals:
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
            f"shard={self.shard}, slots={len(self.pids)}, "
            f"dynamic_ci={self._dynamic_ci})"
        )


class LazyAllocationRecord(AllocationRecord):
    """An :class:`AllocationRecord` whose consultation maps materialise
    on first access.

    The fused kernel keeps its whole ranking as rows of
    ``(-score, rank, s, pi, ci, omega)``; the summary layer only ever
    reads scalar record fields (adequation, consultation delay, the
    allocated list), so the five per-provider dicts of the faithful
    record are built lazily from the rows -- and in the *same insertion
    order* as ``SbQAPolicy.select_fast`` builds them (intentions and
    omegas in working-set order, scores in ranking order), so code
    iterating the maps observes identical ordering on either path.
    """

    def __init__(
        self,
        query,
        decided_at: float,
        allocated: List["Provider"],
        adequation: float,
        consultation_delay: float,
        rows: List[tuple],
        informed_ordinals: List[int],
        pids: List[str],
        providers,
    ) -> None:
        self.query = query
        self.decided_at = decided_at
        self.allocated = allocated
        self.adequation = adequation
        self.consultation_delay = consultation_delay
        self.results = []
        self.completed_at = None
        self._rows = rows
        self._informed_ordinals = informed_ordinals
        self._pids = pids
        self._providers = providers

    @cached_property
    def _row_of(self) -> Dict[int, tuple]:
        return {row[2]: row for row in self._rows}

    @cached_property
    def informed(self) -> List["Provider"]:
        providers = self._providers
        return [providers[s] for s in self._informed_ordinals]

    @cached_property
    def consumer_intentions(self) -> Dict[str, float]:
        pids = self._pids
        row_of = self._row_of
        return {pids[s]: row_of[s][4] for s in self._informed_ordinals}

    @cached_property
    def provider_intentions(self) -> Dict[str, float]:
        pids = self._pids
        row_of = self._row_of
        return {pids[s]: row_of[s][3] for s in self._informed_ordinals}

    @cached_property
    def scores(self) -> Dict[str, float]:
        # IEEE negation is exact, so -(-score) restores the kernel's
        # score bit for bit.
        pids = self._pids
        return {pids[row[2]]: -row[0] for row in self._rows}

    @cached_property
    def omegas(self) -> Dict[str, float]:
        pids = self._pids
        row_of = self._row_of
        return {pids[s]: row_of[s][5] for s in self._informed_ordinals}
