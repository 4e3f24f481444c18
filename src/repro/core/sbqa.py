"""The SbQA allocation policy: KnBest + SQLB (Section III).

Given an incoming query ``q`` and the capable set ``P_q``:

1. **KnBest stage 1** -- select ``K``, ``k`` providers at random from
   ``P_q``;
2. **KnBest stage 2** -- keep ``Kn``, the ``kn`` least utilized of
   ``K``;
3. **SQLB** -- ask the consumer ``q.c`` for its intentions towards each
   provider of ``Kn`` and each provider of ``Kn`` for its intention to
   perform ``q``;
4. score every ``p`` in ``Kn`` (Definition 3) under the balance
   ``omega`` (Equation 2: per-pair, satisfaction-adaptive), rank, and
5. allocate ``q`` to the ``min(q.n, kn)`` best-scored providers; all of
   ``Kn`` learn the outcome (they were "informed"), which feeds the
   provider-side satisfaction window.

The intention consultation is what makes the process *self-adaptable*:
participants re-express intentions per query from their current state
(preferences, load, observed performance), and omega continuously
rebalances whose voice counts more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.knbest import KnBestSelector
from repro.core.omega import AdaptiveOmega, FixedOmega, OmegaPolicy, make_omega_policy
from repro.core.policy import (
    AllocationContext,
    AllocationDecision,
    AllocationPolicy,
    FastAllocationDecision,
    allocation_count,
)
from repro.core.scoring import (
    DEFAULT_EPSILON,
    ScoredProvider,
    rank_providers,
    score_providers_batch,
    sqlb_score,
)
from repro.des.rng import RandomStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.provider import Provider
    from repro.system.query import Query


def _rank_key(row):
    """Sort key matching :func:`~repro.core.scoring.rank_providers`."""
    return (-row[0], row[1])


@dataclass
class SbQAConfig:
    """Tunable parameters of the SbQA process (decision D4).

    Attributes
    ----------
    k:
        KnBest stage-1 sample size.
    kn:
        KnBest stage-2 working-set size (providers consulted per query).
    epsilon:
        Guard of the negative scoring branch; the paper sets it to 1.
    omega:
        ``"adaptive"`` for Equation 2, or a float in [0, 1] to pin the
        balance (Scenario 6).
    """

    k: int = 20
    kn: int = 10
    epsilon: float = DEFAULT_EPSILON
    omega: object = "adaptive"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 1 <= self.kn <= self.k:
            raise ValueError(f"kn must satisfy 1 <= kn <= k, got kn={self.kn}, k={self.k}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


class SbQAPolicy(AllocationPolicy):
    """Satisfaction-based Query Allocation.

    Parameters
    ----------
    config:
        The (k, kn, epsilon, omega) tuple; defaults to the library
        defaults of :class:`SbQAConfig`.
    stream:
        Seeded random stream feeding KnBest stage 1.
    """

    name = "sbqa"
    consults_participants = True

    def __init__(self, config: Optional[SbQAConfig], stream: RandomStream) -> None:
        self.config = config or SbQAConfig()
        self.selector = KnBestSelector(self.config.k, self.config.kn, stream)
        self.omega_policy: OmegaPolicy = make_omega_policy(self.config.omega)
        # Resolved once so the hot path dispatches on plain attributes
        # instead of per-query isinstance checks.
        self._omega_adaptive = isinstance(self.omega_policy, AdaptiveOmega)
        self._omega_fixed = (
            self.omega_policy.value
            if isinstance(self.omega_policy, FixedOmega)
            else None
        )

    def select(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> AllocationDecision:
        consumer = query.consumer
        selection = self.selector.select(candidates)
        working = list(selection.working)
        if ctx.trace.enabled:
            ctx.trace.record(
                ctx.now,
                "knbest",
                f"query {query.qid}: |P_q|={len(candidates)} -> |K|={selection.k_effective} "
                f"-> |Kn|={selection.kn_effective}",
                qid=query.qid,
            )

        consumer_satisfaction = consumer.satisfaction
        scored = []
        consumer_intentions = {}
        provider_intentions = {}
        omegas = {}
        for provider in working:
            pid = provider.participant_id
            provider_intention = provider.intention_for(query)
            consumer_intention = consumer.intention_for(query, provider)
            omega = self.omega_policy.omega(consumer_satisfaction, provider.satisfaction)
            score = sqlb_score(
                provider_intention, consumer_intention, omega, self.config.epsilon
            )
            scored.append(
                ScoredProvider(
                    provider_id=pid,
                    score=score,
                    omega=omega,
                    provider_intention=provider_intention,
                    consumer_intention=consumer_intention,
                )
            )
            consumer_intentions[pid] = consumer_intention
            provider_intentions[pid] = provider_intention
            omegas[pid] = omega

        ranking = rank_providers(scored)
        take = allocation_count(query, len(working))
        by_id = {p.participant_id: p for p in working}
        allocated = [by_id[entry.provider_id] for entry in ranking[:take]]
        if ctx.trace.enabled:
            chosen_ids = {entry.provider_id for entry in ranking[:take]}
            ctx.trace.record(
                ctx.now,
                "sqlb",
                f"query {query.qid}: ranked {[e.provider_id for e in ranking]}, "
                f"allocated {sorted(chosen_ids)}",
                qid=query.qid,
            )

        return AllocationDecision(
            allocated=allocated,
            informed=working,
            consumer_intentions=consumer_intentions,
            provider_intentions=provider_intentions,
            scores={entry.provider_id: entry.score for entry in ranking},
            omegas=omegas,
            # one intention request + one reply per consulted provider,
            # plus the same exchange with the consumer
            consult_messages=2 * len(working) + 2,
            metadata={"k_effective": selection.k_effective},
        )

    def select_fast(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> AllocationDecision:
        """Hot-path :meth:`select`: identical decision, fewer allocations.

        Used by the fast engine (:mod:`repro.core.engine`) when tracing
        is off.  The pipeline is the same -- KnBest sample, intention
        consultation, per-pair omega, Definition-3 scores, rank, take
        ``min(n, kn)`` -- but the whole ``Kn`` set is scored through
        :func:`~repro.core.scoring.score_providers_batch` (inputs
        validated once), per-provider ``ScoredProvider`` objects are
        never materialised, and a fixed omega is resolved outside the
        loop.  Every float is produced by the same expressions in the
        same order as :meth:`select`, so allocations, scores and omegas
        are bit-identical.

        When the mediator hands over the snapshot's columns
        (``ctx.columns``) the decision is
        :meth:`~repro.core.soa.ConsultColumns.decision` -- the same
        arithmetic in snapshot ordinals, shared with the fused kernel,
        its maps built only if someone reads them.  The object route
        below remains for model mixes the columns cannot encode, and as
        the differential oracle the columns are tested against.
        """
        cols = ctx.columns
        if cols is not None:
            return cols.decision(self, query, ctx.now)

        consumer = query.consumer
        k_effective, working, loads = self.selector.sample_working(candidates)
        pids = [provider.participant_id for provider in working]

        # -- intention consultation (batched when the set shares one
        #    model instance, which the population builder guarantees) --
        shared_model = working[0].intention_model
        for provider in working:
            if provider.intention_model is not shared_model:
                shared_model = None
                break
        if shared_model is not None:
            provider_intention_list = shared_model.intentions(
                working, query, utilizations=loads
            )
        else:
            provider_intention_list = [p.intention_for(query) for p in working]
        consumer_intention_list = consumer.intention_model.intentions(
            consumer, query, working
        )

        # -- Equation 2, one omega per (c, p) pair -----------------------
        if self._omega_adaptive:
            # Inlined adaptive_omega; trackers guarantee inputs in [0, 1].
            consumer_satisfaction = consumer.satisfaction
            omega_list = [
                ((consumer_satisfaction - p.tracker.satisfaction()) + 1.0) / 2.0
                for p in working
            ]
        elif self._omega_fixed is not None:
            omega_list = [self._omega_fixed] * len(working)
        else:
            consumer_satisfaction = consumer.satisfaction
            omega_policy = self.omega_policy
            omega_list = [
                omega_policy.omega(consumer_satisfaction, p.satisfaction)
                for p in working
            ]

        scores = score_providers_batch(
            provider_intention_list,
            consumer_intention_list,
            omega_list,
            self.config.epsilon,
            validate=False,
        )

        # rank_providers orders by (-score, provider_id); same key here.
        ranking = sorted(zip(scores, pids), key=_rank_key)
        take = allocation_count(query, len(working))
        by_id = dict(zip(pids, working))
        allocated = [by_id[pid] for _, pid in ranking[:take]]

        return FastAllocationDecision(
            allocated=allocated,
            informed=working,
            consumer_intentions=dict(zip(pids, consumer_intention_list)),
            provider_intentions=dict(zip(pids, provider_intention_list)),
            scores={pid: score for score, pid in ranking},
            omegas=dict(zip(pids, omega_list)),
            consult_messages=2 * len(working) + 2,
            metadata={"k_effective": k_effective},
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "k": self.config.k,
            "kn": self.config.kn,
            "epsilon": self.config.epsilon,
            "omega": repr(self.omega_policy),
        }
