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
from repro.core.scoring import DEFAULT_EPSILON, score_providers_batch
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
        # What the columns encode (see repro.core.soa): resolved once.
        self._omega_adaptive = isinstance(self.omega_policy, AdaptiveOmega)
        self._omega_fixed = (
            self.omega_policy.value
            if isinstance(self.omega_policy, FixedOmega)
            else None
        )

    def select_fast(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> AllocationDecision:
        """The SbQA decision: KnBest sample, intention consultation,
        per-pair omega, Definition-3 scores, rank, take ``min(n, kn)``.

        The object route below is Figure 1 as the paper states it:
        each participant is asked for its intention through its own
        model, omega comes from the configured
        :class:`~repro.core.omega.OmegaPolicy`, and the whole ``Kn`` set
        is scored through :func:`~repro.core.scoring.score_providers_batch`;
        every float equals what :func:`~repro.core.scoring.sqlb_score`
        and :func:`~repro.core.scoring.rank_providers` give provider by
        provider (the tests hold it to that reference).

        When the mediator hands over the snapshot's columns
        (``ctx.columns``) the decision is
        :meth:`~repro.core.soa.ConsultColumns.decision` -- the same
        arithmetic in snapshot ordinals, shared with the fused kernel,
        its maps built only if someone reads them.  The object route
        serves the event engine, the ``_FUSED_KERNEL`` hook, model mixes
        the columns cannot encode and a shard's forwarded mediations,
        and is the differential oracle the columns are tested against.
        """
        cols = ctx.columns
        if cols is not None:
            return cols.decision(self, query, ctx.now)

        # 1-2. KnBest: k sampled at random, the kn least utilized kept.
        _, working, _ = self.selector.sample_working(candidates)
        pids = [p.participant_id for p in working]
        # 3. SQLB consultation: PI_q[p] and CI_q[p] for every p of Kn.
        consumer = query.consumer
        provider_intention_list = [p.intention_for(query) for p in working]
        consumer_intention_list = [consumer.intention_for(query, p) for p in working]
        # 4. Equation 2, one omega per (c, p) pair; Definition 3; rank
        #    by (-score, provider_id) as rank_providers does.
        consumer_satisfaction = consumer.satisfaction
        omega = self.omega_policy.omega
        omega_list = [omega(consumer_satisfaction, p.satisfaction) for p in working]
        scores = score_providers_batch(
            provider_intention_list,
            consumer_intention_list,
            omega_list,
            self.config.epsilon,
            validate=False,
        )
        ranking = sorted(zip(scores, pids), key=_rank_key)
        # 5. Allocate the min(n, kn) best; all of Kn are informed.
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
        )

    select = select_fast  # bench/tracer.py wraps this name on the class

    def trace_lines(self, record, n_candidates: int):
        """``knbest``: the stage sizes (stage 1 samples ``min(k, |P_q|)``);
        ``sqlb``: the ranking -- every record keys ``scores`` in ranking
        order -- and the allocated set."""
        return (
            (
                "knbest",
                f"|P_q|={n_candidates} -> |K|={min(self.selector.k, n_candidates)} "
                f"-> |Kn|={len(record.informed)}",
            ),
            ("sqlb", f"ranked {list(record.scores)}, allocated {sorted(record.allocated_ids)}"),
        )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "k": self.config.k,
            "kn": self.config.kn,
            "epsilon": self.config.epsilon,
            "omega": repr(self.omega_policy),
        }
