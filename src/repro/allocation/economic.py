"""Economic (Mariposa-style) allocation [13].

Mariposa runs queries through a microeconomic protocol: providers
submit *bids* -- a price reflecting what performing the work costs them
-- and the buyer takes the cheapest offers.  The demo uses "an economic
technique [13]" as its second Scenario-1 baseline.

# reconstruction: Mariposa's full budget-curve machinery is out of
# scope for a dispatcher-level comparison; what the scenarios exercise
# is an allocation principle in which (a) loaded providers price
# themselves out (time is money), and (b) provider preferences shade the
# price (performing disliked work costs more), while consumer interests
# play no role.  The bid below captures exactly that:
#
#     bid(p, q) = (backlog(p) + service_time(p, q))
#                 * (1 + selfishness * (1 - pref(p, q)) / 2)
#
# The delay term makes bidding load-balancing in equilibrium; the
# preference markup is the "selfish provider" ingredient the paper's
# satisfaction analysis probes.  ``selfishness = 0`` reduces the
# technique to pure delay-based bidding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.policy import (
    AllocationContext,
    AllocationPolicy,
    FastAllocationDecision,
    allocation_count,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.provider import Provider
    from repro.system.query import Query


class EconomicPolicy(AllocationPolicy):
    """Providers bid; the mediator buys the ``min(q.n, |P_q|)`` cheapest.

    Parameters
    ----------
    selfishness:
        Strength of the preference markup in [0, 1].  At 0 the bid is
        the pure expected delay; at 1 a maximally disliked query costs
        double the delay price.
    """

    name = "economic"
    #: Bidding requires a call-for-bids/bid round-trip with every
    #: candidate, so the consultation cost applies.
    consults_participants = True

    def __init__(self, selfishness: float = 0.5) -> None:
        if not 0.0 <= selfishness <= 1.0:
            raise ValueError(f"selfishness must be in [0, 1], got {selfishness}")
        self.selfishness = selfishness

    def bid(self, provider: "Provider", query: "Query") -> float:
        """The price ``provider`` asks for performing ``query``."""
        delay = provider.estimated_completion_delay(query.service_demand)
        preference = provider.preference_for(query)
        markup = 1.0 + self.selfishness * (1.0 - preference) / 2.0
        return delay * markup

    def select_fast(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> FastAllocationDecision:
        """Buy the cheapest bids: one inlined bidding pass.

        :meth:`bid`'s property chain (``estimated_completion_delay`` ->
        ``backlog_seconds`` + ``service_time``) runs inline with the
        identical expressions, the demand guard is hoisted out of the
        per-candidate loop, and the ranking is a decorate-sort on the
        ``(bid, participant_id)`` key.  Every candidate bid, so every
        candidate is informed of the outcome; one call-for-bids plus one
        bid per candidate are the consultation messages.
        """
        now = ctx.now
        demand = query.service_demand
        if demand <= 0:  # service_time()'s guard, hoisted
            raise ValueError(f"demand must be positive, got {demand}")
        selfishness = self.selfishness
        rows = []
        append = rows.append
        for p in candidates:
            delay = max(0.0, p._busy_until - now) + demand / p.capacity
            markup = 1.0 + selfishness * (1.0 - p.preference_for(query)) / 2.0
            append((delay * markup, p.participant_id, p))
        rows.sort()
        take = allocation_count(query, len(rows))
        return FastAllocationDecision(
            allocated=[row[2] for row in rows[:take]],
            informed=list(candidates),
            consult_messages=2 * len(candidates),
        )

    select = select_fast  # bench/tracer.py wraps this name on the class

    def trace_lines(self, record, n_candidates: int):
        """``economic``: the bought bids.  :meth:`bid` at the record's
        decision instant is the price paid: a provider's backlog moves
        only when the dispatched query reaches it."""
        query = record.query
        cheapest = [(p.participant_id, round(self.bid(p, query), 3)) for p in record.allocated]
        return (("economic", f"cheapest bids {cheapest}"),)

    def describe(self) -> dict:
        return {"name": self.name, "selfishness": self.selfishness}
