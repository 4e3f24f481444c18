"""Capacity-based allocation [9] -- the BOINC-equivalent baseline.

"Most current query allocation techniques ... focus on distributing
the query load among providers in a way that maximizes overall
performance" (Section I).  This baseline is the canonical such
technique: allocate each query to the providers with the most
*available capacity* (capacity scaled by current headroom), ignoring
every interest on both sides.

It is the strongest baseline on response time -- and the one whose
interest-blindness Scenario 2 shows driving dissatisfied volunteers
away.
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


class CapacityBasedPolicy(AllocationPolicy):
    """Allocate to the ``min(q.n, |P_q|)`` providers with most headroom.

    Ranking key: available capacity (descending), then raw capacity
    (descending -- prefer bigger machines at equal headroom), then
    provider id for determinism.
    """

    name = "capacity"
    consults_participants = False

    def select_fast(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> FastAllocationDecision:
        """Rank by headroom: a decorate-sort over one inlined pass.

        The headroom read (``available_capacity`` -> ``utilization``
        -> ``backlog_seconds``) is three chained properties per
        candidate; here the identical arithmetic runs inline over the
        candidate snapshot.
        """
        now = ctx.now
        rows = []
        append = rows.append
        for p in candidates:
            capacity = p.capacity
            utilization = min(
                1.0, max(0.0, p._busy_until - now) / p.saturation_horizon
            )
            append(
                (-(capacity * (1.0 - utilization)), -capacity, p.participant_id, p)
            )
        rows.sort()
        take = allocation_count(query, len(rows))
        return FastAllocationDecision(allocated=[row[3] for row in rows[:take]])

    select = select_fast  # bench/tracer.py wraps this name on the class

    def trace_lines(self, record, n_candidates: int):
        """``capacity``: the allocated providers, most headroom first."""
        return (("capacity", f"-> {record.allocated_ids}"),)

    def describe(self) -> dict:
        return {"name": self.name, "criterion": "available capacity"}
