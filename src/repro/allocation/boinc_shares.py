"""The native BOINC resource-shares dispatcher.

"In BOINC, providers can express their intentions by specifying the
fraction of computational resources devoted to each consumer ...
However, this may waste idle computational resources of providers when
their interesting consumers do not issue queries" (Section IV).  The
demo's motivating example: a volunteer donating 80%/20% to projects
``c_a``/``c_b`` caps ``c_b`` at 20% even while ``c_a`` is silent.

This policy reproduces that rigid mechanism so the waste is measurable:

* each provider holds normalised ``resource_shares`` per consumer;
* the dispatcher keeps a *debt* counter per (provider, consumer):
  share-weighted elapsed capacity minus work already granted -- the
  standard BOINC scheduling idea;
* a query from consumer ``c`` goes to the capable providers with the
  highest positive debt towards ``c``; providers whose share for ``c``
  is zero **refuse** it, and providers whose debt is exhausted are
  deprioritised;
* idle capacity of a provider whose preferred projects are silent is
  *not* offered to others beyond its declared share -- that is the
  modelled waste.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence, Tuple

from repro.core.policy import (
    AllocationContext,
    AllocationPolicy,
    FastAllocationDecision,
    allocation_count,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.provider import Provider
    from repro.system.query import Query


class BoincSharesPolicy(AllocationPolicy):
    """Debt-based dispatch under fixed per-consumer resource shares.

    Parameters
    ----------
    overdraft:
        Seconds of capacity a provider may serve a consumer *beyond*
        its share-weighted entitlement before the dispatcher stops
        choosing it for that consumer.  A small positive overdraft
        avoids deadlock at simulation start, when every debt is 0.
    """

    name = "boinc-shares"
    consults_participants = False

    def __init__(self, overdraft: float = 30.0) -> None:
        if overdraft < 0:
            raise ValueError(f"overdraft must be non-negative, got {overdraft}")
        self.overdraft = overdraft
        # work units granted so far, keyed by (provider_id, consumer_id)
        self._granted: Dict[Tuple[str, str], float] = {}

    def debt(self, provider: "Provider", consumer_id: str, now: float) -> float:
        """Share-weighted entitlement minus work already granted (work units)."""
        shares = provider.resource_shares
        total = sum(shares.values()) if shares else 0.0
        share = shares.get(consumer_id, 0.0) / total if total > 0 else 0.0
        if share <= 0.0:
            return float("-inf")  # refuses this consumer outright
        elapsed = max(0.0, now - provider.joined_at)
        entitlement = share * elapsed * provider.capacity
        granted = self._granted.get((provider.participant_id, consumer_id), 0.0)
        return entitlement - granted

    def select_fast(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> FastAllocationDecision:
        """Dispatch to the highest debts: one inlined debt pass.

        :meth:`debt` runs inline with identical arithmetic
        (same normalisation quotient, same entitlement product); zero
        shares refuse and exhausted budgets are skipped even when the
        provider is idle, the ranking is a decorate-sort on the
        ``(-debt, participant_id)`` key, and each allocation is charged
        to ``_granted``.
        """
        now = ctx.now
        consumer_id = query.consumer_id
        demand = query.service_demand
        overdraft = self.overdraft
        granted = self._granted
        rows = []
        append = rows.append
        for p in candidates:
            shares = p.resource_shares
            if not shares:
                continue  # zero share: the provider refuses this project
            total = sum(shares.values())
            if total <= 0:
                continue
            share = shares.get(consumer_id, 0.0) / total
            if share <= 0.0:
                continue
            capacity = p.capacity
            debt = share * max(0.0, now - p.joined_at) * capacity - granted.get(
                (p.participant_id, consumer_id), 0.0
            )
            if debt + overdraft * capacity < demand:
                continue  # entitlement exhausted: rigid cap bites even if idle
            append((-debt, p.participant_id, p))

        if not rows:
            return FastAllocationDecision(allocated=[])

        rows.sort()
        take = allocation_count(query, len(rows))
        allocated = [row[2] for row in rows[:take]]
        for provider in allocated:
            key = (provider.participant_id, consumer_id)
            granted[key] = granted.get(key, 0.0) + demand
        return FastAllocationDecision(allocated=allocated)

    def trace_lines(self, record, n_candidates: int):
        """``boinc-shares``: the allocated providers, or the refusal."""
        if record.allocated:
            return (("boinc-shares", f"-> {record.allocated_ids}"),)
        return (("boinc-shares", f"no provider with share budget for {record.query.consumer_id}"),)

    def describe(self) -> dict:
        return {"name": self.name, "overdraft": self.overdraft}
