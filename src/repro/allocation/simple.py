"""Reference baselines: random, round-robin, shortest-queue.

These are not in the paper's scenario list; they anchor the ablation
benches (a technique must at least beat random to matter) and give the
test suite simple, fully predictable policies to assert against.

Each implements only ``select_fast`` (see
:class:`~repro.core.policy.AllocationPolicy`), a decorate-sort over
inlined load reads returning a slot-based
:class:`~repro.core.policy.FastAllocationDecision`, and writes no trace
lines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.policy import (
    AllocationContext,
    AllocationPolicy,
    FastAllocationDecision,
    allocation_count,
)
from repro.des.rng import RandomStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.provider import Provider
    from repro.system.query import Query


def _pid(provider: "Provider") -> str:
    """Sort key of the deterministic id orderings below."""
    return provider.participant_id


class RandomPolicy(AllocationPolicy):
    """Allocate to ``min(q.n, |P_q|)`` providers drawn uniformly."""

    name = "random"
    consults_participants = False

    def __init__(self, stream: RandomStream) -> None:
        self._stream = stream

    def select_fast(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> FastAllocationDecision:
        # sample() indexes a list or tuple in place: no defensive copy.
        take = allocation_count(query, len(candidates))
        allocated = self._stream.sample(candidates, take)
        return FastAllocationDecision(allocated=allocated)


class RoundRobinPolicy(AllocationPolicy):
    """Cycle through providers in a fixed id order.

    The cursor is global (not per consumer): the classic dispatcher
    that spreads queries evenly regardless of who asks.
    """

    name = "round-robin"
    consults_participants = False

    def __init__(self) -> None:
        self._cursor: int = 0
        # Hot-path cache: the id-sorted ordering of the last candidate
        # snapshot tuple, keyed on its identity (the registry reuses one
        # tuple between membership/online transitions, so the sort runs
        # once per transition epoch, not per query).
        self._ordered_cache: tuple = (None, [])

    def select_fast(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> FastAllocationDecision:
        if type(candidates) is tuple:
            snapshot, ordered = self._ordered_cache
            if snapshot is not candidates:
                ordered = sorted(candidates, key=_pid)
                self._ordered_cache = (candidates, ordered)
        else:  # a list may be mutated in place between two calls
            ordered = sorted(candidates, key=_pid)
        n = len(ordered)
        cursor = self._cursor
        take = allocation_count(query, n)
        allocated = [ordered[(cursor + offset) % n] for offset in range(take)]
        self._cursor = (cursor + take) % n
        return FastAllocationDecision(allocated=allocated)


class ShortestQueuePolicy(AllocationPolicy):
    """Allocate to the providers with the smallest queued backlog.

    Differs from :class:`~repro.allocation.capacity.CapacityBasedPolicy`
    in ignoring raw capacity: a fast-but-busy machine loses to a slow
    idle one.
    """

    name = "shortest-queue"
    consults_participants = False

    def select_fast(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> FastAllocationDecision:
        # Decorated rows inline backlog_seconds' arithmetic (same
        # max(0, busy_until - now), so the same floats); participant
        # ids are unique, so the provider in slot 2 never compares.
        now = ctx.now
        rows = [
            (max(0.0, p._busy_until - now), p.participant_id, p)
            for p in candidates
        ]
        rows.sort()
        take = allocation_count(query, len(rows))
        return FastAllocationDecision(allocated=[row[2] for row in rows[:take]])
