"""The KnBest provider-selection strategy [11].

Given the full capable set ``P_q``, KnBest narrows the mediation to a
small working set in two stages:

1. **Stage 1 (exploration):** draw ``K``, a uniform random sample of
   ``k`` providers from ``P_q``.  Randomness guarantees every provider
   keeps receiving proposals in the long run -- without it, an
   interest-driven mediator would starve unpopular providers entirely.
2. **Stage 2 (load-awareness):** keep ``Kn``, the ``kn`` *least
   utilized* providers of ``K``.  This is where query load enters the
   process: heavily loaded providers drop out before intentions are
   even consulted.

The mediator then consults only ``Kn`` (bounding the per-query message
cost to ``O(kn)``) and allocates the query to the ``min(n, kn)``
best-scored members.  Varying ``k`` and ``kn`` tunes the process
between pure load balancing (``kn`` small relative to ``k``) and pure
interest matching (``kn = k``), which Scenario 6 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol, Sequence, Tuple, TypeVar

from repro.des.rng import RandomStream


class UtilizationAware(Protocol):
    """Anything with a ``participant_id`` and a current ``utilization``."""

    @property
    def participant_id(self) -> str: ...  # pragma: no cover - protocol

    @property
    def utilization(self) -> float: ...  # pragma: no cover - protocol


P = TypeVar("P", bound=UtilizationAware)


@dataclass(frozen=True)
class KnBestSelection:
    """Outcome of the two KnBest stages for one query."""

    sampled: Tuple  # the set K (stage 1)
    working: Tuple  # the set Kn (stage 2), least utilized first

    @property
    def k_effective(self) -> int:
        """|K| -- may be below k when few providers are online."""
        return len(self.sampled)

    @property
    def kn_effective(self) -> int:
        """|Kn| -- may be below kn when |K| < kn."""
        return len(self.working)


class KnBestSelector:
    """Two-stage KnBest selection with deterministic tie-breaking.

    Parameters
    ----------
    k:
        Stage-1 sample size (candidate pool).
    kn:
        Stage-2 working-set size; must satisfy ``1 <= kn <= k``.
    stream:
        Seeded random stream used for the stage-1 sample, so runs are
        reproducible.
    """

    def __init__(self, k: int, kn: int, stream: RandomStream) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not 1 <= kn <= k:
            raise ValueError(f"kn must satisfy 1 <= kn <= k, got kn={kn}, k={k}")
        self.k = k
        self.kn = kn
        self._stream = stream

    def select(self, candidates: Sequence[P]) -> KnBestSelection:
        """Run both stages over the capable set ``P_q``.

        ``candidates`` may be any sequence -- in particular the
        registry's reusable ``capable_snapshot`` tuple, which stage 1
        samples without a defensive copy (the stream's inlined sampler
        indexes lists and tuples in place).  When fewer than ``k``
        candidates exist the whole set is sampled (the strategy
        degrades gracefully as providers depart); the working set is
        then the ``min(kn, |K|)`` least utilized.  Utilization ties
        break on ``participant_id`` so that a seeded run is bit-for-bit
        reproducible.
        """
        sampled: List[P] = self._stream.sample(candidates, self.k)
        by_load = sorted(sampled, key=lambda p: (p.utilization, p.participant_id))
        working = by_load[: self.kn]
        return KnBestSelection(sampled=tuple(sampled), working=tuple(working))

    def sample_working(
        self, candidates: Sequence[P]
    ) -> Tuple[int, List[P], List[float]]:
        """Both stages without the :class:`KnBestSelection` wrapper.

        The hot-path form used by ``SbQAPolicy.select_fast``: same
        random draws, same load sort, same tie-breaking as
        :meth:`select`, returning ``(|K|, Kn, utilizations-of-Kn)``
        directly.  Decorate-sort replaces the per-element key lambda
        (tuples compare in C; ``participant_id`` is unique, so the
        provider in slot 3 never participates in a comparison).
        """
        sampled: List[P] = self._stream.sample(candidates, self.k)
        decorated = [(p.utilization, p.participant_id, p) for p in sampled]
        decorated.sort()
        kn = self.kn
        working = [row[2] for row in decorated[:kn]]
        loads = [row[0] for row in decorated[:kn]]
        return len(sampled), working, loads

    def sample_working_ordinals(
        self, candidates: Sequence[P], ranks: Sequence[int]
    ) -> Tuple[int, List[Tuple[float, int, int]]]:
        """Both stages in snapshot-ordinal space (the SoA kernel's form).

        ``ranks[s]`` must be the position of ``candidates[s]`` in the
        ``participant_id``-sorted order of the snapshot.  Integer ranks
        are order-isomorphic to the id strings within one snapshot, so
        the ``(utilization, rank)`` sort breaks ties exactly like
        :meth:`sample_working`'s ``(utilization, participant_id)`` sort
        -- the oracle tests assert this isomorphism -- while comparing
        machine ints instead of strings.  Stage 1 draws *indices*
        through :meth:`RandomStream.sample_indices`, which consumes the
        identical ``getrandbits`` sequence as sampling the elements.

        Returns ``(|K|, working)`` where ``working`` is the stage-2
        list of ``(utilization, rank, ordinal)`` rows, least utilized
        first.
        """
        indices = self._stream.sample_indices(len(candidates), self.k)
        decorated = [
            (candidates[s].utilization, ranks[s], s) for s in indices
        ]
        decorated.sort()
        return len(indices), decorated[: self.kn]

    def __repr__(self) -> str:
        return f"KnBestSelector(k={self.k}, kn={self.kn})"
