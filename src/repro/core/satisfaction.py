"""The satisfaction model (Section II of the paper).

Participants judge the mediator *in the long run*, over a sliding
window of their ``k`` last interactions with the system:

* A **consumer** ``c`` obtains, for each query ``q``, the per-query
  satisfaction of Equation 1::

      delta_s(c, q) = (1 / n) * sum_{p in P̂_q} (CI_q[p] + 1) / 2

  where ``n`` is the number of results it required and ``P̂_q`` the set
  of providers that performed ``q``.  Its long-run satisfaction
  (Definition 1) is the mean of the per-query values over the ``k``
  last queries.

* A **provider** ``p`` tracks the intentions it expressed for the ``k``
  last queries *proposed* to it; its satisfaction (Definition 2) is the
  mean of ``(PPI_p[q] + 1) / 2`` over the subset ``SQ^k_p`` of those
  queries it actually *performed*, and 0 when it performed none of
  them.

Both notions live in [0, 1]; the closer to 1, the more satisfied the
participant.  Participants decide to stay or leave based on these
values (Scenario 2), which is why the model "may have a deep impact on
the system".

This module also implements the two companion notions from the SQLB
paper [12] that the demo paper mentions but does not restate:
*adequation* (how well the system could possibly serve the participant)
and *allocation satisfaction* (how close the mediator's allocation got
to that possible best).  They are reconstructions faithful to [12]'s
intent and are used by the analysis layer, never by the allocation
decision itself.

Both trackers keep *incremental* window aggregates: appends update
rolling sums in O(1) and reads are O(1), instead of re-summing the
whole window on every read.  Reads dominate writes system-wide (the
mediation hot loop reads one provider satisfaction per consulted
provider per query, churn checks and metric sweeps read every
participant), so this is the first layer of the hot-path engine.
Until the window wraps, the rolling sum accumulates in exactly the
order a left-to-right re-summation would, so values are bit-identical
to the naive form; once eviction starts, the sums are refreshed from
the window contents every ``memory`` evictions, which bounds
floating-point drift to a few ulps, and means are clamped into the
mathematically guaranteed [0, 1] range.

The provider windows are the bulk of a long run's resident state --
every provider holds ``k`` entries, ``N * k`` in all -- so the provider
tracker keeps its window as a ring of unboxed columns (an
``array('d')`` of intentions and a ``bytearray`` of performed flags,
9 bytes per entry) rather than a deque of tuples.  The consumer
windows, a handful per run, stay deques.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import chain
from typing import Deque, Iterable, Iterator, List, Sequence, Tuple

#: Default length of the interaction window ("the k last interactions").
#: The paper assumes all participants use the same k for simplicity.
DEFAULT_MEMORY = 100

#: Satisfaction reported before any interaction happened.  The paper
#: leaves the cold-start value unspecified; 0.5 is the neutral midpoint
#: and keeps Equation 2's omega at 1/2 until evidence accumulates.
NEUTRAL_SATISFACTION = 0.5


def intention_to_unit(intention: float) -> float:
    """Map an intention in [-1, 1] to the unit interval: ``(i + 1) / 2``.

    This is the transformation applied inside Equation 1 and
    Definition 2.
    """
    if not -1.0 <= intention <= 1.0:
        raise ValueError(f"intention must be in [-1, 1], got {intention}")
    return (intention + 1.0) / 2.0


def consumer_query_satisfaction(
    performer_intentions: Iterable[float],
    n_results: int,
) -> float:
    """Equation 1: per-query satisfaction of a consumer.

    Parameters
    ----------
    performer_intentions:
        ``CI_q[p]`` for every provider ``p`` that performed ``q``
        (values in [-1, 1]).
    n_results:
        ``n``, the number of results the consumer required.  Dividing
        by ``n`` (not by the number of performers) means missing
        results -- fewer providers allocated than requested -- directly
        depress satisfaction.

    Returns
    -------
    float
        Value in [0, 1].  Allocating more than ``n`` providers cannot
        push it above 1 because the mediator allocates at most
        ``min(n, kn)``; the function still clamps defensively.
    """
    if n_results < 1:
        raise ValueError(f"n_results must be >= 1, got {n_results}")
    total = 0.0
    for intention in performer_intentions:
        total += intention_to_unit(intention)
    return min(1.0, total / n_results)


def adequation(candidate_intentions: Sequence[float], n_results: int) -> float:
    """Best per-query satisfaction achievable given the candidate set.

    Reconstruction of the *adequation* notion of [12]: the satisfaction
    Equation 1 would yield had the mediator allocated the ``n`` most
    wanted providers among those able to perform the query.  Used to
    normalise satisfaction into *allocation satisfaction* -- a mediator
    should not be blamed for an inadequate provider population.
    """
    if n_results < 1:
        raise ValueError(f"n_results must be >= 1, got {n_results}")
    best = sorted(candidate_intentions, reverse=True)[:n_results]
    return consumer_query_satisfaction(best, n_results)


def allocation_satisfaction(achieved: float, achievable: float) -> float:
    """How close the mediator got to the best possible allocation.

    Reconstruction of [12]'s allocation-satisfaction notion: the ratio
    of achieved per-query satisfaction to the adequation, clamped to
    [0, 1].  When nothing was achievable (adequation 0), the mediator
    is not at fault and the value is defined as 1.
    """
    if not 0.0 <= achieved <= 1.0:
        raise ValueError(f"achieved satisfaction must be in [0, 1], got {achieved}")
    if not 0.0 <= achievable <= 1.0:
        raise ValueError(f"achievable satisfaction must be in [0, 1], got {achievable}")
    if achievable == 0.0:
        return 1.0
    return min(1.0, achieved / achievable)


def _clamp_unit(value: float) -> float:
    """Clamp a rolling mean into [0, 1] (guards accumulated ulp drift)."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


class ConsumerSatisfactionTracker:
    """Definition 1: sliding-window mean of per-query satisfactions.

    The window holds the satisfactions of the ``k`` last queries the
    consumer issued (the set ``IQ^k_c``).  It also retains the matching
    adequation values so the analysis layer can compute long-run
    allocation satisfaction.

    All three window means (satisfaction, adequation, allocation
    satisfaction) are maintained as rolling sums, so reads -- the hot
    operation -- are O(1) regardless of the window length.
    """

    def __init__(self, memory: int = DEFAULT_MEMORY) -> None:
        if memory < 1:
            raise ValueError(f"memory must be >= 1, got {memory}")
        self.memory = memory
        self._satisfactions: Deque[float] = deque(maxlen=memory)
        self._adequations: Deque[float] = deque(maxlen=memory)
        self.total_recorded = 0
        self._sat_sum = 0.0
        self._adq_sum = 0.0
        self._ratio_sum = 0.0
        self._evictions_since_rebuild = 0

    def record_query(self, satisfaction: float, adequation_value: float = 1.0) -> None:
        """Record the outcome of one query (Equation 1 value + adequation)."""
        if not 0.0 <= satisfaction <= 1.0:
            raise ValueError(f"satisfaction must be in [0, 1], got {satisfaction}")
        if not 0.0 <= adequation_value <= 1.0:
            raise ValueError(f"adequation must be in [0, 1], got {adequation_value}")
        satisfactions = self._satisfactions
        if len(satisfactions) == self.memory:
            # The deques evict in lockstep; fold the departing entry out
            # of each rolling sum before folding the new one in.
            evicted_sat = satisfactions[0]
            evicted_adq = self._adequations[0]
            self._sat_sum -= evicted_sat
            self._adq_sum -= evicted_adq
            self._ratio_sum -= allocation_satisfaction(evicted_sat, evicted_adq)
            self._evictions_since_rebuild += 1
        satisfactions.append(satisfaction)
        self._adequations.append(adequation_value)
        self._sat_sum += satisfaction
        self._adq_sum += adequation_value
        self._ratio_sum += allocation_satisfaction(satisfaction, adequation_value)
        self.total_recorded += 1
        if self._evictions_since_rebuild >= self.memory:
            self._rebuild_sums()

    def _rebuild_sums(self) -> None:
        """Re-sum the window left-to-right, discarding rolling drift."""
        self._sat_sum = sum(self._satisfactions)
        self._adq_sum = sum(self._adequations)
        self._ratio_sum = sum(
            allocation_satisfaction(s, a)
            for s, a in zip(self._satisfactions, self._adequations)
        )
        self._evictions_since_rebuild = 0

    def satisfaction(self, default: float = NEUTRAL_SATISFACTION) -> float:
        """Long-run satisfaction delta_s(c); ``default`` before any query."""
        n = len(self._satisfactions)
        if not n:
            return default
        return _clamp_unit(self._sat_sum / n)

    def allocation_satisfaction(self, default: float = NEUTRAL_SATISFACTION) -> float:
        """Long-run mean of per-query allocation satisfaction."""
        n = len(self._satisfactions)
        if not n:
            return default
        return _clamp_unit(self._ratio_sum / n)

    def adequation(self, default: float = NEUTRAL_SATISFACTION) -> float:
        """Long-run mean adequation of the system for this consumer."""
        n = len(self._adequations)
        if not n:
            return default
        return _clamp_unit(self._adq_sum / n)

    @property
    def observations(self) -> int:
        """Number of queries currently inside the window."""
        return len(self._satisfactions)

    def reset(self) -> None:
        """Forget the window (a rejoining participant starts afresh)."""
        self._satisfactions.clear()
        self._adequations.clear()
        self._sat_sum = 0.0
        self._adq_sum = 0.0
        self._ratio_sum = 0.0
        self._evictions_since_rebuild = 0

    def __repr__(self) -> str:
        return (
            f"ConsumerSatisfactionTracker(memory={self.memory}, "
            f"observations={self.observations}, "
            f"satisfaction={self.satisfaction():.3f})"
        )


class ProviderSatisfactionTracker:
    """Definition 2: satisfaction over the k last *proposed* queries.

    Every query the mediator proposes to the provider (for SbQA, every
    query for which the provider was in the consulted set ``Kn``; for
    direct-allocation baselines, every query it received) records one
    entry ``(PPI_p[q], performed?)``.  Satisfaction is the mean of
    ``(PPI + 1) / 2`` over *performed* entries inside the window and
    exactly 0 when the window contains proposals but no performed query
    -- a provider that is consulted yet never chosen is maximally
    dissatisfied, which is what drives departure in Scenario 2.

    The window is a fixed-size ring of two unboxed columns: the
    intentions in an ``array('d')`` (every IEEE bit kept, ``-0.0``
    included) and the performed flags in a ``bytearray`` -- 9 bytes per
    entry, and no allocation per proposal once the window is full.
    The ring grows by appending until it holds ``memory`` entries;
    from then on ``_pos`` is the oldest entry, which the next proposal
    overwrites in place before ``_pos`` moves on (``_pos`` stays 0
    while the ring fills, where the oldest entry is too).
    :meth:`window_entries` gives the entries as ``(intention,
    performed)`` tuples, oldest first.
    """

    def __init__(self, memory: int = DEFAULT_MEMORY) -> None:
        if memory < 1:
            raise ValueError(f"memory must be >= 1, got {memory}")
        self.memory = memory
        self._intentions = array("d")
        self._performed = bytearray()
        self._pos = 0
        self.total_proposed = 0
        self.total_performed = 0
        self._performed_in_window = 0
        self._performed_unit_sum = 0.0
        self._evictions_since_rebuild = 0

    def record_proposal(self, intention: float, performed: bool) -> None:
        """Record one proposed query and whether this provider performs it."""
        if not -1.0 <= intention <= 1.0:
            raise ValueError(f"intention must be in [-1, 1], got {intention}")
        intentions = self._intentions
        memory = self.memory
        flag = 1 if performed else 0
        if len(intentions) == memory:
            pos = self._pos
            flags = self._performed
            if flags[pos]:
                self._performed_in_window -= 1
                self._performed_unit_sum -= (intentions[pos] + 1.0) / 2.0
            self._evictions_since_rebuild += 1
            intentions[pos] = intention
            flags[pos] = flag
            pos += 1
            self._pos = 0 if pos == memory else pos
        else:
            intentions.append(intention)
            self._performed.append(flag)
        self.total_proposed += 1
        if flag:
            self.total_performed += 1
            self._performed_in_window += 1
            self._performed_unit_sum += (intention + 1.0) / 2.0
        if self._evictions_since_rebuild >= memory:
            self._rebuild_sums()

    def _window_order(self) -> Iterator[int]:
        """Ring indices of the window entries, oldest first."""
        start = self._pos
        return chain(range(start, len(self._intentions)), range(start))

    def _rebuild_sums(self) -> None:
        """Re-sum the performed window oldest-to-newest, discarding drift."""
        intentions = self._intentions
        flags = self._performed
        self._performed_in_window = 0
        self._performed_unit_sum = 0.0
        for i in self._window_order():
            if flags[i]:
                self._performed_in_window += 1
                self._performed_unit_sum += (intentions[i] + 1.0) / 2.0
        self._evictions_since_rebuild = 0

    def satisfaction(self, default: float = NEUTRAL_SATISFACTION) -> float:
        """delta_s(p) per Definition 2; ``default`` before any proposal."""
        if not self._intentions:
            return default
        performed = self._performed_in_window
        if not performed:
            return 0.0
        return _clamp_unit(self._performed_unit_sum / performed)

    def performed_fraction(self) -> float:
        """Share of window proposals the provider performed (diagnostic)."""
        if not self._intentions:
            return 0.0
        return self._performed_in_window / len(self._intentions)

    @property
    def observations(self) -> int:
        """Number of proposals currently inside the window."""
        return len(self._intentions)

    def window_entries(self) -> List[Tuple[float, bool]]:
        """Copy of the window contents (oldest first); used by analysis."""
        intentions = self._intentions
        flags = self._performed
        return [(intentions[i], bool(flags[i])) for i in self._window_order()]

    def reset(self) -> None:
        """Forget the window (a rejoining participant starts afresh)."""
        del self._intentions[:]
        self._performed.clear()
        self._pos = 0
        self._performed_in_window = 0
        self._performed_unit_sum = 0.0
        self._evictions_since_rebuild = 0

    def __repr__(self) -> str:
        return (
            f"ProviderSatisfactionTracker(memory={self.memory}, "
            f"observations={self.observations}, "
            f"satisfaction={self.satisfaction():.3f})"
        )
