"""Statistics helpers used across metrics, experiments and benches.

Everything here is dependency-free pure Python; numpy is available in
the environment but these run on small samples inside hot loops where
conversion overhead would dominate.

Two conventions worth knowing before building on this module (the
sweep digest and its significance annotations lean on both):

* :func:`stdev` and :attr:`Welford.variance` are **population**
  moments (divide by ``n``) -- they describe the spread of the data at
  hand, e.g. the ``mean ± stdev`` cells of comparison tables.  The
  **sample** variance with Bessel's correction (divide by ``n - 1``),
  needed when the replications stand in for an infinite population of
  seeds, is computed where inference happens:
  :func:`repro.analysis.significance.welch_t_test` applies the
  correction itself from the raw samples.
* :class:`Welford` accumulators compose: two accumulators built over
  disjoint sample streams (e.g. in different worker processes) merge
  into one that is numerically equivalent to having seen every sample
  in a single pass -- see :meth:`Welford.merge`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence


def mean(values: Sequence[float], default: float = 0.0) -> float:
    """Arithmetic mean; ``default`` for an empty sequence."""
    if not values:
        return default
    return sum(values) / len(values)


def median(values: Sequence[float], default: float = 0.0) -> float:
    """Median; ``default`` for an empty sequence."""
    if not values:
        return default
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float, default: float = 0.0) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    return percentiles(values, (q,), default)[0]


def percentiles(
    values: Sequence[float], qs: Sequence[float], default: float = 0.0
) -> List[float]:
    """:func:`percentile` at every ``q`` of ``qs``, from one sort."""
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return [default] * len(qs)
    ordered = sorted(values)
    last = len(ordered) - 1
    out = []
    for q in qs:
        rank = (q / 100.0) * last
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            out.append(ordered[low])
        else:
            frac = rank - low
            out.append(ordered[low] * (1.0 - frac) + ordered[high] * frac)
    return out


def stdev(values: Sequence[float], default: float = 0.0) -> float:
    """Population standard deviation; ``default`` for fewer than 2 samples."""
    if len(values) < 2:
        return default
    m = mean(values)
    return math.sqrt(sum([(v - m) ** 2 for v in values]) / len(values))


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative distribution.

    0 means perfectly even (every provider did the same work), values
    toward 1 mean concentration.  Used as the load-balance metric of
    Scenario 5 ("balances better queries among volunteers").
    """
    if not values:
        return 0.0
    if min(values) < 0:
        raise ValueError("gini requires non-negative values")
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    # Standard formula: G = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n
    weighted = sum(map(operator.mul, range(1, n + 1), ordered))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


class Welford:
    """Streaming mean/variance accumulator (Welford's algorithm).

    Used where storing every sample would be wasteful, e.g. per-window
    throughput accounting in long runs.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean of samples so far (0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0 with fewer than 2 samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stdev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "Welford") -> "Welford":
        """Combine two accumulators (parallel merge); returns a new one.

        Implements the Chan et al. parallel update: with
        ``delta = mean_b - mean_a``, the merged sum of squared
        deviations is ``m2_a + m2_b + delta^2 * n_a * n_b / n`` -- the
        within-part spreads plus the between-part separation.  The
        result is numerically equivalent to :meth:`add`-ing every
        sample into a single accumulator (exactly equal counts/means,
        variance equal up to floating-point rounding), which is what
        lets per-worker accumulators from a parallel session or sweep
        be folded without re-reading samples.  Neither operand is
        mutated; empty accumulators are identities of the merge.
        """
        merged = Welford()
        if self.count == 0:
            merged.count, merged._mean, merged._m2 = other.count, other._mean, other._m2
            merged.minimum, merged.maximum = other.minimum, other.maximum
            return merged
        if other.count == 0:
            merged.count, merged._mean, merged._m2 = self.count, self._mean, self._m2
            merged.minimum, merged.maximum = self.minimum, self.maximum
            return merged
        count = self.count + other.count
        delta = other._mean - self._mean
        merged.count = count
        merged._mean = self._mean + delta * other.count / count
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self.count * other.count / count
        )
        merged.minimum = min(self.minimum, other.minimum)  # type: ignore[arg-type]
        merged.maximum = max(self.maximum, other.maximum)  # type: ignore[arg-type]
        return merged

    def __repr__(self) -> str:
        return f"Welford(count={self.count}, mean={self.mean:.4g}, stdev={self.stdev:.4g})"


@dataclass(frozen=True)
class DistributionSummary:
    """The descriptive statistics the benches report for a sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize_distribution(values: Sequence[float]) -> DistributionSummary:
    """Build a :class:`DistributionSummary` (all zeros for empty input)."""
    if not values:
        return DistributionSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return DistributionSummary(
        count=len(values),
        mean=mean(values),
        stdev=stdev(values),
        minimum=min(values),
        p50=percentile(values, 50),
        p95=percentile(values, 95),
        p99=percentile(values, 99),
        maximum=max(values),
    )
