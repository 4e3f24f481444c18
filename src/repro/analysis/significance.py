"""Statistical comparison of replicated experiment results.

Single seeded runs settle "who wins" at one operating point; scenario
claims -- and the significance annotations in every
:class:`~repro.api.results.SweepResult` digest -- deserve better.  This
module compares a summary metric across two sets of replications with
Welch's unequal-variance t-test; only the t-distribution CDF comes from
scipy, the statistic itself is computed from the textbook formulas.

Why Welch and not Student: the two cells of a comparison are different
configurations (different policies, or different sweep coordinates), so
there is no reason to expect their variances to be equal -- and pooled-
variance t-tests are badly sized under variance heterogeneity.  Welch's
test drops the equal-variance assumption at the cost of approximating
the degrees of freedom (Welch-Satterthwaite).

Assumptions that DO remain, and how this codebase meets them:

* **Independence across samples.**  Each sample is one replication;
  replication ``i`` derives an independent random root from
  ``(seed, i)`` (:func:`repro.des.rng.spawn_replication_root`), so
  within-cell samples are independent draws.  Note that the two *cells*
  share replication seeds by design (common random numbers); the test
  treats them as unpaired, which is conservative -- positive correlation
  between cells shrinks the true variance of the difference below what
  the unpaired test assumes.
* **Approximate normality of the cell means.**  Each sample is itself a
  run-level aggregate (a mean, a final value, a quantile) over thousands
  of simulated interactions, so the CLT does a lot of work even at small
  replication counts; still, with fewer than ~5 replications per cell,
  treat borderline p-values as indicative, not conclusive.
* **At least two replications per cell** -- a sample variance needs
  Bessel's ``n - 1 >= 1``.  :func:`welch_t_test` raises below that, and
  the sweep layer simply omits comparisons for single-replication runs.

Identical (zero-variance) cells return ``t = 0, p = 1`` rather than
dividing by zero: equality is the strongest possible failure to reject.

**Multiple comparisons.**  A sweep point compares every policy pair on
every metric, and a tuning rung tests every challenger against the
incumbent; at a per-test ``alpha`` of 0.05 a 20-test family expects one
false positive.  :func:`holm_correction` implements the Holm-Bonferroni
step-down adjustment -- uniformly more powerful than plain Bonferroni,
valid under arbitrary dependence between the tests -- and
:func:`holm_adjust` applies it to a family of :class:`Comparison`
values, filling their ``p_adjusted`` field.  The sweep layer corrects
within each point's family, the tuner within each rung's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.analysis.stats import mean


@dataclass(frozen=True)
class Comparison:
    """Welch t-test of one metric between two replication sets.

    ``p_adjusted`` is the multiplicity-corrected p-value when the
    comparison belongs to a family that went through
    :func:`holm_adjust`; ``None`` for a lone, uncorrected test.
    """

    metric: str
    label_a: str
    label_b: str
    mean_a: float
    mean_b: float
    difference: float  # mean_a - mean_b
    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    p_adjusted: Optional[float] = None

    def significant(self, alpha: float = 0.05) -> bool:
        """Two-sided significance at level ``alpha``.

        Judged on the Holm-adjusted p-value when the comparison was
        corrected as part of a family, on the raw p-value otherwise.
        """
        p = self.p_value if self.p_adjusted is None else self.p_adjusted
        return p < alpha

    def format(self) -> str:
        adjusted = (
            "" if self.p_adjusted is None else f", p_holm={self.p_adjusted:.4f}"
        )
        return (
            f"{self.metric}: {self.label_a}={self.mean_a:.4g} vs "
            f"{self.label_b}={self.mean_b:.4g} (diff {self.difference:+.4g}, "
            f"t={self.t_statistic:.2f}, dof={self.degrees_of_freedom:.1f}, "
            f"p={self.p_value:.4f}{adjusted})"
        )

    def as_dict(self) -> dict:
        """JSON-friendly form (the sweep digest's comparison entries)."""
        return {
            "metric": self.metric,
            "label_a": self.label_a,
            "label_b": self.label_b,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "difference": self.difference,
            "t_statistic": self.t_statistic,
            "degrees_of_freedom": self.degrees_of_freedom,
            "p_value": self.p_value,
            "p_adjusted": self.p_adjusted,
        }


def welch_t_test(samples_a: Sequence[float], samples_b: Sequence[float]) -> tuple:
    """Welch's t statistic, degrees of freedom and two-sided p-value.

    Implemented from the textbook formulas (sample variances with
    Bessel's correction, Welch-Satterthwaite dof); only the t-CDF comes
    from scipy.  Identical samples yield ``t = 0, p = 1``.
    """
    n_a, n_b = len(samples_a), len(samples_b)
    if n_a < 2 or n_b < 2:
        raise ValueError(
            f"need at least 2 samples per side, got {n_a} and {n_b}"
        )
    mean_a, mean_b = mean(list(samples_a)), mean(list(samples_b))
    var_a = sum((x - mean_a) ** 2 for x in samples_a) / (n_a - 1)
    var_b = sum((x - mean_b) ** 2 for x in samples_b) / (n_b - 1)
    pooled = var_a / n_a + var_b / n_b
    if pooled == 0.0:
        return 0.0, float(n_a + n_b - 2), 1.0
    t = (mean_a - mean_b) / math.sqrt(pooled)
    dof = pooled**2 / (
        (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
    )
    # Imported here, not at module scope: this line is scipy's only
    # user, and the module is on the import path of every run.
    try:
        from scipy import stats as scipy_stats
    except ImportError as exc:
        raise ImportError(
            "welch_t_test needs scipy for the t-distribution CDF; "
            "install the 'stats' extra (pip install sbqa-repro[stats])"
        ) from exc
    p = 2.0 * float(scipy_stats.t.sf(abs(t), dof))
    return t, dof, p


def holm_correction(p_values: Sequence[float]) -> List[float]:
    """Holm-Bonferroni adjusted p-values, in the input order.

    Step-down procedure: sort the ``m`` raw p-values ascending, scale
    the ``i``-th smallest by ``m - i`` (0-based), enforce monotonicity
    with a running maximum, and clip at 1.  Rejecting where
    ``adjusted < alpha`` reproduces Holm's sequential test exactly, and
    controls the family-wise error rate at ``alpha`` under arbitrary
    dependence between the tests -- important here, where every
    comparison shares the incumbent cell.
    """
    m = len(p_values)
    if m == 0:
        return []
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-values must lie in [0, 1], got {p!r}")
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, index in enumerate(order):
        running = max(running, (m - rank) * p_values[index])
        adjusted[index] = min(1.0, running)
    return adjusted


def holm_adjust(comparisons: Sequence[Comparison]) -> List[Comparison]:
    """One family of comparisons with ``p_adjusted`` filled in (Holm).

    The input order is preserved; each returned :class:`Comparison` is
    a copy whose :meth:`Comparison.significant` now judges the
    family-wise corrected p-value.
    """
    adjusted = holm_correction([c.p_value for c in comparisons])
    return [
        replace(comparison, p_adjusted=p)
        for comparison, p in zip(comparisons, adjusted)
    ]

