"""Append-only time series with the handful of operations reports need,
the P² streaming quantile estimator, and the exact quantile set the
serving mode reports over unboxed ``array('d')`` samples."""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.stats import mean, percentiles


class TimeSeries:
    """A named sequence of ``(t, value)`` samples, non-decreasing in t."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, t: float, value: float) -> None:
        """Add one sample; timestamps must not go backwards."""
        if self._times and t < self._times[-1]:
            raise ValueError(
                f"series {self.name!r}: time went backwards "
                f"({self._times[-1]:.6g} -> {t:.6g})"
            )
        self._times.append(t)
        self._values.append(value)

    # -- access -----------------------------------------------------------

    @property
    def times(self) -> List[float]:
        return list(self._times)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def points(self) -> List[Tuple[float, float]]:
        """All samples as ``(t, value)`` pairs."""
        return list(zip(self._times, self._values))

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def last(self) -> Optional[float]:
        """Most recent value, or None when empty."""
        return self._values[-1] if self._values else None

    def value_at(self, t: float) -> Optional[float]:
        """Last value sampled at or before ``t`` (step interpolation)."""
        result = None
        for time, value in zip(self._times, self._values):
            if time > t:
                break
            result = value
        return result

    def window(self, t_lo: float, t_hi: float) -> List[Tuple[float, float]]:
        """Samples with ``t_lo <= t <= t_hi``."""
        if t_hi < t_lo:
            raise ValueError(f"empty window: [{t_lo}, {t_hi}]")
        return [
            (t, v) for t, v in zip(self._times, self._values) if t_lo <= t <= t_hi
        ]

    def mean(self, t_lo: Optional[float] = None, t_hi: Optional[float] = None) -> float:
        """Mean value over an optional time window (0 when empty)."""
        if t_lo is None and t_hi is None:
            values: Sequence[float] = self._values
        else:
            lo = self._times[0] if t_lo is None and self._times else (t_lo or 0.0)
            hi = self._times[-1] if t_hi is None and self._times else (t_hi or 0.0)
            values = [v for _, v in self.window(lo, hi)]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def tail_mean(self, fraction: float = 0.25) -> float:
        """Mean of the last ``fraction`` of samples -- the steady-state
        estimate reports use (0 when empty)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if not self._values:
            return 0.0
        count = max(1, int(len(self._values) * fraction))
        chunk = self._values[-count:]
        return sum(chunk) / len(chunk)

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, n={len(self)}, last={self.last})"


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain &
    Chlamtac, CACM 1985): five markers, O(1) memory and update.

    Exact (it simply sorts) until five observations have arrived; after
    that the markers track the target quantile with parabolic
    interpolation.  For a stream too long to keep; the serving mode
    keeps its samples and reports them exactly (:class:`QuantileSet`).
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "_count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = float(q)
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, x: float) -> None:
        """Fold one observation into the estimate."""
        x = float(x)
        self._count += 1
        heights = self._heights
        if self._count <= 5:
            heights.append(x)
            heights.sort()
            return

        # locate the cell k with q[k] <= x < q[k+1], stretching extremes
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= heights[k + 1]:
                k += 1

        positions = self._positions
        for i in range(k + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        for i in range(5):
            desired[i] += self._increments[i]

        # adjust the three middle markers towards their desired positions
        for i in (1, 2, 3):
            d = desired[i] - positions[i]
            if (d >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                d <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> Optional[float]:
        """Current estimate (None when empty; exact for n <= 5)."""
        count = self._count
        if count == 0:
            return None
        heights = self._heights
        if count <= 5:
            # exact: linear-interpolated order statistic over the
            # sorted buffer, matching numpy's default percentile
            rank = self.q * (count - 1)
            lo = int(rank)
            hi = min(lo + 1, count - 1)
            frac = rank - lo
            return heights[lo] * (1.0 - frac) + heights[hi] * frac
        return heights[2]

    def __repr__(self) -> str:
        value = self.value()
        shown = "none" if value is None else f"{value:.6g}"
        return f"P2Quantile(q={self.q}, n={self._count}, value={shown})"


#: The quantile set live serving dashboards report.
DEFAULT_QUANTILES = (0.50, 0.95, 0.99)


class QuantileSet:
    """Exact quantiles (p50/p95/p99 by default), count, mean, min and
    max of one stream of observations, kept as an ``array('d')``.

    ``add`` is one append of an unboxed 8-byte double; a read sorts
    once and interpolates like :func:`~repro.analysis.stats.percentile`,
    so the figures equal a finished run's summary.  ``values`` may be
    an array someone else appends to (the serve engine reads the hub's
    response times this way).
    """

    __slots__ = ("name", "quantiles", "values")

    def __init__(
        self,
        name: str,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        values: Optional[array] = None,
    ) -> None:
        if not quantiles:
            raise ValueError("need at least one quantile")
        for q in quantiles:
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.name = name
        self.quantiles = tuple(float(q) for q in quantiles)
        self.values = array("d") if values is None else values

    def add(self, x: float) -> None:
        """Keep one observation."""
        self.values.append(x)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return mean(self.values)

    def quantile(self, q: float) -> Optional[float]:
        """One tracked quantile (None when empty; KeyError if untracked)."""
        if q not in self.quantiles:
            raise KeyError(f"quantile {q} is not tracked by {self.name!r}")
        return percentiles(self.values, (100.0 * q,), None)[0]

    def snapshot(self) -> Dict[str, Optional[float]]:
        """JSON-friendly view: count, mean, min/max and every quantile
        keyed as ``p50`` / ``p95`` / ``p99`` (trailing zeros trimmed)."""
        # percentile 0 and 100 are the ends of the one sorted copy
        low, high, *read = percentiles(
            self.values, [0.0, 100.0] + [100.0 * q for q in self.quantiles], None
        )
        out: Dict[str, Optional[float]] = {
            "count": len(self.values),
            "mean": mean(self.values, None),
            "min": low,
            "max": high,
        }
        for q, value in zip(self.quantiles, read):
            key = f"{q * 100:g}".replace(".", "_")
            out[f"p{key}"] = value
        return out

    def __repr__(self) -> str:
        tracked = ", ".join(f"{q:g}" for q in self.quantiles)
        return f"QuantileSet({self.name!r}, n={len(self)}, q=[{tracked}])"
