"""Aggregated experiment outcomes: :class:`ExperimentResult` and friends.

One :class:`Session.run` produces one :class:`ExperimentResult`: a
:class:`PolicyResult` per compared policy, each holding the per-
replication :class:`RunSummary` values (and, in serial mode, the full
:class:`RunResult` objects for deep inspection).  The aggregate unifies
what ``RunResult`` / ``ScenarioResult`` exposed separately: comparison
tables, mean +- stdev cells, CSV and JSON export.

One :class:`SweepSession.run` produces one :class:`SweepResult`: a
:class:`SweepPointResult` (point metadata + the point's
``ExperimentResult``) per grid point, plus the cross-point analysis
layer -- pairwise Welch t-tests between policies within each point,
best-per-metric cells annotated with their significance against the
runner-up, tidy long-format CSV, and a JSON digest that is independent
of *how* the sweep executed (serial, parallel, streamed), so parity can
be checked byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.export import rows_to_csv
from repro.analysis.significance import Comparison, holm_adjust, welch_t_test
from repro.analysis.stats import mean, stdev
from repro.analysis.tables import render_table
from repro.experiments.config import PolicySpec
from repro.experiments.report import DEFAULT_COLUMNS, _HEADERS
from repro.metrics.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ExperimentSpec
    from repro.api.sweep import SweepPoint, SweepSpec
    from repro.experiments.runner import RunResult

#: Summary fields aggregated across replications.
AGGREGATED_FIELDS = (
    "mean_rt",
    "p95_rt",
    "tail_rt",
    "throughput",
    "failure_rate",
    "consumer_sat_final",
    "provider_sat_final",
    "consumer_sat_mean",
    "provider_sat_mean",
    "providers_remaining",
    "consumers_remaining",
    "provider_departures",
    "consumer_departures",
    "capacity_remaining_fraction",
    "utilization_gini",
    "work_gini",
    "coordination_messages",
)

#: Metrics the sweep digest compares pairwise between policies.
DEFAULT_COMPARISON_METRICS = (
    "consumer_sat_final",
    "provider_sat_final",
    "mean_rt",
)

#: Columns of the default sweep trade-off table: the quality metrics
#: plus the coordination cost -- the two sides of the paper's
#: allocation-quality vs overhead trade-off.
DEFAULT_SWEEP_COLUMNS = (
    "consumer_sat_final",
    "provider_sat_final",
    "mean_rt",
    "p95_rt",
    "work_gini",
    "coordination_messages",
)

#: Aggregated metrics where smaller values are better (response times,
#: failure and imbalance measures, departures); everything else --
#: satisfaction, throughput, survivors -- is maximized.
_MINIMIZED_METRICS = frozenset(
    {
        "mean_rt",
        "p95_rt",
        "tail_rt",
        "failure_rate",
        "utilization_gini",
        "work_gini",
        "provider_departures",
        "consumer_departures",
        "coordination_messages",
    }
)


def metric_minimizes(metric: str) -> bool:
    """Whether lower values of one aggregated metric are better."""
    return metric in _MINIMIZED_METRICS


@dataclass
class PolicyResult:
    """All replications of one policy within an experiment."""

    policy: PolicySpec
    summaries: List[RunSummary]
    #: Full run objects, serial execution with ``keep_runs`` only.
    runs: List["RunResult"] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.policy.label

    @property
    def replications(self) -> int:
        return len(self.summaries)

    @property
    def summary(self) -> RunSummary:
        """The first replication's summary (the common single-rep case)."""
        return self.summaries[0]

    def run(self, replication: int = 0) -> "RunResult":
        """The full :class:`RunResult` of one replication.

        Available only after serial execution with ``keep_runs`` (the
        parallel path ships summaries back from worker processes, not
        live simulation objects).
        """
        if not self.runs:
            raise RuntimeError(
                f"no RunResults kept for policy {self.label!r}; "
                "run the session serially with keep_runs=True to inspect runs"
            )
        return self.runs[replication]

    def values(self, key: str) -> List[float]:
        """The per-replication values of one aggregated summary field."""
        if key not in AGGREGATED_FIELDS:
            raise KeyError(
                f"field {key!r} is not aggregated; "
                f"aggregated fields: {', '.join(AGGREGATED_FIELDS)}"
            )
        return [float(s.as_dict()[key]) for s in self.summaries]

    def _aggregate(self, statistic) -> Dict[str, float]:
        rows = [s.as_dict() for s in self.summaries]  # once, not per field
        return {
            key: statistic([float(row[key]) for row in rows]) for key in AGGREGATED_FIELDS
        }

    @property
    def means(self) -> Dict[str, float]:
        return self._aggregate(mean)

    @property
    def stdevs(self) -> Dict[str, float]:
        return self._aggregate(stdev)

    def cell(self, key: str, decimals: int = 3) -> str:
        """``mean +- stdev`` rendering of one aggregated field."""
        values = self.values(key)
        if len(values) == 1:
            return f"{values[0]:.{decimals}f}"
        return f"{mean(values):.{decimals}f}±{stdev(values):.{decimals}f}"

    def __getitem__(self, key: str) -> float:
        return mean(self.values(key))


@dataclass
class ExperimentResult:
    """Everything one executed experiment produced."""

    spec: "ExperimentSpec"
    policies: List[PolicyResult]
    parallel: bool = False

    @property
    def labels(self) -> List[str]:
        return [p.label for p in self.policies]

    def policy(self, label: str) -> PolicyResult:
        """The results of the policy with the given label."""
        for policy in self.policies:
            if policy.label == label:
                return policy
        raise KeyError(f"no policy labelled {label!r}; have {self.labels}")

    @property
    def runs(self) -> List["RunResult"]:
        """All kept runs, (policy, replication) ordered; serial only."""
        return [run for policy in self.policies for run in policy.runs]

    def run(self, label: str, replication: int = 0) -> "RunResult":
        """One policy's full run (serial execution with kept runs)."""
        return self.policy(label).run(replication)

    def best(self, key: str, minimize: bool = False) -> PolicyResult:
        """The policy with the best mean value of one aggregated field."""
        chooser = min if minimize else max
        return chooser(self.policies, key=lambda p: p[key])

    # ------------------------------------------------------------------
    # Tables and export
    # ------------------------------------------------------------------

    def comparison_table(
        self,
        columns: Sequence[str] = DEFAULT_COLUMNS,
        decimals: int = 3,
        title: Optional[str] = None,
    ) -> str:
        """One row per policy; ``mean±stdev`` cells when replicated."""
        headers = ["policy"] + [_HEADERS.get(col, col) for col in columns]
        rows = [
            [policy.label] + [policy.cell(col, decimals) for col in columns]
            for policy in self.policies
        ]
        if title is None:
            title = (
                f"{self.spec.name} "
                f"({self.spec.replications} replication(s) per policy)"
            )
        return render_table(headers, rows, title=title)

    def to_rows(self) -> List[Dict[str, object]]:
        """One flat dict per (policy, replication): the long-format data."""
        rows = []
        for policy in self.policies:
            for replication, summary in enumerate(policy.summaries):
                row: Dict[str, object] = {
                    "experiment": self.spec.name,
                    "policy": policy.label,
                    "replication": replication,
                }
                row.update(summary.as_dict())
                rows.append(row)
        return rows

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        """Long-format CSV of every replication's flat summary."""
        rows = self.to_rows()
        headers = list(rows[0].keys())
        return rows_to_csv(headers, [[r[h] for h in headers] for r in rows], path=path)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly digest: the spec plus per-policy aggregates."""
        return {
            "spec": self.spec.to_dict(),
            "parallel": self.parallel,
            "policies": [
                {
                    "label": policy.label,
                    "replications": policy.replications,
                    "means": policy.means,
                    "stdevs": policy.stdevs,
                    "summaries": [s.as_dict() for s in policy.summaries],
                }
                for policy in self.policies
            ],
        }

    def to_json(
        self, path: Optional[Union[str, Path]] = None, indent: int = 2
    ) -> str:
        """The digest as JSON text, optionally written to ``path``."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text


# ----------------------------------------------------------------------
# Sweep results
# ----------------------------------------------------------------------


@dataclass
class SweepPointResult:
    """One grid point of a sweep: its coordinates plus its experiment."""

    point: "SweepPoint"
    experiment: ExperimentResult

    @property
    def label(self) -> str:
        """The point's coordinate label, e.g. ``"omega=0.5, kn=4"``."""
        return self.point.label

    @property
    def index(self) -> int:
        return self.point.index

    @property
    def overrides(self) -> Dict[str, object]:
        """The dot-path overrides this point applied to the base spec."""
        return dict(self.point.overrides)

    @property
    def policies(self) -> List[PolicyResult]:
        return self.experiment.policies

    def policy(self, label: str) -> PolicyResult:
        return self.experiment.policy(label)

    def comparisons(
        self, metrics: Sequence[str] = DEFAULT_COMPARISON_METRICS
    ) -> List[Comparison]:
        """Pairwise Welch t-tests between this point's policies.

        The whole point -- every policy pair on every metric -- is one
        family for multiple-comparison purposes, so the returned
        comparisons carry Holm-Bonferroni ``p_adjusted`` values and
        :meth:`Comparison.significant` judges the corrected p.  Empty
        when the point ran fewer than two replications (a t-test needs
        within-cell spread) or compares fewer than two policies.
        """
        results: List[Comparison] = []
        if len(self.policies) < 2:
            return results
        if any(p.replications < 2 for p in self.policies):
            return results
        for a, b in combinations(self.policies, 2):
            for metric in metrics:
                samples_a = a.values(metric)
                samples_b = b.values(metric)
                t, dof, p = welch_t_test(samples_a, samples_b)
                results.append(
                    Comparison(
                        metric=metric,
                        label_a=a.label,
                        label_b=b.label,
                        mean_a=mean(samples_a),
                        mean_b=mean(samples_b),
                        difference=mean(samples_a) - mean(samples_b),
                        t_statistic=t,
                        degrees_of_freedom=dof,
                        p_value=p,
                    )
                )
        return holm_adjust(results)


@dataclass
class SweepResult:
    """Everything one executed sweep produced, grid-ordered.

    ``parallel`` records how the sweep executed but deliberately stays
    out of :meth:`to_dict`/:meth:`to_json`: the digest of a sweep is a
    function of its spec and its summaries alone, so serial, parallel
    and streamed executions of the same spec serialize byte-identically.
    """

    spec: "SweepSpec"
    points: List[SweepPointResult]
    parallel: bool = False

    @property
    def labels(self) -> List[str]:
        return [p.label for p in self.points]

    def point(self, label: Union[str, int]) -> SweepPointResult:
        """One point, by coordinate label or grid index."""
        if isinstance(label, int):
            return self.points[label]
        for point in self.points:
            if point.label == label:
                return point
        raise KeyError(f"no sweep point labelled {label!r}; have {self.labels}")

    def cells(self) -> Iterator[Tuple[SweepPointResult, PolicyResult]]:
        """Every (point, policy) cell of the grid, grid-ordered."""
        for point in self.points:
            for policy in point.policies:
                yield point, policy

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def best(
        self, metric: str, minimize: Optional[bool] = None
    ) -> Tuple[SweepPointResult, PolicyResult]:
        """The (point, policy) cell with the best mean of one metric.

        ``minimize`` defaults to the metric's natural direction (see
        :func:`metric_minimizes`).  Ties resolve to the earliest cell in
        grid order, deterministically.
        """
        if minimize is None:
            minimize = metric_minimizes(metric)
        ranked = self._ranked_cells(metric, minimize)
        return ranked[0]

    def _ranked_cells(
        self, metric: str, minimize: bool
    ) -> List[Tuple[SweepPointResult, PolicyResult]]:
        cells = list(self.cells())
        if not cells:
            raise ValueError("sweep produced no cells to rank")
        # sorted() is stable, so equal means keep grid order -- the
        # ranking (and therefore the JSON digest) is deterministic.
        return sorted(
            cells, key=lambda cell: cell[1][metric], reverse=not minimize
        )

    def best_summary(
        self, metric: str, alpha: float = 0.05
    ) -> Dict[str, object]:
        """The best cell for one metric, tested against the runner-up.

        ``significant`` is None when the sweep cannot support a t-test
        (single cell, or fewer than two replications per cell).
        """
        minimize = metric_minimizes(metric)
        ranked = self._ranked_cells(metric, minimize)
        best_point, best_policy = ranked[0]
        digest: Dict[str, object] = {
            "metric": metric,
            "minimized": minimize,
            "point": best_point.label,
            "policy": best_policy.label,
            "mean": best_policy[metric],
            "runner_up": None,
            "p_value": None,
            "significant": None,
        }
        if len(ranked) < 2:
            return digest
        runner_point, runner_policy = ranked[1]
        digest["runner_up"] = {
            "point": runner_point.label,
            "policy": runner_policy.label,
            "mean": runner_policy[metric],
        }
        if best_policy.replications >= 2 and runner_policy.replications >= 2:
            _, _, p = welch_t_test(
                best_policy.values(metric), runner_policy.values(metric)
            )
            digest["p_value"] = p
            digest["significant"] = p < alpha
        return digest

    def comparisons(
        self, metrics: Sequence[str] = DEFAULT_COMPARISON_METRICS
    ) -> Dict[str, List[Comparison]]:
        """Per-point pairwise Welch comparisons, keyed by point label."""
        return {point.label: point.comparisons(metrics) for point in self.points}

    # ------------------------------------------------------------------
    # Tables and export
    # ------------------------------------------------------------------

    def table(
        self,
        columns: Sequence[str] = DEFAULT_SWEEP_COLUMNS,
        decimals: int = 3,
        title: Optional[str] = None,
        alpha: float = 0.05,
    ) -> str:
        """One row per (point, policy) cell, best cell per column marked.

        ``*`` marks the best mean of a column; ``**`` additionally means
        the best cell beats the runner-up with ``p < alpha`` (Welch).
        """
        marks: Dict[Tuple[str, str, str], str] = {}
        for column in columns:
            summary = self.best_summary(column, alpha=alpha)
            mark = "**" if summary["significant"] else "*"
            marks[(str(summary["point"]), str(summary["policy"]), column)] = mark
        headers = ["point", "policy"] + [_HEADERS.get(col, col) for col in columns]
        rows = []
        for point, policy in self.cells():
            cells = []
            for column in columns:
                cell = policy.cell(column, decimals)
                mark = marks.get((point.label, policy.label, column))
                cells.append(f"{cell} {mark}" if mark else cell)
            rows.append([point.label, policy.label] + cells)
        if title is None:
            title = (
                f"{self.spec.name}: {len(self.points)} point(s) x "
                f"{len(rows) // max(1, len(self.points))} policy(ies), "
                f"{self.spec.base.replications} replication(s) per cell"
            )
        legend = f"* best per column; ** best and p < {alpha:g} vs runner-up (Welch)"
        return render_table(headers, rows, title=title) + "\n" + legend

    def to_rows(self) -> List[Dict[str, object]]:
        """Tidy long format: one dict per (point, policy, replication).

        Axis coordinates appear as their own columns (one per axis
        label), which is the layout pandas/R-style tools group by.
        """
        rows: List[Dict[str, object]] = []
        for point in self.points:
            for policy in point.policies:
                for replication, summary in enumerate(policy.summaries):
                    row: Dict[str, object] = {
                        "sweep": self.spec.name,
                        "point": point.label,
                    }
                    row.update(point.point.coords)
                    row["policy"] = policy.label
                    row["replication"] = replication
                    row.update(summary.as_dict())
                    rows.append(row)
        return rows

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        """The tidy long format as CSV, optionally written to ``path``."""
        rows = self.to_rows()
        if not rows:
            raise ValueError("sweep produced no rows to export")
        headers = list(rows[0].keys())
        return rows_to_csv(headers, [[r[h] for h in headers] for r in rows], path=path)

    def to_dict(
        self,
        metrics: Sequence[str] = DEFAULT_COMPARISON_METRICS,
        alpha: float = 0.05,
    ) -> Dict[str, object]:
        """JSON-friendly digest: spec, per-point aggregates, significance.

        Contains no execution metadata, so the digest of one spec is
        byte-identical however the sweep ran (the CI parity check).
        """
        points = []
        for point in self.points:
            points.append(
                {
                    "index": point.index,
                    "label": point.label,
                    "overrides": dict(point.point.overrides),
                    "policies": [
                        {
                            "label": policy.label,
                            "replications": policy.replications,
                            "means": policy.means,
                            "stdevs": policy.stdevs,
                            "summaries": [s.as_dict() for s in policy.summaries],
                        }
                        for policy in point.policies
                    ],
                    "comparisons": [c.as_dict() for c in point.comparisons(metrics)],
                }
            )
        return {
            "sweep": self.spec.to_dict(),
            "alpha": alpha,
            "metrics": list(metrics),
            "points": points,
            "best": {
                metric: self.best_summary(metric, alpha=alpha) for metric in metrics
            },
        }

    def to_json(
        self,
        path: Optional[Union[str, Path]] = None,
        indent: int = 2,
        metrics: Sequence[str] = DEFAULT_COMPARISON_METRICS,
        alpha: float = 0.05,
    ) -> str:
        """The digest as JSON text, optionally written to ``path``."""
        text = (
            json.dumps(
                self.to_dict(metrics=metrics, alpha=alpha),
                indent=indent,
                sort_keys=True,
            )
            + "\n"
        )
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text
