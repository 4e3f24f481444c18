"""The adaptive-experimentation subsystem: budgeted tuning over grids.

SbQA's headline claim is *tunability* -- the mediator can be steered
anywhere on the omega/KnBest spectrum -- which makes finding good
parameter points the core experimental activity.  The sweep engine
(:mod:`repro.api.sweep`) answers that exhaustively: every grid point
runs its full replication count even when most points are clearly
dominated after a few runs.  This module races the grid instead:

* :class:`TuneSpec` -- a JSON-round-trippable declaration wrapping a
  :class:`SweepSpec`: the objective (one aggregated metric, measured on
  one policy, maximized or minimized), a total run ``budget``, a
  ``rungs`` schedule (cumulative replication counts, successive-halving
  geometry by default), and the elimination level ``alpha``;
* :class:`TuneSession` -- the runtime.  All surviving grid points race
  rung by rung on one shared process pool: a rung runs each survivor's
  objective policy up to the rung's replication count, then challengers
  that are *significantly worse* than the incumbent -- Welch's t-test,
  Holm-Bonferroni corrected across the rung's family -- are eliminated.
  Survivors of the final rung complete their remaining (non-objective)
  policies, so every surviving point ends bit-for-bit identical to what
  the exhaustive sweep would have produced;
* :class:`TuneStream` -- incremental consumption: a
  :class:`TuneRunEvent` per completed simulation, a
  :class:`TuneRungEvent` per promotion/elimination decision (p-values
  included), a :class:`TuneStopEvent` if the budget runs out;
* :class:`TuneResult` -- the winner, the full elimination trace, the
  runs saved versus the exhaustive sweep, and
  :meth:`TuneResult.sweep_result` bridging the surviving points back
  into a :class:`~repro.api.results.SweepResult`.

Why elimination is *statistically gated* rather than rank-based: plain
successive halving (Li et al., JMLR 2018) drops the worst half at every
rung regardless of noise, which on a stochastic simulation happily
discards the true winner after one unlucky seed.  Racing approaches
(Birattari et al., F-Race) keep a point until the evidence against it
is significant; this tuner follows that discipline -- a challenger is
dropped only when Welch's test, Holm-corrected within the rung, puts it
significantly below the incumbent.  Indistinguishable points are never
separated by noise: with an unlimited budget the survivors reproduce
the exhaustive :class:`SweepResult` exactly (deterministic seed
schedule: replication ``i`` of a point derives from the point's spec
seed and ``i``, the same as in a sweep, whatever rung runs it).

Quickstart::

    tune = (
        Experiment.from_scenario("scenario3", duration=600.0)
        .replications(6)
        .sweep()
        .axis("sbqa.omega", [0.0, 0.5, 1.0, "adaptive"])
        .tune()
        .objective("consumer_sat_final")
        .budget(60)
        .build()
    )
    result = TuneSession(tune).run(parallel=True)
    print(result.table())
    print(result.winner.label, "saved", result.runs_saved, "runs")
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.export import rows_to_csv
from repro.analysis.significance import holm_correction, welch_t_test
from repro.analysis.stats import mean
from repro.analysis.tables import render_table
from repro.api.results import (
    AGGREGATED_FIELDS,
    ExperimentResult,
    PolicyResult,
    SweepPointResult,
    SweepResult,
    metric_minimizes,
)
from repro.api.serialization import versioned_payload
from repro.api.session import Task, resolve_worker_count, run_tasks
from repro.api.sweep import SweepPoint, SweepSpec
from repro.experiments.config import PolicySpec
from repro.metrics.summary import RunSummary

#: Format tag of serialized tune specs; bump on breaking layout changes.
TUNE_VERSION = 1

_DIRECTIONS = ("maximize", "minimize")


def default_rungs(replications: int) -> Tuple[int, ...]:
    """The successive-halving rung schedule for one replication count.

    Cumulative replication counts that roughly double rung over rung
    and end at the full count: ``6 -> (2, 3, 6)``, ``4 -> (2, 4)``,
    ``8 -> (2, 4, 8)``.  The first rung is 2 replications -- the
    minimum that admits a t-test -- except for single-replication
    experiments, which get the degenerate ``(1,)`` (rankable, never
    eliminable).
    """
    if replications <= 2:
        return (replications,)
    rungs = [replications]
    while rungs[0] > 2:
        rungs.insert(0, math.ceil(rungs[0] / 2))
    return tuple(rungs)


@dataclass
class TuneSpec:
    """A declarative adaptive tune: search space + objective + budget.

    ``sweep`` is the search space (every grid point a candidate);
    ``objective`` names the aggregated summary metric raced on,
    measured on the ``policy`` with that label (default: the base
    experiment's first policy); ``direction`` forces maximize/minimize
    (default: the metric's natural direction).  ``rungs`` are
    *cumulative* objective-policy replication counts per rung and must
    end at the base experiment's replication count, so survivors finish
    the complete experiment; ``budget`` caps the total number of
    simulation runs (``None``: unlimited); ``alpha`` is the
    family-wise elimination level.  Like the other spec kinds, the
    value round-trips through JSON.
    """

    name: str = "tune"
    sweep: SweepSpec = field(default_factory=SweepSpec)
    objective: str = "consumer_sat_final"
    direction: Optional[str] = None
    policy: Optional[str] = None
    budget: Optional[int] = None
    rungs: Tuple[int, ...] = ()
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if isinstance(self.sweep, dict):
            self.sweep = SweepSpec.from_dict(self.sweep)
        if not isinstance(self.sweep, SweepSpec):
            raise TypeError(
                f"tune search space must be a SweepSpec, got "
                f"{type(self.sweep).__name__}"
            )
        if self.objective not in AGGREGATED_FIELDS:
            raise ValueError(
                f"objective {self.objective!r} is not an aggregated metric; "
                f"choose one of: {', '.join(AGGREGATED_FIELDS)}"
            )
        if self.direction is not None and self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be 'maximize', 'minimize' or None "
                f"(metric default), got {self.direction!r}"
            )
        for axis in self.sweep.axes:
            if axis.path in ("replications", "policies") or axis.path.startswith(
                ("replications.", "policies.")
            ):
                raise ValueError(
                    f"a tune cannot race a grid that sweeps {axis.path!r}: "
                    "the rung schedule and the objective policy are defined "
                    "against the base experiment's policies and replication "
                    "count, which every point must share"
                )
        # Resolving the objective policy validates the label eagerly.
        base = self.sweep.base
        if self.policy is not None:
            try:
                base.policy(self.policy)
            except KeyError:
                raise ValueError(
                    f"objective policy {self.policy!r} is not in the base "
                    f"experiment; have {[p.label for p in base.policies]}"
                ) from None
        replications = base.replications
        self.rungs = tuple(int(r) for r in self.rungs) or default_rungs(replications)
        if any(r < 1 for r in self.rungs):
            raise ValueError(f"rungs must be >= 1, got {self.rungs}")
        if any(b >= a for a, b in zip(self.rungs[1:], self.rungs)):
            raise ValueError(
                f"rungs must be strictly increasing, got {self.rungs}"
            )
        if self.rungs[-1] != replications:
            raise ValueError(
                f"the final rung must equal the base experiment's "
                f"replications ({replications}) so survivors complete the "
                f"full experiment, got rungs {self.rungs}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.budget is not None:
            self.budget = int(self.budget)
            first_rung_cost = len(self.sweep) * self.rungs[0]
            if self.budget < first_rung_cost:
                raise ValueError(
                    f"budget {self.budget} cannot cover the first rung "
                    f"({len(self.sweep)} points x {self.rungs[0]} "
                    f"replication(s) = {first_rung_cost} runs)"
                )

    # ------------------------------------------------------------------
    # Resolved objective
    # ------------------------------------------------------------------

    @property
    def minimizes(self) -> bool:
        """Whether the objective is minimized (resolved direction)."""
        if self.direction is not None:
            return self.direction == "minimize"
        return metric_minimizes(self.objective)

    @property
    def resolved_direction(self) -> str:
        return "minimize" if self.minimizes else "maximize"

    @property
    def objective_policy(self) -> PolicySpec:
        """The base-experiment policy the objective is measured on."""
        return self.sweep.base.policies[self.objective_policy_index]

    @property
    def objective_policy_index(self) -> int:
        if self.policy is None:
            return 0
        for index, policy in enumerate(self.sweep.base.policies):
            if policy.label == self.policy:
                return index
        raise KeyError(  # unreachable after __post_init__ validation
            f"no policy labelled {self.policy!r}"
        )

    @property
    def exhaustive_runs(self) -> int:
        """Run count of the exhaustive sweep this tune shortcuts.

        Plain arithmetic: every point shares the base's policies and
        replication count (``__post_init__`` rejects grids that sweep
        either), so no grid expansion is needed.
        """
        base = self.sweep.base
        return len(self.sweep) * len(base.policies) * base.replications

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict; inverse of :meth:`from_dict`."""
        return {
            "tune_version": TUNE_VERSION,
            "name": self.name,
            "sweep": self.sweep.to_dict(),
            "objective": self.objective,
            "direction": self.direction,
            "policy": self.policy,
            "budget": self.budget,
            "rungs": list(self.rungs),
            "alpha": self.alpha,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TuneSpec":
        payload = versioned_payload(
            data,
            kind="TuneSpec",
            version_key="tune_version",
            version=TUNE_VERSION,
            valid_fields=frozenset(
                {
                    "name",
                    "sweep",
                    "objective",
                    "direction",
                    "policy",
                    "budget",
                    "rungs",
                    "alpha",
                }
            ),
        )
        sweep = payload.get("sweep", {})
        if isinstance(sweep, dict):
            sweep = SweepSpec.from_dict(sweep)
        return cls(
            name=payload.get("name", "tune"),
            sweep=sweep,
            objective=payload.get("objective", "consumer_sat_final"),
            direction=payload.get("direction"),
            policy=payload.get("policy"),
            budget=payload.get("budget"),
            rungs=tuple(payload.get("rungs", ())),
            alpha=payload.get("alpha", 0.05),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TuneSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TuneSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Trace records and stream events
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Elimination:
    """One point dropped at one rung, with the evidence that dropped it."""

    rung: int  # rung index (0-based)
    replications: int  # objective samples per side at the decision
    index: int  # grid index of the eliminated point
    label: str
    mean: float  # the point's objective mean at the rung
    incumbent: str  # the incumbent's label
    incumbent_mean: float
    t_statistic: float
    p_value: float  # raw Welch p (two-sided)
    p_adjusted: float  # Holm-corrected within the rung's family

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rung": self.rung,
            "replications": self.replications,
            "index": self.index,
            "label": self.label,
            "mean": self.mean,
            "incumbent": self.incumbent,
            "incumbent_mean": self.incumbent_mean,
            "t_statistic": self.t_statistic,
            "p_value": self.p_value,
            "p_adjusted": self.p_adjusted,
        }


@dataclass(frozen=True)
class RungRecord:
    """One rung of the race: who ran, who won, who was eliminated."""

    rung: int  # rung index (0-based)
    replications: int  # cumulative objective replications at this rung
    contenders: Tuple[str, ...]  # labels racing this rung (grid order)
    incumbent: str  # best objective mean at rung end
    eliminated: Tuple[Elimination, ...]
    survivors: Tuple[str, ...]  # labels promoted to the next rung
    runs_this_rung: int
    runs_total: int  # cumulative runs executed after this rung
    budget_remaining: Optional[int]  # None when unlimited

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rung": self.rung,
            "replications": self.replications,
            "contenders": list(self.contenders),
            "incumbent": self.incumbent,
            "eliminated": [e.as_dict() for e in self.eliminated],
            "survivors": list(self.survivors),
            "runs_this_rung": self.runs_this_rung,
            "runs_total": self.runs_total,
            "budget_remaining": self.budget_remaining,
        }


@dataclass
class TuneRunEvent:
    """One completed simulation run within the tune."""

    point: SweepPoint
    policy: PolicySpec
    replication: int
    summary: RunSummary
    phase: str  # "race" or "complete"
    rung: Optional[int]  # rung index during racing, None when completing
    runs_executed: int  # cumulative, including this run
    budget_remaining: Optional[int]


@dataclass
class TuneRungEvent:
    """One rung decided: promotions and eliminations with p-values."""

    record: RungRecord


@dataclass
class TuneStopEvent:
    """The budget cannot cover the next phase; the tune stops early."""

    reason: str
    runs_executed: int
    budget: int


TuneEvent = Union[TuneRunEvent, TuneRungEvent, TuneStopEvent]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class TunePointOutcome:
    """How one grid point fared in the race.

    ``status`` is ``"winner"``, ``"survivor"`` or ``"eliminated"``;
    ``complete`` marks points whose full ``policies x replications``
    grid executed (exactly the exhaustive sweep's data for that
    point).  ``policies`` holds a :class:`PolicyResult` per policy
    that ran at least once -- an eliminated point typically carries
    only the objective policy with the replications it reached.
    """

    point: SweepPoint
    status: str
    replications_used: int  # objective-policy replications executed
    policies: List[PolicyResult]
    eliminated: Optional[Elimination] = None
    complete: bool = False

    @property
    def label(self) -> str:
        return self.point.label

    @property
    def index(self) -> int:
        return self.point.index

    def policy(self, label: str) -> PolicyResult:
        for policy in self.policies:
            if policy.label == label:
                return policy
        raise KeyError(
            f"no executed policy labelled {label!r} on point "
            f"{self.label!r}; have {[p.label for p in self.policies]}"
        )


@dataclass
class TuneResult:
    """Everything one executed tune produced.

    ``parallel`` records how the tune executed but stays out of
    :meth:`to_dict`/:meth:`to_json` -- like a sweep's, the digest is a
    function of the spec and the summaries alone, so serial, parallel
    and streamed executions serialize byte-identically.
    """

    spec: TuneSpec
    outcomes: List[TunePointOutcome]  # grid order, every point
    trace: List[RungRecord]
    runs_executed: int
    status: str  # "completed" or "budget_exhausted"
    parallel: bool = False

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    @property
    def winner(self) -> TunePointOutcome:
        """The point with the best objective among the survivors."""
        for outcome in self.outcomes:
            if outcome.status == "winner":
                return outcome
        raise RuntimeError("tune produced no winner")  # pragma: no cover

    @property
    def survivors(self) -> List[TunePointOutcome]:
        """Winner plus never-eliminated points, grid order."""
        return [o for o in self.outcomes if o.status != "eliminated"]

    @property
    def eliminations(self) -> List[Elimination]:
        """Every elimination, rung order (the flattened trace)."""
        return [e for record in self.trace for e in record.eliminated]

    def outcome(self, label: Union[str, int]) -> TunePointOutcome:
        """One point's outcome, by coordinate label or grid index."""
        if isinstance(label, int):
            return self.outcomes[label]
        for outcome in self.outcomes:
            if outcome.label == label:
                return outcome
        raise KeyError(
            f"no tuned point labelled {label!r}; "
            f"have {[o.label for o in self.outcomes]}"
        )

    # ------------------------------------------------------------------
    # Budget accounting
    # ------------------------------------------------------------------

    @property
    def exhaustive_runs(self) -> int:
        return self.spec.exhaustive_runs

    @property
    def runs_saved(self) -> int:
        """Simulation runs avoided versus the exhaustive sweep."""
        return self.exhaustive_runs - self.runs_executed

    @property
    def run_fraction(self) -> float:
        """Runs executed as a fraction of the exhaustive sweep's."""
        return self.runs_executed / self.exhaustive_runs

    # ------------------------------------------------------------------
    # Bridges
    # ------------------------------------------------------------------

    def sweep_result(self) -> SweepResult:
        """The surviving, fully executed points as a :class:`SweepResult`.

        Only complete points qualify (every policy at full
        replications); their aggregates are bit-for-bit what the
        exhaustive :class:`~repro.api.sweep.SweepSession` would have
        produced for them, because replication seeds are independent of
        the rung that ran them.
        """
        points = [
            SweepPointResult(
                point=outcome.point,
                experiment=ExperimentResult(
                    spec=outcome.point.spec,
                    policies=outcome.policies,
                    parallel=self.parallel,
                ),
            )
            for outcome in self.outcomes
            if outcome.complete
        ]
        return SweepResult(spec=self.spec.sweep, points=points, parallel=self.parallel)

    # ------------------------------------------------------------------
    # Rendering and export
    # ------------------------------------------------------------------

    def objective_cell(self, outcome: TunePointOutcome, decimals: int = 4) -> str:
        """``mean +- stdev`` of the objective over the reps a point ran."""
        try:
            policy = outcome.policy(self.spec.objective_policy.label)
        except KeyError:
            return "-"
        return policy.cell(self.spec.objective, decimals)

    def table(self, decimals: int = 4, title: Optional[str] = None) -> str:
        """The elimination trace, one row per grid point."""
        headers = [
            "point",
            "status",
            "reps",
            f"{self.spec.objective} ({self.spec.resolved_direction})",
            "p_holm",
            "out at rung",
        ]
        rows = []
        for outcome in self.outcomes:
            e = outcome.eliminated
            rows.append(
                [
                    outcome.label,
                    outcome.status,
                    outcome.replications_used,
                    self.objective_cell(outcome, decimals),
                    f"{e.p_adjusted:.4f}" if e is not None else "",
                    e.rung + 1 if e is not None else "",
                ]
            )
        if title is None:
            title = (
                f"{self.spec.name}: {len(self.outcomes)} point(s), "
                f"{len(self.trace)} rung(s) {tuple(self.spec.rungs)}"
            )
        summary = (
            f"runs: {self.runs_executed} of {self.exhaustive_runs} exhaustive "
            f"({self.runs_saved} saved, {self.run_fraction:.0%} used); "
            f"alpha={self.spec.alpha:g} (Holm within each rung)"
        )
        if self.status != "completed":
            summary += f"; stopped early: {self.status}"
        return render_table(headers, rows, title=title) + "\n" + summary

    def to_rows(self) -> List[Dict[str, object]]:
        """Tidy long format over *executed* runs only.

        Like :meth:`SweepResult.to_rows` with the point's race
        ``status`` as an extra column; eliminated points contribute
        only the replications they actually ran.
        """
        rows: List[Dict[str, object]] = []
        for outcome in self.outcomes:
            for policy in outcome.policies:
                for replication, summary in enumerate(policy.summaries):
                    row: Dict[str, object] = {
                        "tune": self.spec.name,
                        "point": outcome.label,
                    }
                    row.update(outcome.point.coords)
                    row["policy"] = policy.label
                    row["replication"] = replication
                    row["status"] = outcome.status
                    row.update(summary.as_dict())
                    rows.append(row)
        return rows

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        """The tidy long format as CSV, optionally written to ``path``."""
        rows = self.to_rows()
        if not rows:
            raise ValueError("tune produced no rows to export")
        headers = list(rows[0].keys())
        return rows_to_csv(headers, [[r[h] for h in headers] for r in rows], path=path)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly digest: spec, winner, trace, budget accounting.

        Contains no execution metadata, so the digest of one spec is
        byte-identical however the tune ran (the CI parity check).
        For complete points the per-policy blocks match the exhaustive
        sweep digest's exactly.
        """
        winner = self.winner
        points = []
        for outcome in self.outcomes:
            points.append(
                {
                    "index": outcome.index,
                    "label": outcome.label,
                    "status": outcome.status,
                    "complete": outcome.complete,
                    "replications_used": outcome.replications_used,
                    "eliminated": (
                        None
                        if outcome.eliminated is None
                        else outcome.eliminated.as_dict()
                    ),
                    "policies": [
                        {
                            "label": policy.label,
                            "replications": policy.replications,
                            "means": policy.means,
                            "stdevs": policy.stdevs,
                            "summaries": [s.as_dict() for s in policy.summaries],
                        }
                        for policy in outcome.policies
                    ],
                }
            )
        return {
            "tune": self.spec.to_dict(),
            "objective": {
                "metric": self.spec.objective,
                "direction": self.spec.resolved_direction,
                "policy": self.spec.objective_policy.label,
            },
            "status": self.status,
            "runs_executed": self.runs_executed,
            "exhaustive_runs": self.exhaustive_runs,
            "runs_saved": self.runs_saved,
            "winner": {
                "index": winner.index,
                "label": winner.label,
                "replications": winner.replications_used,
                "mean": mean(
                    winner.policy(self.spec.objective_policy.label).values(
                        self.spec.objective
                    )
                ),
            },
            "trace": [record.as_dict() for record in self.trace],
            "points": points,
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
# Execution
# ----------------------------------------------------------------------


class _TuneState:
    """Mutable bookkeeping of one tune execution (owned by its stream)."""

    def __init__(self, spec: TuneSpec) -> None:
        self.spec = spec
        self.summaries: Dict[Tuple[int, int, int], RunSummary] = {}
        self.trace: List[RungRecord] = []
        self.runs_executed = 0
        self.status = "completed"
        self.winner_index: Optional[int] = None
        self.reps_raced: Dict[int, int] = {}  # point -> objective reps run

    def budget_remaining(self) -> Optional[int]:
        if self.spec.budget is None:
            return None
        return self.spec.budget - self.runs_executed

    def objective_values(self, index: int, reps: int) -> List[float]:
        policy_index = self.spec.objective_policy_index
        metric = self.spec.objective
        return [
            float(self.summaries[(index, policy_index, r)].as_dict()[metric])
            for r in range(reps)
        ]


class TuneStream:
    """Iterator over tune events; builds the result at the end.

    Iterating yields :class:`TuneRunEvent` per completed simulation
    (serial: schedule order; parallel: completion order within each
    rung), :class:`TuneRungEvent` per decided rung, and at most one
    :class:`TuneStopEvent` if the budget cannot cover a next phase.
    :meth:`result` drains the remainder and returns the
    :class:`TuneResult`, identical however the stream was consumed.
    """

    def __init__(
        self,
        session: "TuneSession",
        parallel: bool = False,
        max_workers: Optional[int] = None,
    ) -> None:
        self._session = session
        self._parallel = parallel
        self._state = _TuneState(session.spec)
        self._events = session._drive(self._state, parallel, max_workers)
        self._result: Optional[TuneResult] = None

    def __iter__(self) -> "TuneStream":
        return self

    def __next__(self) -> TuneEvent:
        return next(self._events)

    def result(self) -> TuneResult:
        """Drain any unconsumed events and assemble the result."""
        if self._result is None:
            for _ in self:
                pass
            self._result = self._session._build_result(self._state, self._parallel)
        return self._result


class TuneSession:
    """Executes one :class:`TuneSpec`.

    The race advances rung by rung: within a rung every survivor's
    pending objective-policy replications form one task batch executed
    serially or over a *shared* process pool (one pool for the whole
    tune; tasks of different points interleave).  Between rungs the
    elimination rule runs; after the final rung the survivors' other
    policies complete.  However executed, results are bit-identical to
    serial execution -- tasks are deterministic in
    ``(point spec, policy, replication)`` and collection is keyed --
    and the elimination trace is reproducible run to run.
    """

    def __init__(self, spec: TuneSpec) -> None:
        if not isinstance(spec, TuneSpec):
            raise TypeError(
                f"TuneSession needs a TuneSpec, got {type(spec).__name__} "
                "(build one with Experiment.tune(...) or TuneSpec.load)"
            )
        self.spec = spec
        self.points = spec.sweep.points()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(
        self, parallel: bool = False, max_workers: Optional[int] = None
    ) -> TuneResult:
        """Execute the tune to completion; see :meth:`stream`."""
        return self.stream(parallel=parallel, max_workers=max_workers).result()

    def stream(
        self, parallel: bool = False, max_workers: Optional[int] = None
    ) -> TuneStream:
        """Execute the tune, yielding events as the race unfolds."""
        return TuneStream(self, parallel=parallel, max_workers=max_workers)

    # ------------------------------------------------------------------
    # The race
    # ------------------------------------------------------------------

    def _drive(
        self,
        state: _TuneState,
        parallel: bool,
        max_workers: Optional[int],
    ) -> Iterator[TuneEvent]:
        spec = self.spec
        executor: Optional[ProcessPoolExecutor] = None
        if parallel:
            # One pool for the whole tune: worker warm-up is paid once,
            # and tasks of every phase share it.
            workers = resolve_worker_count(
                max_workers, len(self.points) * spec.rungs[0]
            )
            executor = ProcessPoolExecutor(max_workers=workers)
        try:
            survivors = [point.index for point in self.points]
            previous_reps = 0
            objective_policy = spec.objective_policy_index
            raced_all_rungs = True
            for rung_index, reps in enumerate(spec.rungs):
                tasks = [
                    (index, self.points[index].spec, objective_policy, replication)
                    for index in survivors
                    for replication in range(previous_reps, reps)
                ]
                if not self._affordable(state, len(tasks)):
                    state.status = "budget_exhausted"
                    raced_all_rungs = False
                    yield TuneStopEvent(
                        reason=(
                            f"rung {rung_index + 1} needs {len(tasks)} runs "
                            f"but only {state.budget_remaining()} remain in "
                            f"the budget"
                        ),
                        runs_executed=state.runs_executed,
                        budget=spec.budget,
                    )
                    break
                for event in self._execute(
                    state, tasks, executor, phase="race", rung=rung_index
                ):
                    yield event
                for index in survivors:
                    state.reps_raced[index] = reps
                record, survivors = self._decide(
                    state, rung_index, reps, survivors, runs_this_rung=len(tasks)
                )
                state.trace.append(record)
                yield TuneRungEvent(record=record)
                previous_reps = reps
            state.winner_index = self._best(state, survivors)
            if raced_all_rungs:
                for event in self._complete(state, survivors, executor):
                    yield event
        finally:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)

    def _affordable(self, state: _TuneState, cost: int) -> bool:
        remaining = state.budget_remaining()
        return remaining is None or cost <= remaining

    def _complete(
        self,
        state: _TuneState,
        survivors: List[int],
        executor: Optional[ProcessPoolExecutor],
    ) -> Iterator[TuneEvent]:
        """Run the survivors' non-objective policies to full depth.

        Point-by-point in grid order so a tight budget still finishes
        whole points (a half-completed point would be unusable for the
        exhaustive-parity guarantee).
        """
        spec = self.spec
        objective_policy = spec.objective_policy_index
        replications = spec.sweep.base.replications
        for index in survivors:
            point = self.points[index]
            tasks = [
                (index, point.spec, policy_index, replication)
                for policy_index in range(len(point.spec.policies))
                if policy_index != objective_policy
                for replication in range(replications)
            ]
            if not tasks:
                continue
            if not self._affordable(state, len(tasks)):
                state.status = "budget_exhausted"
                yield TuneStopEvent(
                    reason=(
                        f"completing point {point.label!r} needs "
                        f"{len(tasks)} runs but only "
                        f"{state.budget_remaining()} remain in the budget"
                    ),
                    runs_executed=state.runs_executed,
                    budget=spec.budget,
                )
                return
            for event in self._execute(
                state, tasks, executor, phase="complete", rung=None
            ):
                yield event

    def _execute(
        self,
        state: _TuneState,
        tasks: List[Task],
        executor: Optional[ProcessPoolExecutor],
        phase: str,
        rung: Optional[int],
    ) -> Iterator[TuneRunEvent]:
        """One task batch, serially or on the shared pool (keyed)."""
        for index, policy_index, replication, summary, _ in run_tasks(
            tasks, executor=executor
        ):
            state.summaries[(index, policy_index, replication)] = summary
            state.runs_executed += 1
            yield TuneRunEvent(
                point=self.points[index],
                policy=self.points[index].spec.policies[policy_index],
                replication=replication,
                summary=summary,
                phase=phase,
                rung=rung,
                runs_executed=state.runs_executed,
                budget_remaining=state.budget_remaining(),
            )

    # ------------------------------------------------------------------
    # The elimination rule
    # ------------------------------------------------------------------

    def _best(self, state: _TuneState, survivors: Sequence[int]) -> int:
        """The incumbent: best objective mean, ties to the lowest index."""
        reps_of = state.reps_raced
        means = {
            index: mean(state.objective_values(index, reps_of[index]))
            for index in survivors
        }
        sign = 1.0 if self.spec.minimizes else -1.0
        return min(survivors, key=lambda index: (sign * means[index], index))

    def _decide(
        self,
        state: _TuneState,
        rung_index: int,
        reps: int,
        survivors: List[int],
        runs_this_rung: int,
    ) -> Tuple[RungRecord, List[int]]:
        """Apply the elimination rule after one rung.

        A challenger is dropped only when its objective mean is worse
        than the incumbent's *and* Welch's t-test -- Holm-corrected
        across the rung's challengers -- finds the gap significant at
        the spec's ``alpha``.  With one replication, or one survivor,
        nothing can be tested and everything is promoted.
        """
        spec = self.spec
        values = {
            index: state.objective_values(index, reps) for index in survivors
        }
        means = {index: mean(values[index]) for index in survivors}
        incumbent = self._best(state, survivors)
        eliminations: List[Elimination] = []
        challengers = [index for index in survivors if index != incumbent]
        if reps >= 2 and challengers:
            tests = [
                welch_t_test(values[index], values[incumbent])
                for index in challengers
            ]
            adjusted = holm_correction([p for _, _, p in tests])
            for index, (t, _, p), p_adj in zip(challengers, tests, adjusted):
                if spec.minimizes:
                    worse = means[index] > means[incumbent]
                else:
                    worse = means[index] < means[incumbent]
                if worse and p_adj < spec.alpha:
                    eliminations.append(
                        Elimination(
                            rung=rung_index,
                            replications=reps,
                            index=index,
                            label=self.points[index].label,
                            mean=means[index],
                            incumbent=self.points[incumbent].label,
                            incumbent_mean=means[incumbent],
                            t_statistic=t,
                            p_value=p,
                            p_adjusted=p_adj,
                        )
                    )
        dropped = {e.index for e in eliminations}
        promoted = [index for index in survivors if index not in dropped]
        record = RungRecord(
            rung=rung_index,
            replications=reps,
            contenders=tuple(self.points[i].label for i in survivors),
            incumbent=self.points[incumbent].label,
            eliminated=tuple(eliminations),
            survivors=tuple(self.points[i].label for i in promoted),
            runs_this_rung=runs_this_rung,
            runs_total=state.runs_executed,
            budget_remaining=state.budget_remaining(),
        )
        return record, promoted

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def _build_result(self, state: _TuneState, parallel: bool) -> TuneResult:
        spec = self.spec
        replications = spec.sweep.base.replications
        eliminated_by_index: Dict[int, Elimination] = {}
        for record in state.trace:
            for elimination in record.eliminated:
                eliminated_by_index[elimination.index] = elimination
        outcomes: List[TunePointOutcome] = []
        for point in self.points:
            policies: List[PolicyResult] = []
            collected = 0
            for policy_index, policy in enumerate(point.spec.policies):
                summaries = []
                for replication in range(replications):
                    key = (point.index, policy_index, replication)
                    if key in state.summaries:
                        summaries.append(state.summaries[key])
                    else:
                        break
                if summaries:
                    policies.append(
                        PolicyResult(policy=policy, summaries=summaries)
                    )
                    collected += len(summaries)
            complete = collected == len(point.spec.policies) * replications
            if point.index in eliminated_by_index:
                status = "eliminated"
            elif point.index == state.winner_index:
                status = "winner"
            else:
                status = "survivor"
            outcomes.append(
                TunePointOutcome(
                    point=point,
                    status=status,
                    replications_used=state.reps_raced.get(point.index, 0),
                    policies=policies,
                    eliminated=eliminated_by_index.get(point.index),
                    complete=complete,
                )
            )
        return TuneResult(
            spec=spec,
            outcomes=outcomes,
            trace=list(state.trace),
            runs_executed=state.runs_executed,
            status=state.status,
            parallel=parallel,
        )


# ----------------------------------------------------------------------
# Fluent layer
# ----------------------------------------------------------------------


class TuneBuilder:
    """Accumulates a :class:`TuneSpec` through chained calls.

    Reached via ``Experiment.tune(sweep)`` or, most fluently, by ending
    a sweep chain with ``.tune()``::

        result = (
            Experiment.builder()
            .duration(600)
            .policy("sbqa")
            .replications(6)
            .sweep()
            .axis("sbqa.omega", [0.0, 0.5, 1.0, "adaptive"])
            .tune()
            .objective("consumer_sat_final")
            .budget(60)
            .run(parallel=True)
        )
    """

    def __init__(self, sweep: Optional[SweepSpec] = None) -> None:
        self._name = "tune"
        self._sweep = sweep
        self._objective = "consumer_sat_final"
        self._direction: Optional[str] = None
        self._policy: Optional[str] = None
        self._budget: Optional[int] = None
        self._rungs: Tuple[int, ...] = ()
        self._alpha = 0.05

    def named(self, name: str) -> "TuneBuilder":
        """Set the tune name (table titles, digest headings)."""
        self._name = str(name)
        return self

    def search(self, sweep: SweepSpec) -> "TuneBuilder":
        """Replace the search space (the wrapped :class:`SweepSpec`)."""
        if not isinstance(sweep, SweepSpec):
            raise TypeError(
                f"search space must be a SweepSpec, got {type(sweep).__name__}"
            )
        self._sweep = sweep
        return self

    def objective(
        self,
        metric: str,
        direction: Optional[str] = None,
        policy: Optional[str] = None,
    ) -> "TuneBuilder":
        """Set the raced metric, its direction, and the measured policy.

        ``direction`` defaults to the metric's natural one (response
        times minimize, satisfaction maximizes); ``policy`` defaults to
        the base experiment's first policy.
        """
        self._objective = str(metric)
        self._direction = direction
        self._policy = policy
        return self

    def budget(self, runs: Optional[int]) -> "TuneBuilder":
        """Cap the total simulation runs (``None``: unlimited)."""
        self._budget = None if runs is None else int(runs)
        return self

    def rungs(self, *replications: int) -> "TuneBuilder":
        """Set the cumulative replication count of each rung."""
        self._rungs = tuple(int(r) for r in replications)
        return self

    def alpha(self, alpha: float) -> "TuneBuilder":
        """Set the family-wise elimination level."""
        self._alpha = float(alpha)
        return self

    def build(self) -> TuneSpec:
        """Validate and return the accumulated :class:`TuneSpec`."""
        if self._sweep is None:
            raise ValueError(
                "a tune needs a search space; seed the builder with a "
                "SweepSpec (Experiment.tune(sweep) or sweep_builder.tune())"
            )
        return TuneSpec(
            name=self._name,
            sweep=self._sweep,
            objective=self._objective,
            direction=self._direction,
            policy=self._policy,
            budget=self._budget,
            rungs=self._rungs,
            alpha=self._alpha,
        )

    def session(self) -> TuneSession:
        """A :class:`TuneSession` over the built spec."""
        return TuneSession(self.build())

    def run(
        self, parallel: bool = False, max_workers: Optional[int] = None
    ) -> TuneResult:
        """Build and execute; see :meth:`TuneSession.run`."""
        return self.session().run(parallel=parallel, max_workers=max_workers)

    def stream(
        self, parallel: bool = False, max_workers: Optional[int] = None
    ) -> TuneStream:
        """Build and execute incrementally; see :meth:`TuneSession.stream`."""
        return self.session().stream(parallel=parallel, max_workers=max_workers)
