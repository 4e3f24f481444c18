"""The sweep subsystem: declarative parameter grids over experiments.

SbQA's headline claim is tunability -- one process covering the whole
allocation-quality spectrum as ``omega``, ``epsilon`` and the KnBest
pool are varied -- which makes *sweeps*, not single runs, the native
experiment shape of this reproduction.  This module makes them first
class:

* :class:`SweepAxis` -- one swept knob: a dot-path into the spec
  (``"population.memory"``, ``"duration"``, ``"sbqa.omega"``), its
  values, and an optional ``zip_group`` tying it to other axes;
* :class:`SweepSpec` -- a JSON-round-trippable grid declaration: a base
  :class:`ExperimentSpec` plus axes.  Ungrouped axes combine as a
  cartesian product; axes sharing a ``zip_group`` advance in lockstep
  (zipped), and the zipped bundle crosses with everything else;
* :class:`SweepSession` -- the runtime.  The full
  ``points x policies x replications`` grid flattens into one task
  queue executed serially or over a *shared* process pool: there is no
  per-point barrier, tasks of different points interleave freely, and
  :meth:`SweepSession.stream` hands back completions one at a time so
  partial tables can render while the sweep runs.  However executed,
  the aggregate is bit-identical to the serial path (deterministic
  per-task seeding, order-independent keyed collection);
* :class:`SweepBuilder` -- the fluent layer, reachable as
  ``Experiment.sweep(...)`` or ``Experiment.builder()...sweep()``.

Results aggregate into :class:`~repro.api.results.SweepResult`, which
adds pairwise Welch t-tests and best-per-metric significance
annotations on top of the per-point :class:`ExperimentResult`\\ s.

Quickstart::

    sweep = (
        Experiment.from_scenario("scenario3", duration=600.0)
        .replications(3)
        .sweep()
        .named("omega-grid")
        .axis("sbqa.omega", [0.0, 0.5, 1.0, "adaptive"])
        .build()
    )
    for event in SweepSession(sweep).stream(parallel=True):
        if event.point_result is not None:
            print(event.point_result.label, "done")
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.results import (
    ExperimentResult,
    PolicyResult,
    SweepPointResult,
    SweepResult,
)
from repro.api.serialization import versioned_payload
from repro.api.session import _pool, run_tasks
from repro.api.spec import ExperimentSpec
from repro.experiments.config import PolicySpec
from repro.metrics.summary import RunSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.tune import TuneBuilder
    from repro.experiments.runner import RunResult

#: Format tag of serialized sweep specs; bump on breaking layout changes.
SWEEP_VERSION = 1


def format_axis_value(value: Any) -> str:
    """Render one axis value for point labels (``omega=0.5``)."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a dot-path, its values, grouping.

    ``path`` addresses the spec's dict form (``"duration"``,
    ``"population.n_providers"``, ``"failures.mttf"``); the
    ``"sbqa.<field>"`` prefix fans out to every SbQA policy entry.
    Axes sharing a ``zip_group`` advance together (and must be equally
    long); ungrouped axes combine as a cartesian product.  ``label``
    names the axis in point labels and tidy-CSV columns; it defaults to
    the last path segment.
    """

    path: str
    values: Tuple[Any, ...]
    label: str = ""
    zip_group: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.path or not isinstance(self.path, str):
            raise ValueError(f"axis path must be a non-empty string, got {self.path!r}")
        if isinstance(self.values, (str, bytes)):
            # tuple("adaptive") would silently char-split into a bogus
            # 8-point grid; a single value must be wrapped in a list.
            raise ValueError(
                f"axis {self.path!r} values must be a sequence of values, "
                f"got the string {self.values!r} (wrap it in a list: "
                f"[{self.values!r}])"
            )
        try:
            object.__setattr__(self, "values", tuple(self.values))
        except TypeError:
            raise ValueError(
                f"axis {self.path!r} values must be a sequence, got "
                f"{type(self.values).__name__} (wrap a single value in a list)"
            ) from None
        if not self.values:
            raise ValueError(f"axis {self.path!r} needs at least one value")
        if not self.label:
            object.__setattr__(self, "label", self.path.rsplit(".", 1)[-1])

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"path": self.path, "values": list(self.values)}
        if self.label != self.path.rsplit(".", 1)[-1]:
            data["label"] = self.label
        if self.zip_group is not None:
            data["zip_group"] = self.zip_group
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepAxis":
        if not isinstance(data, dict):
            raise TypeError(f"axis must be a dict, got {type(data).__name__}")
        unknown = sorted(set(data) - {"path", "values", "label", "zip_group"})
        if unknown:
            raise ValueError(
                f"unknown SweepAxis field(s): {', '.join(unknown)}. "
                "Valid fields: label, path, values, zip_group"
            )
        if "path" not in data or "values" not in data:
            raise ValueError(f"a sweep axis needs 'path' and 'values', got {data!r}")
        return cls(
            path=data["path"],
            values=data["values"],  # validated (and tupled) in __post_init__
            label=data.get("label", ""),
            zip_group=data.get("zip_group"),
        )


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: coordinates plus the derived spec."""

    index: int
    #: Dot-path -> value, in axis declaration order.
    overrides: Dict[str, Any]
    #: Axis label -> value (the tidy-CSV coordinate columns).
    coords: Dict[str, Any]
    label: str
    spec: ExperimentSpec


@dataclass
class SweepSpec:
    """A declarative parameter grid: base experiment + swept axes.

    Construction expands and validates the whole grid eagerly -- every
    point's derived :class:`ExperimentSpec` re-validates from scratch --
    so a sweep that constructs is a sweep that runs.  Like
    :class:`ExperimentSpec`, the value round-trips through JSON
    (:meth:`to_dict`/:meth:`from_dict`, :meth:`save`/:meth:`load`).

    ``keep_runs`` opts into retaining every full
    :class:`~repro.experiments.runner.RunResult` (live hub, mediator,
    population) on the aggregated result for post-run series analysis
    -- serial execution only, since parallel workers ship summaries
    back, not live simulation objects.  See
    ``examples/specs/ablations/memory.json`` for the intended use.
    """

    name: str = "sweep"
    base: ExperimentSpec = field(default_factory=ExperimentSpec)
    axes: Tuple[SweepAxis, ...] = ()
    keep_runs: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.base, ExperimentSpec):
            raise TypeError(
                f"sweep base must be an ExperimentSpec, got {type(self.base).__name__}"
            )
        self.axes = tuple(
            axis if isinstance(axis, SweepAxis) else SweepAxis.from_dict(axis)
            for axis in self.axes
        )
        if not self.axes:
            raise ValueError(
                "a sweep needs at least one axis (use a plain ExperimentSpec "
                "for a single-point experiment)"
            )
        paths = [axis.path for axis in self.axes]
        duplicate_paths = sorted({p for p in paths if paths.count(p) > 1})
        if duplicate_paths:
            raise ValueError(
                f"axis paths must be unique, duplicated: {', '.join(duplicate_paths)}"
            )
        labels = [axis.label for axis in self.axes]
        duplicate_labels = sorted({l for l in labels if labels.count(l) > 1})
        if duplicate_labels:
            raise ValueError(
                f"axis labels must be unique, duplicated: "
                f"{', '.join(duplicate_labels)} (pass label= to disambiguate)"
            )
        for group in self._groups():
            lengths = {len(axis.values) for axis in group}
            if len(lengths) > 1:
                names = ", ".join(axis.path for axis in group)
                raise ValueError(
                    f"zipped axes must have equally many values; group "
                    f"{group[0].zip_group!r} ({names}) has lengths "
                    f"{sorted(len(a.values) for a in group)}"
                )
        # Expanding the grid derives (and therefore validates) every
        # point spec; cached as a plain attribute, not a field.
        self._points: Tuple[SweepPoint, ...] = tuple(self._expand())

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------

    def _groups(self) -> List[List[SweepAxis]]:
        """Axes bundled by zip_group, in first-appearance order."""
        groups: List[List[SweepAxis]] = []
        named: Dict[str, List[SweepAxis]] = {}
        for axis in self.axes:
            if axis.zip_group is None:
                groups.append([axis])
            elif axis.zip_group in named:
                named[axis.zip_group].append(axis)
            else:
                bucket = [axis]
                named[axis.zip_group] = bucket
                groups.append(bucket)
        return groups

    def __len__(self) -> int:
        """Number of grid points."""
        return len(self._points)

    def _expand(self) -> Iterator[SweepPoint]:
        groups = self._groups()
        seen_labels: Dict[str, int] = {}
        combos = itertools.product(*(range(len(g[0].values)) for g in groups))
        for index, combo in enumerate(combos):
            value_of: Dict[str, Any] = {}
            for group, position in zip(groups, combo):
                for axis in group:
                    value_of[axis.path] = axis.values[position]
            # Re-walk self.axes so overrides/coords/labels follow the
            # declaration order, not the group order.
            overrides = {axis.path: value_of[axis.path] for axis in self.axes}
            coords = {axis.label: value_of[axis.path] for axis in self.axes}
            label = ", ".join(
                f"{axis.label}={format_axis_value(value_of[axis.path])}"
                for axis in self.axes
            )
            if label in seen_labels:
                # Distinct coordinates can format identically (float
                # rounding); keep labels unique for point() lookups.
                seen_labels[label] += 1
                label = f"{label} #{seen_labels[label]}"
            else:
                seen_labels[label] = 1
            try:
                spec = self.base.derive(overrides, name=f"{self.name}[{label}]")
            except (ValueError, TypeError) as err:
                raise ValueError(
                    f"sweep point {index} ({label}) is invalid: {err}"
                ) from err
            yield SweepPoint(
                index=index,
                overrides=overrides,
                coords=coords,
                label=label,
                spec=spec,
            )

    def points(self) -> List[SweepPoint]:
        """Every grid point, expansion order (axes vary rightmost-fastest)."""
        return list(self._points)

    def point(self, index: int) -> SweepPoint:
        return self._points[index]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict; inverse of :meth:`from_dict`."""
        return {
            "sweep_version": SWEEP_VERSION,
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
            "keep_runs": self.keep_runs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        payload = versioned_payload(
            data,
            kind="SweepSpec",
            version_key="sweep_version",
            version=SWEEP_VERSION,
            valid_fields=frozenset({"name", "base", "axes", "keep_runs"}),
        )
        base = payload.get("base", {})
        if isinstance(base, dict):
            base = ExperimentSpec.from_dict(base)
        return cls(
            name=payload.get("name", "sweep"),
            base=base,
            axes=tuple(payload.get("axes", ())),
            keep_runs=bool(payload.get("keep_runs", False)),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass
class SweepTaskEvent:
    """One completed run, as surfaced by :meth:`SweepSession.stream`.

    ``point_result`` is set on exactly the event that completes its
    point (all of the point's policies x replications collected) --
    that is the moment a per-point row can be rendered.
    """

    point: SweepPoint
    policy: PolicySpec
    replication: int
    summary: RunSummary
    completed: int
    total: int
    point_result: Optional[SweepPointResult] = None


class SweepStream:
    """Iterator over sweep task completions; aggregates at the end.

    Iterating yields :class:`SweepTaskEvent`\\ s as runs finish (serial:
    grid order; parallel: completion order -- no per-point barrier).
    :meth:`result` drains whatever has not been consumed and returns the
    :class:`SweepResult`, which is identical whether and how the stream
    was consumed.
    """

    def __init__(
        self,
        session: "SweepSession",
        parallel: bool = False,
        max_workers: Optional[int] = None,
        keep_runs: bool = False,
    ) -> None:
        self._session = session
        self._parallel = parallel
        self._total = len(session)
        self._events = session._events(parallel, max_workers, keep_runs)
        self._summaries: Dict[Tuple[int, int, int], RunSummary] = {}
        self._kept: Dict[Tuple[int, int, int], "RunResult"] = {}
        self._outstanding: Dict[int, int] = {
            point.index: len(point.spec.policies) * point.spec.replications
            for point in session.points
        }
        self._result: Optional[SweepResult] = None

    def __iter__(self) -> "SweepStream":
        return self

    def __next__(self) -> SweepTaskEvent:
        key, policy_index, replication, summary, run = next(self._events)
        self._summaries[(key, policy_index, replication)] = summary
        if run is not None:
            self._kept[(key, policy_index, replication)] = run
        self._outstanding[key] -= 1
        point = self._session.points[key]
        point_result = None
        if self._outstanding[key] == 0:
            point_result = self._session._point_result(
                point, self._summaries, self._kept, self._parallel
            )
        return SweepTaskEvent(
            point=point,
            policy=point.spec.policies[policy_index],
            replication=replication,
            summary=summary,
            completed=len(self._summaries),
            total=self._total,
            point_result=point_result,
        )

    def result(self) -> SweepResult:
        """Drain any unconsumed tasks and aggregate the sweep."""
        if self._result is None:
            for _ in self:
                pass
            self._result = self._session._build_result(
                self._summaries, self._kept, self._parallel
            )
        return self._result


class SweepSession:
    """Executes one :class:`SweepSpec`.

    The full ``points x policies x replications`` grid is one flat task
    queue; :meth:`run` executes it to completion, :meth:`stream` exposes
    the same execution incrementally.  Parallel mode shares a single
    process pool across the whole grid -- tasks from different points
    interleave, so a slow point never stalls the rest -- and remains
    bit-identical to serial execution: every task is deterministic in
    ``(point spec, policy, replication)`` and collection is keyed, not
    ordered.
    """

    def __init__(self, spec: SweepSpec) -> None:
        if not isinstance(spec, SweepSpec):
            raise TypeError(
                f"SweepSession needs a SweepSpec, got {type(spec).__name__} "
                "(build one with Experiment.sweep() or SweepSpec.load)"
            )
        self.spec = spec
        self.points = spec.points()

    def tasks(self) -> Iterator[Tuple[int, int, int]]:
        """Every (point, policy, replication) triple, grid order."""
        for point in self.points:
            for policy_index in range(len(point.spec.policies)):
                for replication in range(point.spec.replications):
                    yield point.index, policy_index, replication

    def __len__(self) -> int:
        """Total number of simulation runs the sweep will execute."""
        return sum(
            len(point.spec.policies) * point.spec.replications
            for point in self.points
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        keep_runs: Optional[bool] = None,
    ) -> SweepResult:
        """Execute the whole grid and aggregate; see :meth:`stream`."""
        return self.stream(
            parallel=parallel, max_workers=max_workers, keep_runs=keep_runs
        ).result()

    def stream(
        self,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        keep_runs: Optional[bool] = None,
    ) -> SweepStream:
        """Execute the grid, yielding each completed run as it lands.

        Returns a :class:`SweepStream`; iterate it for incremental
        :class:`SweepTaskEvent`\\ s (``event.point_result`` marks point
        completions) and call ``.result()`` for the final
        :class:`SweepResult`.  ``keep_runs`` (default: the spec's
        ``keep_runs`` flag) retains every full :class:`RunResult` on
        the per-point results -- serial execution only.
        """
        if keep_runs is None:
            keep_runs = self.spec.keep_runs
        if parallel and keep_runs:
            raise ValueError(
                "keep_runs is unavailable in parallel mode: full runs "
                "(simulator, hub, population) live in the worker processes"
            )
        return SweepStream(
            self, parallel=parallel, max_workers=max_workers, keep_runs=keep_runs
        )

    def _events(
        self, parallel: bool, max_workers: Optional[int], keep_runs: bool
    ) -> Iterator[Tuple[int, int, int, RunSummary, Optional["RunResult"]]]:
        tasks = [
            (key, self.points[key].spec, policy_index, replication)
            for key, policy_index, replication in self.tasks()
        ]
        with _pool(parallel, max_workers, len(tasks)) as executor:
            yield from run_tasks(tasks, keep_runs, executor)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _point_result(
        self,
        point: SweepPoint,
        summaries: Dict[Tuple[int, int, int], RunSummary],
        kept: Dict[Tuple[int, int, int], "RunResult"],
        parallel: bool,
    ) -> SweepPointResult:
        policies = [
            PolicyResult(
                policy=policy,
                summaries=[
                    summaries[(point.index, policy_index, replication)]
                    for replication in range(point.spec.replications)
                ],
                runs=[
                    kept[(point.index, policy_index, replication)]
                    for replication in range(point.spec.replications)
                    if (point.index, policy_index, replication) in kept
                ],
            )
            for policy_index, policy in enumerate(point.spec.policies)
        ]
        experiment = ExperimentResult(
            spec=point.spec, policies=policies, parallel=parallel
        )
        return SweepPointResult(point=point, experiment=experiment)

    def _build_result(
        self,
        summaries: Dict[Tuple[int, int, int], RunSummary],
        kept: Dict[Tuple[int, int, int], "RunResult"],
        parallel: bool,
    ) -> SweepResult:
        points = [
            self._point_result(point, summaries, kept, parallel)
            for point in self.points
        ]
        return SweepResult(spec=self.spec, points=points, parallel=parallel)


# ----------------------------------------------------------------------
# Fluent layer
# ----------------------------------------------------------------------


class SweepBuilder:
    """Accumulates a :class:`SweepSpec` through chained calls.

    Reached via ``Experiment.sweep(base)`` or, more fluently, by ending
    an experiment chain with ``.sweep()``::

        result = (
            Experiment.builder()
            .duration(600)
            .policy("sbqa")
            .policy("capacity")
            .replications(3)
            .sweep()
            .axis("sbqa.omega", [0.0, 0.5, 1.0, "adaptive"])
            .axis("population.n_providers", [40, 120])
            .run(parallel=True)
        )
    """

    def __init__(self, base: Optional[ExperimentSpec] = None) -> None:
        self._name = "sweep"
        self._base = base if base is not None else ExperimentSpec()
        self._axes: List[SweepAxis] = []
        self._zip_groups = 0
        self._keep_runs = False

    def named(self, name: str) -> "SweepBuilder":
        """Set the sweep name (table titles, tidy-CSV ``sweep`` column)."""
        self._name = str(name)
        return self

    def base(self, spec: ExperimentSpec) -> "SweepBuilder":
        """Replace the base experiment every point derives from."""
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                f"base must be an ExperimentSpec, got {type(spec).__name__}"
            )
        self._base = spec
        return self

    def axis(
        self,
        path: str,
        values: Sequence[Any],
        label: Optional[str] = None,
        zip_group: Optional[str] = None,
    ) -> "SweepBuilder":
        """Add one swept knob (cartesian unless ``zip_group`` ties it)."""
        self._axes.append(
            SweepAxis(
                path=path,
                values=values,  # validated (and tupled) in __post_init__
                label=label or "",
                zip_group=zip_group,
            )
        )
        return self

    def zipped(self, **path_values: Sequence[Any]) -> "SweepBuilder":
        """Add axes that advance in lockstep (one fresh zip group).

        Dots cannot appear in keyword names, so path segments are given
        with ``__``: ``zipped(sbqa__k=[5, 10], sbqa__kn=[2, 5])``.
        """
        if len(path_values) < 2:
            raise ValueError("zipped() needs at least two axes to tie together")
        self._zip_groups += 1
        group = f"zip{self._zip_groups}"
        for name, values in path_values.items():
            self.axis(name.replace("__", "."), values, zip_group=group)
        return self

    def keep_runs(self, enabled: bool = True) -> "SweepBuilder":
        """Retain full :class:`RunResult`\\ s per cell (serial runs only)."""
        self._keep_runs = bool(enabled)
        return self

    def build(self) -> SweepSpec:
        """Validate and return the accumulated :class:`SweepSpec`."""
        return SweepSpec(
            name=self._name,
            base=self._base,
            axes=tuple(self._axes),
            keep_runs=self._keep_runs,
        )

    def session(self) -> SweepSession:
        """A :class:`SweepSession` over the built spec."""
        return SweepSession(self.build())

    def run(
        self, parallel: bool = False, max_workers: Optional[int] = None
    ) -> SweepResult:
        """Build and execute; see :meth:`SweepSession.run`."""
        return self.session().run(parallel=parallel, max_workers=max_workers)

    def stream(
        self, parallel: bool = False, max_workers: Optional[int] = None
    ) -> SweepStream:
        """Build and execute incrementally; see :meth:`SweepSession.stream`."""
        return self.session().stream(parallel=parallel, max_workers=max_workers)

    def tune(self) -> "TuneBuilder":
        """A :class:`~repro.api.tune.TuneBuilder` over the built grid.

        Turns the accumulated sweep into the search space of a budgeted
        successive-halving tune; chain ``.objective(...)``,
        ``.budget(...)``, ``.rungs(...)`` and ``.run()`` from there.
        """
        from repro.api.tune import TuneBuilder

        return TuneBuilder(self.build())
