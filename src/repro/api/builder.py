"""The fluent experiment builder and the :class:`Experiment` facade.

The builder covers every knob the declarative layer exposes --
:class:`ExperimentConfig`, :class:`AutonomyConfig`,
:class:`BoincScenarioParams`, :class:`SbQAConfig`, failure injection --
behind chainable methods::

    spec = (
        Experiment.builder()
        .named("churn")
        .duration(2400)
        .policy("sbqa", kn=5)
        .policy("capacity")
        .autonomous(rejoin_cooldown=120)
        .replications(8)
        .build()
    )

``Experiment.from_scenario("scenario3", duration=900)`` seeds a builder
from a demo preset (see :mod:`repro.api.presets`), so scenario variants
are one override away instead of a hand-written configuration.
"""

from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.api.presets import scenario_spec
from repro.api.serialization import dataclass_kwargs
from repro.api.spec import ExperimentSpec
from repro.core.sbqa import SbQAConfig
from repro.experiments.config import (
    AutonomyConfig,
    ExperimentConfig,
    PolicySpec,
)
from repro.federation.config import FederationConfig
from repro.system.failures import FailureConfig
from repro.workloads.boinc import (
    BoincScenarioParams,
    FocalConsumerSpec,
    FocalProviderSpec,
    ProjectSpec,
)
from repro.workloads.preferences import ArchetypeMix

#: Distinguishes "not passed" from an explicit ``None`` argument.
_UNSET: object = object()


class ExperimentBuilder:
    """Accumulates an :class:`ExperimentSpec` through chained calls.

    Every method returns ``self``; :meth:`build` validates and freezes
    the result.  A builder can be seeded from an existing spec (its
    state is copied, the source spec is never mutated).  The state is
    one dict of :class:`ExperimentSpec` fields, validated only by
    :meth:`build`, so a chain may pass through invalid combinations
    (crash injection before its result timeout).
    """

    def __init__(self, spec: Optional[ExperimentSpec] = None) -> None:
        seeded = spec is not None
        spec = spec if seeded else ExperimentSpec()
        self._state: Dict[str, Any] = {
            f.name: getattr(spec, f.name) for f in fields(ExperimentSpec)
        }
        # A blank builder starts with an *empty* policy list so
        # `.policy(...)` calls define the comparison; seeding from a
        # spec — any spec, including one equal to the defaults — keeps
        # its policies (still replaceable via clear_policies()).
        self._state["policies"] = list(spec.policies) if seeded else []

    def _set(self, **values) -> "ExperimentBuilder":
        self._state.update(values)
        return self

    # ------------------------------------------------------------------
    # Identity and horizon
    # ------------------------------------------------------------------

    def named(self, name: str) -> "ExperimentBuilder":
        """Set the experiment name (report and export headings)."""
        return self._set(name=str(name))

    def seed(self, seed: int) -> "ExperimentBuilder":
        """Set the root random seed all replications derive from."""
        return self._set(seed=int(seed))

    def duration(self, seconds: float) -> "ExperimentBuilder":
        """Set the simulated horizon in seconds."""
        return self._set(duration=float(seconds))

    def sample_interval(self, seconds: float) -> "ExperimentBuilder":
        """Set the metric sweep period."""
        return self._set(sample_interval=float(seconds))

    def engine(self, mode: str) -> "ExperimentBuilder":
        """Select the allocation runtime: ``"fast"`` or ``"event"``.

        The hot-path engine (default) and the event-faithful reference
        produce bit-identical results; ``"event"`` is the equivalence
        escape hatch (see docs/performance.md).
        """
        return self._set(engine=str(mode))

    def latency(self, low: float, high: float) -> "ExperimentBuilder":
        """Set the uniform network latency band (seconds)."""
        return self._set(latency_low=float(low), latency_high=float(high))

    # ------------------------------------------------------------------
    # Population and workload
    # ------------------------------------------------------------------

    def population(self, **kwargs) -> "ExperimentBuilder":
        """Override any :class:`BoincScenarioParams` field by name."""
        kwargs = dataclass_kwargs(BoincScenarioParams, kwargs, "population")
        return self._set(population=replace(self._state["population"], **kwargs))

    def providers(self, n: int) -> "ExperimentBuilder":
        """Set the volunteer population size."""
        return self.population(n_providers=int(n))

    def projects(self, *projects) -> "ExperimentBuilder":
        """Replace the consumer projects (ProjectSpec instances or dicts)."""
        specs = tuple(
            p if isinstance(p, ProjectSpec) else ProjectSpec(**p) for p in projects
        )
        return self.population(projects=specs)

    def archetype_mix(self, **fractions) -> "ExperimentBuilder":
        """Adjust the provider archetype fractions (must still sum to 1)."""
        fractions = dataclass_kwargs(ArchetypeMix, fractions, "archetype_mix")
        return self.population(
            archetype_mix=replace(self._state["population"].archetype_mix, **fractions)
        )

    def capacity(
        self, mean: Optional[float] = None, cv: Optional[float] = None
    ) -> "ExperimentBuilder":
        """Set the provider capacity distribution."""
        kwargs = {}
        if mean is not None:
            kwargs["capacity_mean"] = float(mean)
        if cv is not None:
            kwargs["capacity_cv"] = float(cv)
        return self.population(**kwargs)

    def demand(
        self,
        mean: Optional[float] = None,
        cv: Optional[float] = None,
        distribution: Optional[str] = None,
        pareto_minimum: Optional[float] = None,
    ) -> "ExperimentBuilder":
        """Set the per-query service-demand distribution."""
        kwargs = {}
        if mean is not None:
            kwargs["demand_mean"] = float(mean)
        if cv is not None:
            kwargs["demand_cv"] = float(cv)
        if distribution is not None:
            kwargs["demand_distribution"] = distribution
        if pareto_minimum is not None:
            kwargs["pareto_minimum"] = float(pareto_minimum)
        return self.population(**kwargs)

    def target_load(self, fraction: float) -> "ExperimentBuilder":
        """Set the aggregate load the arrival rates are solved for."""
        return self.population(target_load=float(fraction))

    def replication_factor(self, n_results: int, quorum=_UNSET) -> "ExperimentBuilder":
        """Set BOINC-style query redundancy (replicas and quorum).

        ``quorum`` is only touched when passed explicitly (``None``
        means "all replicas must answer").
        """
        kwargs = {"n_results": int(n_results)}
        if quorum is not _UNSET:
            kwargs["quorum"] = quorum
        return self.population(**kwargs)

    def memory(
        self, size: int, jitter: Optional[float] = None
    ) -> "ExperimentBuilder":
        """Set the satisfaction window length (and optional jitter)."""
        kwargs = {"memory": int(size)}
        if jitter is not None:
            kwargs["memory_jitter"] = float(jitter)
        return self.population(**kwargs)

    def intentions(
        self, consumer=None, provider=None
    ) -> "ExperimentBuilder":
        """Set the intention models (names, dicts or model instances)."""
        kwargs = {}
        if consumer is not None:
            kwargs["consumer_intentions"] = consumer
        if provider is not None:
            kwargs["provider_intentions"] = provider
        return self.population(**kwargs)

    def focal_provider(self, **kwargs) -> "ExperimentBuilder":
        """Add the Scenario-7 style focal volunteer probe."""
        kwargs = dataclass_kwargs(FocalProviderSpec, kwargs, "focal_provider")
        return self.population(focal_provider=FocalProviderSpec(**kwargs))

    def focal_consumer(self, **kwargs) -> "ExperimentBuilder":
        """Add the Scenario-7 style focal project probe."""
        kwargs = dataclass_kwargs(FocalConsumerSpec, kwargs, "focal_consumer")
        return self.population(focal_consumer=FocalConsumerSpec(**kwargs))

    # ------------------------------------------------------------------
    # Autonomy and failures
    # ------------------------------------------------------------------

    def autonomy(self, **kwargs) -> "ExperimentBuilder":
        """Override any :class:`AutonomyConfig` field by name."""
        kwargs = dataclass_kwargs(AutonomyConfig, kwargs, "autonomy")
        return self._set(autonomy=replace(self._state["autonomy"], **kwargs))

    def captive(self) -> "ExperimentBuilder":
        """Participants cannot leave (the paper's captive regime)."""
        return self.autonomy(mode="captive")

    def autonomous(self, **kwargs) -> "ExperimentBuilder":
        """Participants depart below their satisfaction thresholds.

        Keyword arguments are the remaining :class:`AutonomyConfig`
        fields (thresholds, warmup, check interval, rejoin cooldown).
        """
        return self.autonomy(mode="autonomous", **kwargs)

    def failures(
        self,
        mttf: float,
        repair_time: Optional[float] = 120.0,
        start: float = 0.0,
        result_timeout: Optional[float] = None,
    ) -> "ExperimentBuilder":
        """Enable crash injection; see :class:`FailureConfig`.

        Crash runs need a consumer ``result_timeout``; pass it here or
        via :meth:`result_timeout` (build() enforces the coupling).
        """
        self._set(
            failures=FailureConfig(
                mttf=float(mttf), repair_time=repair_time, start=float(start)
            )
        )
        if result_timeout is not None:
            self.result_timeout(result_timeout)
        return self

    def result_timeout(self, seconds: Optional[float]) -> "ExperimentBuilder":
        """Write off queries whose results do not arrive in time."""
        return self._set(result_timeout=None if seconds is None else float(seconds))

    # ------------------------------------------------------------------
    # Federation
    # ------------------------------------------------------------------

    def federation(self, **kwargs) -> "ExperimentBuilder":
        """Enable the sharded multi-mediator federation.

        Keyword arguments are :class:`FederationConfig` fields
        (``shards``, ``partition``, ``forward_threshold``,
        ``virtual_nodes``); repeated calls override fields on the
        accumulated config.
        """
        kwargs = dataclass_kwargs(FederationConfig, kwargs, "federation")
        base = self._state["federation"] or FederationConfig()
        return self._set(federation=replace(base, **kwargs))

    def shards(self, k: Optional[int]) -> "ExperimentBuilder":
        """Set the mediator shard count (``None`` disables federation)."""
        if k is None:
            return self._set(federation=None)
        return self.federation(shards=int(k))

    # ------------------------------------------------------------------
    # Measurement flags
    # ------------------------------------------------------------------

    def adequation_over_candidates(self, enabled: bool = True) -> "ExperimentBuilder":
        """Compute adequation over the whole capable set (costlier)."""
        return self._set(adequation_over_candidates=bool(enabled))

    def keep_records(self, enabled: bool = True) -> "ExperimentBuilder":
        """Retain every allocation record for post-run analysis."""
        return self._set(keep_records=bool(enabled))

    def track_provider_snapshots(self, enabled: bool = True) -> "ExperimentBuilder":
        """Record per-provider satisfaction at every metric sweep."""
        return self._set(track_provider_snapshots=bool(enabled))

    # ------------------------------------------------------------------
    # Policies and replications
    # ------------------------------------------------------------------

    def policy(
        self, name: str, label: Optional[str] = None, **params
    ) -> "ExperimentBuilder":
        """Add one allocation technique to the comparison.

        For ``name="sbqa"`` the keyword arguments are
        :class:`SbQAConfig` fields (``k``, ``kn``, ``epsilon``,
        ``omega``); for the baselines they are constructor parameters
        (e.g. ``selfishness`` for the economic policy).
        """
        if name.lower() == "sbqa":
            sbqa_kwargs = dataclass_kwargs(SbQAConfig, params, "SbQAConfig")
            spec = PolicySpec(
                name="sbqa", label=label or "", sbqa=SbQAConfig(**sbqa_kwargs)
            )
        else:
            spec = PolicySpec(name=name, label=label or "", params=params)
        return self.policy_spec(spec)

    def policy_spec(self, spec: PolicySpec) -> "ExperimentBuilder":
        """Add a pre-built :class:`PolicySpec` (sweeps, custom labels)."""
        if not isinstance(spec, PolicySpec):
            raise TypeError(f"expected a PolicySpec, got {type(spec).__name__}")
        self._state["policies"].append(spec)
        return self

    def clear_policies(self) -> "ExperimentBuilder":
        """Drop the accumulated policy list (preset overrides)."""
        return self._set(policies=[])

    def replications(self, n: int) -> "ExperimentBuilder":
        """Run every policy this many times over independent seeds."""
        return self._set(replications=int(n))

    # ------------------------------------------------------------------
    # Terminal operations
    # ------------------------------------------------------------------

    def build(self) -> ExperimentSpec:
        """Validate and return the accumulated :class:`ExperimentSpec`.

        With no :meth:`policy` calls the spec defaults to SbQA alone.
        """
        policies = tuple(self._state["policies"]) or (PolicySpec(name="sbqa"),)
        return ExperimentSpec(**dict(self._state, policies=policies))

    def session(self):
        """A :class:`~repro.api.session.Session` over the built spec."""
        from repro.api.session import Session

        return Session(self.build())

    def run(self, parallel: bool = False, max_workers: Optional[int] = None):
        """Build and execute; see :meth:`repro.api.session.Session.run`."""
        return self.session().run(parallel=parallel, max_workers=max_workers)

    def sweep(self):
        """A :class:`~repro.api.sweep.SweepBuilder` over the built spec.

        Turns the accumulated experiment into the *base* of a parameter
        grid; chain ``.axis(path, values)`` calls and ``.run()`` /
        ``.stream()`` from there.
        """
        from repro.api.sweep import SweepBuilder

        return SweepBuilder(self.build())


class Experiment:
    """Entry points of the layered API (purely static; not instantiated)."""

    def __new__(cls, *args, **kwargs):  # pragma: no cover - misuse guard
        raise TypeError(
            "Experiment is a namespace; use Experiment.builder(), "
            "Experiment.from_scenario(...) or Experiment.load(...)"
        )

    @staticmethod
    def builder() -> ExperimentBuilder:
        """A blank fluent builder."""
        return ExperimentBuilder()

    @staticmethod
    def from_scenario(scenario_id: str, **overrides) -> ExperimentBuilder:
        """A builder seeded from a demo scenario preset.

        ``overrides`` are the preset parameters: ``seed``, ``duration``,
        ``n_providers``, ``replications``, plus any
        :class:`BoincScenarioParams` field.
        """
        return ExperimentBuilder(scenario_spec(scenario_id, **overrides))

    @staticmethod
    def from_spec(spec) -> ExperimentBuilder:
        """A builder seeded from a spec (or its dict form)."""
        if isinstance(spec, dict):
            spec = ExperimentSpec.from_dict(spec)
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                f"expected an ExperimentSpec or dict, got {type(spec).__name__}"
            )
        return ExperimentBuilder(spec)

    @staticmethod
    def from_config(
        config: ExperimentConfig, policies, replications: int = 1
    ) -> ExperimentBuilder:
        """A builder lifted from the imperative ``(config, policies)`` pair."""
        return ExperimentBuilder(
            ExperimentSpec.from_config(config, policies, replications=replications)
        )

    @staticmethod
    def load(path: Union[str, Path]) -> ExperimentBuilder:
        """A builder seeded from a JSON spec file."""
        return ExperimentBuilder(ExperimentSpec.load(path))

    @staticmethod
    def sweep(base=None):
        """A :class:`~repro.api.sweep.SweepBuilder`, optionally seeded.

        ``base`` may be an :class:`ExperimentSpec`, a builder, or a spec
        dict; omitted, the sweep derives from the default experiment.
        """
        from repro.api.sweep import SweepBuilder

        if isinstance(base, ExperimentBuilder):
            base = base.build()
        elif isinstance(base, dict):
            base = ExperimentSpec.from_dict(base)
        elif base is not None and not isinstance(base, ExperimentSpec):
            raise TypeError(
                "Experiment.sweep() takes an ExperimentSpec, an "
                f"ExperimentBuilder or a spec dict, got {type(base).__name__}"
            )
        return SweepBuilder(base)

    @staticmethod
    def tune(search):
        """A :class:`~repro.api.tune.TuneBuilder` over a search space.

        ``search`` is the parameter grid to race: a
        :class:`~repro.api.sweep.SweepSpec`, a
        :class:`~repro.api.sweep.SweepBuilder`, or a sweep dict.  Chain
        ``.objective(...)``, ``.budget(...)`` and ``.run()`` from the
        returned builder -- or end a sweep chain with ``.tune()`` for
        the same thing.
        """
        from repro.api.sweep import SweepBuilder, SweepSpec
        from repro.api.tune import TuneBuilder

        if isinstance(search, SweepBuilder):
            search = search.build()
        elif isinstance(search, dict):
            search = SweepSpec.from_dict(search)
        elif not isinstance(search, SweepSpec):
            raise TypeError(
                "Experiment.tune() takes a SweepSpec, a SweepBuilder or a "
                f"sweep dict, got {type(search).__name__}"
            )
        return TuneBuilder(search)
