"""The seven demo scenarios of Section IV, as runnable experiments.

Each ``scenarioN_*`` function builds the configuration the demo
describes, runs every technique it compares, evaluates the paper's
qualitative claims as machine-checked :class:`Claim` objects, and
returns a :class:`ScenarioResult` whose :meth:`~ScenarioResult.report`
prints the tables and curves the demo GUIs displayed.

Scale parameters (``duration``, ``n_providers``, ``seed``) default to
the reference scale (2400 s, 120 providers); benches pass smaller
values.  Claims are *shape* checks: who wins, by roughly what factor --
absolute numbers depend on the simulated substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.analysis.prediction import predict_departures
from repro.api.presets import (
    sbqa_policy,
    scenario6_kn_values,
    scenario_autonomy,
    scenario_spec,
)
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.experiments.config import DEFAULT_SEED
from repro.experiments.report import (
    DEFAULT_COLUMNS,
    render_claims,
    render_comparison,
    render_run_series,
)
from repro.experiments.runner import RunResult
from repro.system.autonomy import PAPER_PROVIDER_THRESHOLD
from repro.workloads.boinc import BoincScenarioParams


@dataclass(frozen=True)
class Claim:
    """One machine-checked qualitative claim from the paper."""

    description: str
    passed: bool
    details: str = ""


@dataclass
class ScenarioResult:
    """Everything one scenario produced."""

    scenario_id: str
    title: str
    description: str
    runs: List[RunResult]
    claims: List[Claim]
    columns: Sequence[str] = DEFAULT_COLUMNS
    extra_sections: List[str] = field(default_factory=list)

    @property
    def all_claims_pass(self) -> bool:
        return all(claim.passed for claim in self.claims)

    def run(self, label: str) -> RunResult:
        """The run with the given label (KeyError if absent)."""
        for run in self.runs:
            if run.label == label:
                return run
        raise KeyError(f"no run labelled {label!r} in {self.scenario_id}")

    def report(self) -> str:
        """Multi-section textual report (tables + claims + curves)."""
        parts = [
            f"=== {self.scenario_id}: {self.title} ===",
            self.description.strip(),
            "",
            render_comparison(self.runs, columns=self.columns, title="Comparison"),
            "",
            render_run_series(self.runs, "provider_satisfaction"),
            "",
            render_run_series(self.runs, "consumer_satisfaction"),
            "",
            render_claims(self.claims),
        ]
        parts.extend("" + section for section in self.extra_sections)
        return "\n".join(parts)


# ----------------------------------------------------------------------
# Shared building blocks
# ----------------------------------------------------------------------
#
# Every scenario builds its preset :class:`ExperimentSpec` through
# :func:`repro.api.presets.scenario_spec` and executes it through a
# serial :class:`Session` -- the same objects `sbqa run --spec` and the
# builder API drive -- then layers the paper's machine-checked claims
# on top of the kept :class:`RunResult` objects.


def _scenario_runs(scenario_id: str, **kwargs) -> List[RunResult]:
    """Run a scenario's preset spec; one RunResult per policy."""
    return Session(scenario_spec(scenario_id, **kwargs)).run().runs


def _fraction_dissatisfied(run: RunResult, threshold: float = PAPER_PROVIDER_THRESHOLD) -> float:
    """Share of providers ending the run below ``threshold`` satisfaction."""
    providers = run.registry.providers
    if not providers:
        return 0.0
    low = sum(1 for p in providers if p.satisfaction < threshold)
    return low / len(providers)


def _archetype_departure_fraction(run: RunResult, archetype: str) -> float:
    """Share of an archetype's providers that left during the run."""
    members = run.population.providers_of_archetype(archetype)
    if not members:
        return 0.0
    return sum(1 for p in members if not p.online) / len(members)


def _claim(description: str, passed: bool, details: str) -> Claim:
    return Claim(description=description, passed=bool(passed), details=details)


# ----------------------------------------------------------------------
# Scenario 1 -- the satisfaction model analyses any technique (captive)
# ----------------------------------------------------------------------


def scenario1_satisfaction_model(
    seed: int = DEFAULT_SEED,
    duration: float = 2400.0,
    n_providers: int = 120,
) -> ScenarioResult:
    """Capacity-based vs economic allocation under the satisfaction lens.

    Captive environment (participants cannot quit -- BOINC as a grid
    platform over dedicated machines).  The claim demonstrated: the
    satisfaction model produces meaningful, comparable profiles for
    techniques whose allocation principles differ completely, and both
    interest-blind techniques leave an interest-driven minority of
    providers poorly satisfied.
    """
    runs = _scenario_runs(
        "scenario1", seed=seed, duration=duration, n_providers=n_providers
    )
    capacity, economic = runs

    sat_gap = abs(
        capacity.summary.provider_satisfaction_final
        - economic.summary.provider_satisfaction_final
    )
    frac_cap = _fraction_dissatisfied(capacity)
    frac_eco = _fraction_dissatisfied(economic)
    claims = [
        _claim(
            "model discriminates techniques with different principles",
            sat_gap > 0.02,
            f"|provider sat gap| = {sat_gap:.3f}",
        ),
        _claim(
            "interest-blind allocation leaves a dissatisfied provider minority",
            frac_cap > 0.10 and frac_eco > 0.10,
            f"fraction below {PAPER_PROVIDER_THRESHOLD}: capacity={frac_cap:.2f}, "
            f"economic={frac_eco:.2f}",
        ),
        _claim(
            "satisfaction values are well-defined for every participant",
            all(0.0 <= p.satisfaction <= 1.0 for r in runs for p in r.registry.providers)
            and all(0.0 <= c.satisfaction <= 1.0 for r in runs for c in r.registry.consumers),
            "all delta_s in [0, 1]",
        ),
    ]
    return ScenarioResult(
        scenario_id="scenario1",
        title="Satisfaction model over baseline techniques (captive)",
        description=__doc_section(scenario1_satisfaction_model),
        runs=runs,
        claims=claims,
    )


# ----------------------------------------------------------------------
# Scenario 2 -- predicting departures (autonomous baselines)
# ----------------------------------------------------------------------


def scenario2_departures(
    seed: int = DEFAULT_SEED,
    duration: float = 2400.0,
    n_providers: int = 120,
) -> ScenarioResult:
    """Baselines under churn: dissatisfaction predicts departures.

    Same population as Scenario 1, but BOINC is now volunteer computing:
    a provider leaves below satisfaction 0.35, a consumer below 0.5.
    The demonstration: the satisfaction trajectories identify who will
    leave -- the interest-starved archetypes -- and the baselines shed
    capacity.
    """
    runs = _scenario_runs(
        "scenario2", seed=seed, duration=duration, n_providers=n_providers
    )
    capacity, economic = runs

    picky_cap = _archetype_departure_fraction(capacity, "picky")
    enth_cap = _archetype_departure_fraction(capacity, "enthusiast")
    predictions = {
        run.label: predict_departures(run.hub, run.registry) for run in runs
    }
    claims = [
        _claim(
            "baselines lose providers by dissatisfaction",
            capacity.summary.provider_departures > 0
            and economic.summary.provider_departures > 0,
            f"departures: capacity={capacity.summary.provider_departures}, "
            f"economic={economic.summary.provider_departures}",
        ),
        _claim(
            "departures are predicted by interest profile (picky >> enthusiast)",
            picky_cap > enth_cap,
            f"capacity run: picky departed {picky_cap:.2f}, enthusiast {enth_cap:.2f}",
        ),
        _claim(
            "lost participants mean lost capacity",
            capacity.summary.capacity_remaining_fraction < 0.95,
            f"capacity remaining: {capacity.summary.capacity_remaining_fraction:.2f}",
        ),
        _claim(
            "every departed provider crossed the threshold",
            all(
                d.satisfaction < PAPER_PROVIDER_THRESHOLD
                for r in runs
                for d in r.hub.departures
                if d.kind == "provider"
            ),
            "departure satisfactions all below 0.35",
        ),
        _claim(
            "early dissatisfaction predicts later departure beyond chance "
            "(BOINC-equivalent dispatcher)",
            predictions["capacity"].true_positives >= 1
            and predictions["capacity"].precision > predictions["capacity"].base_rate,
            f"capacity: precision={predictions['capacity'].precision:.2f} vs "
            f"base rate={predictions['capacity'].base_rate:.2f} "
            f"(economic churns too fast for a single observation point; "
            f"see the prediction-quality section)",
        ),
    ]
    return ScenarioResult(
        scenario_id="scenario2",
        title="Departure prediction under autonomy (baselines)",
        description=__doc_section(scenario2_departures),
        runs=runs,
        claims=claims,
        extra_sections=[
            "Departure-prediction quality:\n"
            + "\n".join(
                f"  {label}: {report.format()}"
                for label, report in predictions.items()
            )
        ],
    )


# ----------------------------------------------------------------------
# Scenario 3 -- SbQA in captive environments
# ----------------------------------------------------------------------


def scenario3_captive(
    seed: int = DEFAULT_SEED,
    duration: float = 2400.0,
    n_providers: int = 120,
) -> ScenarioResult:
    """SbQA vs baselines where nobody can leave.

    The paper: "SbQA's performance is not far from those of baseline
    techniques ... suitable for captive environments even if it was not
    designed for".  Expected shape: response times within a small
    factor of the capacity baseline, satisfaction strictly higher.
    """
    runs = _scenario_runs(
        "scenario3", seed=seed, duration=duration, n_providers=n_providers
    )
    sbqa, capacity, economic = runs

    claims = [
        _claim(
            "SbQA satisfies providers better than both baselines",
            sbqa.summary.provider_satisfaction_final
            > capacity.summary.provider_satisfaction_final
            and sbqa.summary.provider_satisfaction_final
            > economic.summary.provider_satisfaction_final,
            f"provider sat: sbqa={sbqa.summary.provider_satisfaction_final:.3f}, "
            f"capacity={capacity.summary.provider_satisfaction_final:.3f}, "
            f"economic={economic.summary.provider_satisfaction_final:.3f}",
        ),
        _claim(
            "SbQA response time is not far from the best baseline (<= 2.5x)",
            sbqa.summary.mean_response_time
            <= 2.5 * max(1e-9, capacity.summary.mean_response_time),
            f"mean rt: sbqa={sbqa.summary.mean_response_time:.1f}s, "
            f"capacity={capacity.summary.mean_response_time:.1f}s",
        ),
        _claim(
            "no technique fails queries in the captive regime",
            all(r.summary.failure_rate < 0.01 for r in runs),
            f"failure rates: {[round(r.summary.failure_rate, 4) for r in runs]}",
        ),
    ]
    return ScenarioResult(
        scenario_id="scenario3",
        title="SbQA vs baselines, captive environment",
        description=__doc_section(scenario3_captive),
        runs=runs,
        claims=claims,
    )


# ----------------------------------------------------------------------
# Scenario 4 -- SbQA in autonomous environments
# ----------------------------------------------------------------------


def scenario4_autonomous(
    seed: int = DEFAULT_SEED,
    duration: float = 2400.0,
    n_providers: int = 120,
) -> ScenarioResult:
    """SbQA vs baselines under churn: preserving volunteers preserves
    performance.

    The paper's headline: "SbQA can significantly improve the
    performance of BOINC-based projects by preserving most volunteers
    online and hence more computational resources."
    """
    runs = _scenario_runs(
        "scenario4", seed=seed, duration=duration, n_providers=n_providers
    )
    sbqa, capacity, economic = runs

    claims = [
        _claim(
            "SbQA preserves more providers than both baselines",
            sbqa.summary.providers_remaining > capacity.summary.providers_remaining
            and sbqa.summary.providers_remaining > economic.summary.providers_remaining,
            f"providers online at end: sbqa={sbqa.summary.providers_remaining}, "
            f"capacity={capacity.summary.providers_remaining}, "
            f"economic={economic.summary.providers_remaining}",
        ),
        _claim(
            "SbQA preserves most volunteers (>= 60% online at end)",
            sbqa.summary.providers_remaining_fraction >= 0.60,
            f"sbqa fraction online: {sbqa.summary.providers_remaining_fraction:.2f}",
        ),
        _claim(
            "SbQA retains more aggregate computational capacity",
            sbqa.summary.capacity_remaining_fraction
            > capacity.summary.capacity_remaining_fraction
            and sbqa.summary.capacity_remaining_fraction
            > economic.summary.capacity_remaining_fraction,
            f"capacity remaining: sbqa={sbqa.summary.capacity_remaining_fraction:.2f}, "
            f"capacity={capacity.summary.capacity_remaining_fraction:.2f}, "
            f"economic={economic.summary.capacity_remaining_fraction:.2f}",
        ),
        _claim(
            "throughput is not materially worse than any baseline (>= 90%)",
            sbqa.summary.queries_completed
            >= 0.9
            * max(
                capacity.summary.queries_completed, economic.summary.queries_completed
            ),
            f"completed: sbqa={sbqa.summary.queries_completed}, "
            f"capacity={capacity.summary.queries_completed}, "
            f"economic={economic.summary.queries_completed}",
        ),
    ]
    return ScenarioResult(
        scenario_id="scenario4",
        title="SbQA vs baselines, autonomous environment",
        description=__doc_section(scenario4_autonomous),
        runs=runs,
        claims=claims,
        columns=tuple(DEFAULT_COLUMNS) + ("capacity_remaining_fraction",),
    )


# ----------------------------------------------------------------------
# Scenario 5 -- adaptation to participants' expectations
# ----------------------------------------------------------------------


def scenario5_expectation_adaptation(
    seed: int = DEFAULT_SEED,
    duration: float = 2400.0,
    n_providers: int = 120,
) -> ScenarioResult:
    """Participants switch to performance-only intentions; SbQA follows.

    "We modify the manner in which participants compute their
    intentions so that projects be interested only in response times
    and volunteers be interested in their load.  SbQA significantly
    improves response times and balances better queries among
    volunteers" -- i.e. the *same* allocation process becomes a load
    balancer when that is what participants want.
    """
    # Two populations, so two specs: the interest-driven arm runs SbQA
    # alone; the performance-driven arm is the scenario5 preset (SbQA
    # vs the dedicated load balancer).
    interests_spec = ExperimentSpec(
        name="scenario5-interests",
        seed=seed,
        duration=duration,
        population=BoincScenarioParams(n_providers=n_providers),
        autonomy=scenario_autonomy(False, duration),
        policies=(sbqa_policy("sbqa[interests]"),),
    )
    performance = Session(
        scenario_spec(
            "scenario5", seed=seed, duration=duration, n_providers=n_providers
        )
    ).run()

    run_interests = Session(interests_spec).run().runs[0]
    run_performance = performance.run("sbqa[performance]")
    run_capacity = performance.run("capacity")
    runs = [run_interests, run_performance, run_capacity]

    claims = [
        _claim(
            "performance intentions cut SbQA response times",
            run_performance.summary.mean_response_time
            < run_interests.summary.mean_response_time,
            f"mean rt: interests={run_interests.summary.mean_response_time:.1f}s, "
            f"performance={run_performance.summary.mean_response_time:.1f}s",
        ),
        _claim(
            "performance intentions balance load better (lower work gini)",
            run_performance.summary.work_gini < run_interests.summary.work_gini,
            f"work gini: interests={run_interests.summary.work_gini:.3f}, "
            f"performance={run_performance.summary.work_gini:.3f}",
        ),
        _claim(
            "adapted SbQA approaches the dedicated load balancer (<= 1.5x rt)",
            run_performance.summary.mean_response_time
            <= 1.5 * max(1e-9, run_capacity.summary.mean_response_time),
            f"mean rt: sbqa[performance]={run_performance.summary.mean_response_time:.1f}s, "
            f"capacity={run_capacity.summary.mean_response_time:.1f}s",
        ),
    ]
    return ScenarioResult(
        scenario_id="scenario5",
        title="Self-adaptation to participants' expectations",
        description=__doc_section(scenario5_expectation_adaptation),
        runs=runs,
        claims=claims,
        columns=tuple(DEFAULT_COLUMNS) + ("utilization_gini", "work_gini"),
    )


# ----------------------------------------------------------------------
# Scenario 6 -- adaptation to the application (kn and omega)
# ----------------------------------------------------------------------


def scenario6_application_adaptability(
    seed: int = DEFAULT_SEED,
    duration: float = 2400.0,
    n_providers: int = 120,
    k: int = 20,
) -> ScenarioResult:
    """Tuning SbQA to the application by varying kn and omega.

    Small ``kn`` biases KnBest toward load balancing (low response
    times); ``kn = k`` biases toward interest matching.  ``omega = 0``
    scores by consumer intentions only, ``omega = 1`` by provider
    intentions only; Equation 2 sits in between adaptively.  Captive
    environment so the tuning effects are not confounded by churn.
    """
    runs = _scenario_runs(
        "scenario6", seed=seed, duration=duration, n_providers=n_providers, k=k
    )
    kn_values = scenario6_kn_values(k)

    by_label = {run.label: run for run in runs}
    rt_small_kn = by_label[f"sbqa[kn={kn_values[0]}]"].summary.mean_response_time
    rt_large_kn = by_label[f"sbqa[kn={kn_values[-1]}]"].summary.mean_response_time
    sat_small_kn = by_label[f"sbqa[kn={kn_values[0]}]"].summary.provider_satisfaction_final
    sat_large_kn = by_label[f"sbqa[kn={kn_values[-1]}]"].summary.provider_satisfaction_final
    cons_w0 = by_label["sbqa[w=0]"].summary.consumer_satisfaction_final
    cons_w1 = by_label["sbqa[w=1]"].summary.consumer_satisfaction_final
    prov_w0 = by_label["sbqa[w=0]"].summary.provider_satisfaction_final
    prov_w1 = by_label["sbqa[w=1]"].summary.provider_satisfaction_final
    adaptive = by_label["sbqa[w=adaptive]"].summary

    claims = [
        _claim(
            "small kn favours response time (kn=1 faster than kn=k)",
            rt_small_kn <= rt_large_kn,
            f"mean rt: kn={kn_values[0]} -> {rt_small_kn:.1f}s, "
            f"kn={kn_values[-1]} -> {rt_large_kn:.1f}s",
        ),
        _claim(
            "large kn favours provider interests (higher provider sat)",
            sat_large_kn >= sat_small_kn,
            f"provider sat: kn={kn_values[0]} -> {sat_small_kn:.3f}, "
            f"kn={kn_values[-1]} -> {sat_large_kn:.3f}",
        ),
        _claim(
            "omega=0 serves consumers better than omega=1",
            cons_w0 >= cons_w1,
            f"consumer sat: w=0 -> {cons_w0:.3f}, w=1 -> {cons_w1:.3f}",
        ),
        _claim(
            "omega=1 serves providers better than omega=0",
            prov_w1 >= prov_w0,
            f"provider sat: w=0 -> {prov_w0:.3f}, w=1 -> {prov_w1:.3f}",
        ),
        _claim(
            "adaptive omega balances both sides (between the extremes)",
            min(prov_w0, prov_w1) - 0.05
            <= adaptive.provider_satisfaction_final
            <= max(prov_w0, prov_w1) + 0.05,
            f"adaptive provider sat {adaptive.provider_satisfaction_final:.3f} vs "
            f"extremes [{min(prov_w0, prov_w1):.3f}, {max(prov_w0, prov_w1):.3f}]",
        ),
    ]
    return ScenarioResult(
        scenario_id="scenario6",
        title="Application adaptability: kn and omega tuning",
        description=__doc_section(scenario6_application_adaptability),
        runs=runs,
        claims=claims,
        columns=(
            "consumer_sat_final",
            "provider_sat_final",
            "mean_rt",
            "p95_rt",
            "utilization_gini",
            "work_gini",
        ),
    )


# ----------------------------------------------------------------------
# Scenario 7 -- playing a BOINC participant
# ----------------------------------------------------------------------


def scenario7_focal_participant(
    seed: int = DEFAULT_SEED,
    duration: float = 2400.0,
    n_providers: int = 120,
) -> ScenarioResult:
    """A focal consumer and provider with sharp interests probe every
    mediation.

    The demo let attendees set their own preferences and watch "which
    [mediations] allow her to reach her objectives", claiming that "the
    SQLB mediation used by SbQA is the only one that allows a
    participant to reach its objectives in all cases."  We replace the
    human with two deterministic probes: a volunteer who only loves the
    unpopular project, and a project that trusts a small provider
    subset.
    """
    runs = _scenario_runs(
        "scenario7", seed=seed, duration=duration, n_providers=n_providers
    )

    def focal_provider_sat(run: RunResult) -> float:
        return run.registry.provider("focal-provider").satisfaction

    def focal_consumer_sat(run: RunResult) -> float:
        return run.registry.consumer("focal-consumer").satisfaction

    sbqa = runs[0]
    others = runs[1:]
    # "Reach its objectives", operationalised: the provider probe wants
    # to work for its loved project and be clearly satisfied doing so
    # (well above the neutral 0.5); the consumer probe wants the best
    # service any mediation can give it (ties within `tolerance`).
    provider_objective = 0.7
    tolerance = 0.02
    best_consumer = max(focal_consumer_sat(r) for r in runs)

    def serves_both(run: RunResult) -> bool:
        return (
            focal_provider_sat(run) >= provider_objective
            and focal_consumer_sat(run) >= best_consumer - tolerance
        )

    claims = [
        _claim(
            "the focal provider reaches its objectives under SbQA (sat >= 0.7)",
            focal_provider_sat(sbqa) >= provider_objective,
            "focal provider sat: "
            + ", ".join(f"{r.label}={focal_provider_sat(r):.3f}" for r in runs),
        ),
        _claim(
            "the focal consumer reaches its objectives under SbQA (ties allowed)",
            focal_consumer_sat(sbqa) >= best_consumer - tolerance,
            "focal consumer sat: "
            + ", ".join(f"{r.label}={focal_consumer_sat(r):.3f}" for r in runs),
        ),
        _claim(
            "SbQA is the only mediation serving both probes at once",
            serves_both(sbqa) and not any(serves_both(r) for r in others),
            f"sbqa serves both: {serves_both(sbqa)}; baselines serving both: "
            f"{[r.label for r in others if serves_both(r)] or 'none'}",
        ),
    ]
    focal_table_rows = [
        f"{r.label}: focal provider sat={focal_provider_sat(r):.3f}, "
        f"focal consumer sat={focal_consumer_sat(r):.3f}"
        for r in runs
    ]
    return ScenarioResult(
        scenario_id="scenario7",
        title="Playing a BOINC participant (focal probes)",
        description=__doc_section(scenario7_focal_participant),
        runs=runs,
        claims=claims,
        extra_sections=["Focal satisfaction:\n" + "\n".join(focal_table_rows)],
    )


# ----------------------------------------------------------------------


def __doc_section(fn: Callable) -> str:
    """First paragraph block of a scenario docstring, for reports."""
    doc = fn.__doc__ or ""
    return "\n".join(line.strip() for line in doc.strip().splitlines())


#: Scenario id -> callable, for the CLI and the benches.
ALL_SCENARIOS: Dict[str, Callable[..., ScenarioResult]] = {
    "scenario1": scenario1_satisfaction_model,
    "scenario2": scenario2_departures,
    "scenario3": scenario3_captive,
    "scenario4": scenario4_autonomous,
    "scenario5": scenario5_expectation_adaptation,
    "scenario6": scenario6_application_adaptability,
    "scenario7": scenario7_focal_participant,
}
