"""The demo's example scenario: a BOINC-like volunteer-computing system.

Three research projects (consumers) with the popularity structure of
Section IV -- SETI@home popular, proteins@home normal, Einstein@home
unpopular -- served by a heterogeneous volunteer population built from
the archetypes of :mod:`repro.workloads.preferences`.

:func:`build_boinc_population` produces participants only; the
experiment runner wires them to a mediator, arrival processes, churn
monitor and metrics hub.  Everything is drawn from named substreams of
one :class:`~repro.des.rng.RandomRoot`, so a population is a pure
function of ``(seed, params)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.queries import DemandModel

from repro.core.intentions import (
    ConsumerIntentionModel,
    PreferenceUtilizationIntentions,
    ProviderIntentionModel,
    ReputationBlendIntentions,
    make_consumer_intention_model,
    make_provider_intention_model,
)
from repro.des.network import Network
from repro.des.rng import RandomRoot
from repro.des.scheduler import Simulator
from repro.system.consumer import Consumer
from repro.system.provider import Provider
from repro.system.registry import SystemRegistry
from repro.workloads.preferences import (
    ArchetypeMix,
    draw_consumer_preferences,
    draw_provider_archetype,
    draw_provider_preferences,
    shares_from_preferences,
)


@dataclass(frozen=True)
class ProjectSpec:
    """One research project (consumer).

    ``popularity_weight`` biases which project selective volunteers
    love; ``rate_scale`` scales the project's share of the global
    arrival rate (1.0 = equal share).
    """

    name: str
    popularity: str  # "popular" | "normal" | "unpopular" (documentation tag)
    popularity_weight: float
    rate_scale: float = 1.0


def paper_projects() -> Tuple[ProjectSpec, ...]:
    """The three projects of the demo scenario."""
    return (
        # rate_scale values sum to 3.0, so the aggregate load matches the
        # equal-share design while popular projects issue more queries --
        # which is what drowns unpopular-project devotees in unwanted
        # work under interest-blind allocation.
        ProjectSpec("seti", "popular", popularity_weight=0.6, rate_scale=1.35),
        ProjectSpec("proteins", "normal", popularity_weight=0.3, rate_scale=1.05),
        ProjectSpec("einstein", "unpopular", popularity_weight=0.1, rate_scale=0.6),
    )


@dataclass(frozen=True)
class FocalProviderSpec:
    """Scenario 7 probe: a volunteer with sharply defined interests."""

    participant_id: str = "focal-provider"
    loves: str = "einstein"
    love_preference: float = 0.9
    dislike_preference: float = -0.8
    capacity: float = 1.0


@dataclass(frozen=True)
class FocalConsumerSpec:
    """Scenario 7 probe: a project trusting a small provider subset."""

    participant_id: str = "focal-consumer"
    n_trusted: int = 10
    trusted_preference: float = 0.9
    other_preference: float = -0.5
    rate_scale: float = 1.0
    popularity_weight: float = 0.1


@dataclass
class BoincScenarioParams:
    """Every knob of the BOINC population and workload.

    The defaults realise the regime the demo operates in: moderate load
    (~55% of aggregate capacity), replicated queries (``n_results=2``,
    BOINC's redundancy against malicious volunteers), heterogeneous
    volunteer capacity, and an interest mix in which interest-blind
    allocation leaves a substantial provider minority dissatisfied.
    """

    n_providers: int = 120
    projects: Tuple[ProjectSpec, ...] = field(default_factory=paper_projects)
    archetype_mix: ArchetypeMix = field(default_factory=ArchetypeMix)

    capacity_mean: float = 1.0
    capacity_cv: float = 0.3
    demand_mean: float = 30.0
    demand_cv: float = 0.5
    #: "lognormal" (moderate variance, the scenario default) or
    #: "pareto" (heavy-tailed: a few huge tasks dominate; the tail
    #: exponent is derived from demand_mean and pareto_minimum).
    demand_distribution: str = "lognormal"
    pareto_minimum: float = 10.0
    n_results: int = 2
    #: Quorum stamped on every query (None = all replicas must answer).
    #: BOINC issues n replicas and validates once `quorum` agree; the
    #: crash-injection benches exercise this defence.
    quorum: Optional[int] = None
    target_load: float = 0.70

    memory: int = 100
    #: Per-participant window heterogeneity ("The k value may be
    #: different for each participant depending on its memory capacity",
    #: Section II): each participant draws its window length uniformly
    #: from [memory*(1-jitter), memory*(1+jitter)].  0 = the demo's
    #: simplification (everyone uses the same k).
    memory_jitter: float = 0.0
    saturation_horizon: float = 120.0
    rt_reference: float = 120.0

    consumer_intentions: object = field(
        default_factory=lambda: ReputationBlendIntentions(alpha=0.3)
    )
    # beta = 0.1: interests dominate the expressed intention (Scenarios
    # 1-4 study interest-driven participants; Scenario 5 switches to
    # load-only).  KnBest stage 2 handles load-awareness regardless.
    provider_intentions: object = field(
        default_factory=lambda: PreferenceUtilizationIntentions(beta=0.1)
    )

    preferred_fraction: float = 0.25
    focal_provider: Optional[FocalProviderSpec] = None
    focal_consumer: Optional[FocalConsumerSpec] = None

    def __post_init__(self) -> None:
        if self.n_providers < 1:
            raise ValueError(f"need at least one provider, got {self.n_providers}")
        if not self.projects:
            raise ValueError("need at least one project")
        if self.target_load <= 0:
            raise ValueError(f"target_load must be positive, got {self.target_load}")
        if self.n_results < 1:
            raise ValueError(f"n_results must be >= 1, got {self.n_results}")
        if not 0.0 <= self.memory_jitter < 1.0:
            raise ValueError(
                f"memory_jitter must be in [0, 1), got {self.memory_jitter}"
            )
        if self.quorum is not None and not 1 <= self.quorum <= self.n_results:
            raise ValueError(
                f"quorum must satisfy 1 <= quorum <= n_results, got "
                f"quorum={self.quorum}, n_results={self.n_results}"
            )
        if self.demand_distribution not in ("lognormal", "pareto"):
            raise ValueError(
                f"demand_distribution must be 'lognormal' or 'pareto', got "
                f"{self.demand_distribution!r}"
            )
        if (
            self.demand_distribution == "pareto"
            and self.demand_mean <= self.pareto_minimum
        ):
            raise ValueError(
                "pareto demands need demand_mean > pareto_minimum, got "
                f"mean={self.demand_mean}, minimum={self.pareto_minimum}"
            )

    def make_demand_model(self, stream) -> "DemandModel":
        """Build the configured demand model over ``stream``.

        For the Pareto case the tail exponent alpha is solved from the
        requested mean: ``mean = alpha * minimum / (alpha - 1)``.
        """
        from repro.workloads.queries import LognormalDemand, ParetoDemand

        if self.demand_distribution == "lognormal":
            return LognormalDemand(stream, mean=self.demand_mean, cv=self.demand_cv)
        alpha = self.demand_mean / (self.demand_mean - self.pareto_minimum)
        return ParetoDemand(stream, alpha=alpha, minimum=self.pareto_minimum)

    @property
    def consumer_ids(self) -> List[str]:
        ids = [p.name for p in self.projects]
        if self.focal_consumer is not None:
            ids.append(self.focal_consumer.participant_id)
        return ids

    def rate_scales(self) -> Dict[str, float]:
        """``consumer id -> rate_scale`` for every id in :attr:`consumer_ids`."""
        scales = {project.name: project.rate_scale for project in self.projects}
        if self.focal_consumer is not None:
            scales[self.focal_consumer.participant_id] = self.focal_consumer.rate_scale
        return scales

    def arrival_rate(self, total_capacity: float, rate_scale: float = 1.0) -> float:
        """Per-consumer Poisson rate hitting the target system load.

        ``load = sum(rate_i) * demand_mean * n_results / total_capacity``,
        solved for equal per-consumer shares then scaled.
        """
        n_consumers = len(self.consumer_ids)
        base = (
            self.target_load
            * total_capacity
            / (n_consumers * self.demand_mean * self.n_results)
        )
        return base * rate_scale


@dataclass
class BoincPopulation:
    """What :func:`build_boinc_population` returns."""

    registry: SystemRegistry
    consumers: List[Consumer]
    providers: List[Provider]
    archetype_of: Dict[str, str]
    params: BoincScenarioParams

    def providers_of_archetype(self, archetype: str) -> List[Provider]:
        """All providers drawn with the given archetype."""
        return [
            p for p in self.providers if self.archetype_of.get(p.participant_id) == archetype
        ]


@dataclass(frozen=True)
class _PopulationDraws:
    """The random draws behind one population, detached from entities.

    A population is a pure function of ``(seed, params)``; the part that
    is *expensive* is the stream arithmetic (one named substream per
    provider, thousands of uniform/lognormal draws), not the entity
    construction.  This record captures every drawn value so a sweep
    replaying the same ``(seed, draw-affecting params)`` -- e.g. a grid
    over ``k``/``kn``/``beta``/duration with a fixed population -- can
    rebuild *fresh* entities without re-running the draws.  Substreams
    are independent by construction (each is seeded by hashing its
    name), so skipping them cannot shift any other stream: the rebuilt
    population is bit-identical to a freshly drawn one.
    """

    #: ``(pid, archetype, preferences, resource shares, capacity, memory)``
    #: -- the shares are a pure function of the drawn preferences.
    providers: Tuple[Tuple[str, str, Dict[str, float], Dict[str, float], float, int], ...]
    focal_provider_memory: Optional[int]
    consumers: Tuple[Tuple[str, Dict[str, float], int], ...]
    focal_consumer_draw: Optional[Tuple[Dict[str, float], int]]


#: Bounded memo of population draws, keyed by (root seed + every param
#: that feeds a stream draw).  Knobs that only parameterize entity
#: construction (intention models, horizons, quorum, n_results, ...)
#: are deliberately absent from the key: sweeps over them share draws.
_DRAW_CACHE: Dict[tuple, _PopulationDraws] = {}
_DRAW_CACHE_LIMIT = 8


def _draw_cache_key(root: RandomRoot, params: BoincScenarioParams) -> tuple:
    return (
        root.seed,
        params.n_providers,
        tuple((p.name, p.popularity_weight) for p in params.projects),
        repr(params.archetype_mix),
        params.capacity_mean,
        params.capacity_cv,
        params.memory,
        params.memory_jitter,
        params.preferred_fraction,
        repr(params.focal_provider),
        repr(params.focal_consumer),
    )


def _draw_population(
    root: RandomRoot, params: BoincScenarioParams
) -> _PopulationDraws:
    """All stream draws of one population, memoized across builds."""
    key = _draw_cache_key(root, params)
    cached = _DRAW_CACHE.get(key)
    if cached is not None:
        return cached

    consumer_ids = [p.name for p in params.projects]
    popularity_weights = [p.popularity_weight for p in params.projects]
    focal_consumer = params.focal_consumer
    if focal_consumer is not None:
        consumer_ids.append(focal_consumer.participant_id)
        popularity_weights.append(focal_consumer.popularity_weight)

    memory_stream = root.stream("population/memory")

    def draw_memory() -> int:
        if params.memory_jitter == 0.0:
            return params.memory
        low = params.memory * (1.0 - params.memory_jitter)
        high = params.memory * (1.0 + params.memory_jitter)
        return max(1, round(memory_stream.uniform(low, high)))

    provider_rows = []
    provider_ids: List[str] = []
    capacity_stream = root.stream("population/capacity")
    for index in range(params.n_providers):
        pid = f"p{index:03d}"
        stream = root.stream(f"population/provider/{pid}")
        archetype = draw_provider_archetype(stream, params.archetype_mix)
        preferences = draw_provider_preferences(
            stream, archetype, consumer_ids, popularity_weights
        )
        capacity = capacity_stream.lognormal(params.capacity_mean, params.capacity_cv)
        shares = shares_from_preferences(preferences)
        provider_rows.append((pid, archetype, preferences, shares, capacity, draw_memory()))
        provider_ids.append(pid)

    focal_provider_memory: Optional[int] = None
    if params.focal_provider is not None:
        focal_provider_memory = draw_memory()
        provider_ids.append(params.focal_provider.participant_id)

    consumer_rows = []
    for project in params.projects:
        stream = root.stream(f"population/consumer/{project.name}")
        preferences = draw_consumer_preferences(
            stream, provider_ids, preferred_fraction=params.preferred_fraction
        )
        consumer_rows.append((project.name, preferences, draw_memory()))

    focal_consumer_draw: Optional[Tuple[Dict[str, float], int]] = None
    if focal_consumer is not None:
        stream = root.stream("population/consumer/focal")
        trusted = set(stream.sample(provider_ids, focal_consumer.n_trusted))
        preferences = {
            pid: (
                focal_consumer.trusted_preference
                if pid in trusted
                else focal_consumer.other_preference
            )
            for pid in provider_ids
        }
        focal_consumer_draw = (preferences, draw_memory())

    draws = _PopulationDraws(
        providers=tuple(provider_rows),
        focal_provider_memory=focal_provider_memory,
        consumers=tuple(consumer_rows),
        focal_consumer_draw=focal_consumer_draw,
    )
    if len(_DRAW_CACHE) >= _DRAW_CACHE_LIMIT:
        _DRAW_CACHE.clear()
    _DRAW_CACHE[key] = draws
    return draws


def build_boinc_population(
    sim: Simulator,
    network: Network,
    root: RandomRoot,
    params: BoincScenarioParams,
) -> BoincPopulation:
    """Draw the whole population from named substreams of ``root``.

    The draws themselves are memoized per ``(seed, draw-affecting
    params)`` (:class:`_PopulationDraws`), so replications and sweep
    points that share a population pay the stream arithmetic once;
    entities are always constructed fresh, and the participants copy
    the preference and share dicts they are given, so no state leaks
    between runs.
    """
    registry = SystemRegistry()
    consumer_model: ConsumerIntentionModel = make_consumer_intention_model(
        params.consumer_intentions
    )
    provider_model: ProviderIntentionModel = make_provider_intention_model(
        params.provider_intentions
    )
    consumer_ids = [p.name for p in params.projects]
    focal_consumer = params.focal_consumer
    if focal_consumer is not None:
        consumer_ids.append(focal_consumer.participant_id)

    draws = _draw_population(root, params)

    # -- providers -------------------------------------------------------
    providers: List[Provider] = []
    archetype_of: Dict[str, str] = {}
    for pid, archetype, preferences, shares, capacity, memory in draws.providers:
        provider = Provider(
            sim,
            network,
            participant_id=pid,
            capacity=capacity,
            preferences=preferences,
            intention_model=provider_model,
            memory=memory,
            saturation_horizon=params.saturation_horizon,
            resource_shares=shares,
        )
        providers.append(provider)
        archetype_of[pid] = archetype
        registry.add_provider(provider)

    if params.focal_provider is not None:
        spec = params.focal_provider
        preferences = {
            cid: (spec.love_preference if cid == spec.loves else spec.dislike_preference)
            for cid in consumer_ids
        }
        focal = Provider(
            sim,
            network,
            participant_id=spec.participant_id,
            capacity=spec.capacity,
            preferences=preferences,
            intention_model=provider_model,
            memory=draws.focal_provider_memory,
            saturation_horizon=params.saturation_horizon,
            resource_shares=shares_from_preferences(preferences),
        )
        providers.append(focal)
        archetype_of[spec.participant_id] = "focal"
        registry.add_provider(focal)

    # -- consumers -------------------------------------------------------
    consumers: List[Consumer] = []
    for name, preferences, memory in draws.consumers:
        consumer = Consumer(
            sim,
            network,
            participant_id=name,
            preferences=preferences,
            intention_model=consumer_model,
            memory=memory,
            default_n_results=params.n_results,
            rt_reference=params.rt_reference,
        )
        consumer.default_quorum = params.quorum
        consumers.append(consumer)
        registry.add_consumer(consumer)

    if focal_consumer is not None:
        preferences, memory = draws.focal_consumer_draw
        consumer = Consumer(
            sim,
            network,
            participant_id=focal_consumer.participant_id,
            preferences=preferences,
            intention_model=consumer_model,
            memory=memory,
            default_n_results=params.n_results,
            rt_reference=params.rt_reference,
        )
        consumer.default_quorum = params.quorum
        consumers.append(consumer)
        registry.add_consumer(consumer)

    return BoincPopulation(
        registry=registry,
        consumers=consumers,
        providers=providers,
        archetype_of=archetype_of,
        params=params,
    )
