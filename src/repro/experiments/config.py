"""Declarative experiment configuration.

A run is fully described by ``(ExperimentConfig, PolicySpec,
replication index)``; the runner turns that triple into a wired
simulation.  Keeping configs plain data (decision D4) lets scenario
definitions, benches and the CLI share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.sbqa import SbQAConfig
from repro.federation.config import FederationConfig
from repro.system.autonomy import PAPER_CONSUMER_THRESHOLD, PAPER_PROVIDER_THRESHOLD
from repro.system.failures import FailureConfig
from repro.workloads.boinc import BoincScenarioParams

#: Library-wide default seed (see :func:`repro.des.rng.default_root`).
DEFAULT_SEED = 20090301


@dataclass(frozen=True)
class PolicySpec:
    """Names one allocation technique plus its parameters.

    ``label`` is the display name in tables; it defaults to ``name``
    and disambiguates sweep entries (e.g. ``sbqa[kn=1]``).
    """

    name: str
    label: str = ""
    sbqa: Optional[SbQAConfig] = None
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", self.name)


@dataclass(frozen=True)
class AutonomyConfig:
    """Churn settings: captive or threshold-driven departures.

    ``rejoin_cooldown`` (seconds) enables the rejoin extension: departed
    participants return with a fresh satisfaction window after the
    cooldown.  ``None`` (the paper's model) means departures are final.
    """

    mode: str = "captive"  # "captive" | "autonomous"
    provider_threshold: float = PAPER_PROVIDER_THRESHOLD
    consumer_threshold: float = PAPER_CONSUMER_THRESHOLD
    min_observations: int = 15
    warmup: float = 300.0
    check_interval: float = 15.0
    rejoin_cooldown: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in ("captive", "autonomous"):
            raise ValueError(f"mode must be 'captive' or 'autonomous', got {self.mode!r}")
        if self.rejoin_cooldown is not None and self.rejoin_cooldown <= 0:
            raise ValueError(
                f"rejoin_cooldown must be positive when set, got {self.rejoin_cooldown}"
            )

    @property
    def is_captive(self) -> bool:
        return self.mode == "captive"


@dataclass
class ExperimentConfig:
    """One experiment: population, workload, environment, measurement.

    ``engine`` selects the allocation runtime: ``"fast"`` (the default)
    runs the hot-path engine of :mod:`repro.core.engine`, which is
    bit-identical in results to ``"event"``, the event-faithful
    reference core -- the equivalence escape hatch used by the parity
    tests and available whenever per-message/per-event fidelity is
    wanted (e.g. when instrumenting the scheduler itself).
    """

    name: str = "experiment"
    seed: int = DEFAULT_SEED
    duration: float = 2400.0
    sample_interval: float = 10.0
    engine: str = "fast"

    population: BoincScenarioParams = field(default_factory=BoincScenarioParams)
    autonomy: AutonomyConfig = field(default_factory=AutonomyConfig)

    latency_low: float = 0.02
    latency_high: float = 0.08

    #: Sharded multi-mediator federation (see :mod:`repro.federation`);
    #: None runs the classic single mediator.  A scenario knob, not
    #: execution metadata: K>1 legitimately changes results (each shard
    #: sees a slice of the population), while ``shards=1`` is
    #: bit-identical to None.
    federation: Optional[FederationConfig] = None

    #: Crash injection (abrupt provider failures); None disables it.
    failures: Optional["FailureConfig"] = None
    #: Consumer result deadline in seconds; queries incomplete past it
    #: are written off.  Required for crash runs (lost results would
    #: otherwise hang forever); None disables timeouts.
    result_timeout: Optional[float] = None

    adequation_over_candidates: bool = False
    keep_records: bool = False
    #: Record every provider's satisfaction at each metric sweep
    #: (needed by the departure-prediction analysis of Scenario 2).
    track_provider_snapshots: bool = False

    def __post_init__(self) -> None:
        from repro.core.engine import resolve_engine

        self.engine = resolve_engine(self.engine)
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {self.sample_interval}"
            )
        if self.latency_low < 0 or self.latency_high < self.latency_low:
            raise ValueError(
                f"need 0 <= latency_low <= latency_high, got "
                f"[{self.latency_low}, {self.latency_high}]"
            )
        if self.result_timeout is not None and self.result_timeout <= 0:
            raise ValueError(
                f"result_timeout must be positive when set, got {self.result_timeout}"
            )
        if self.failures is not None and self.result_timeout is None:
            raise ValueError(
                "crash injection requires a result_timeout: lost results "
                "would otherwise leave queries pending forever"
            )
