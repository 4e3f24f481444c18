"""The declarative experiment description: :class:`ExperimentSpec`.

An ``ExperimentSpec`` is the complete, validated, *serializable* value
describing one experiment: the population and workload, the autonomy
regime, optional failure injection, one or more allocation policies to
compare, and how many replications to run.  It is the input of
:class:`repro.api.session.Session` and the output of
:class:`repro.api.builder.ExperimentBuilder`.

Being plain data with ``to_dict()/from_dict()`` and JSON round-tripping
means specs can live in files, be diffed and shared, and be shipped to
worker processes for parallel replication execution::

    spec = ExperimentSpec.load("experiment.json")
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.api.serialization import (
    Codecs,
    apply_spec_override,
    canonical_population,
    decode_fields,
    encode_fields,
    policy_spec_from_dict,
    policy_spec_to_dict,
    population_from_dict,
    population_to_dict,
    scalar_codec,
    versioned_payload,
)
from repro.experiments.config import AutonomyConfig, ExperimentConfig, PolicySpec
from repro.federation.config import FederationConfig
from repro.system.failures import FailureConfig

#: Format tag written into serialized specs; bump on breaking layout
#: changes so old files fail loudly instead of silently misparsing.
SPEC_VERSION = 1

#: JSON codecs of the spec fields whose values are not JSON scalars.
_CODECS: Codecs = {
    "population": (population_to_dict, population_from_dict),
    "autonomy": scalar_codec(AutonomyConfig),
    "federation": scalar_codec(FederationConfig),
    "failures": scalar_codec(FailureConfig),
    "policies": (
        lambda policies: [policy_spec_to_dict(p) for p in policies],
        lambda policies: tuple(
            policy_spec_from_dict(p) if isinstance(p, dict) else p
            for p in policies
        ),
    ),
}

#: Execution metadata: results are bit-identical on either engine, so
#: result digests must not depend on it and :meth:`to_dict` leaves it
#: out (:meth:`from_dict` still accepts it for hand-written files).
_EXECUTION_FIELDS = frozenset({"engine"})


@dataclass
class ExperimentSpec(ExperimentConfig):
    """A fully declarative experiment: config + policies + replications.

    Every configuration field is inherited from
    :class:`~repro.experiments.config.ExperimentConfig`; on top,
    every policy runs ``replications`` times, each replication deriving
    an independent random root from ``seed``.
    """

    # default_factory: PolicySpec is frozen but its params dict is not,
    # so a shared class-level default instance would let one spec's
    # mutation poison every other default-constructed spec.
    policies: Tuple[PolicySpec, ...] = field(
        default_factory=lambda: (PolicySpec(name="sbqa"),)
    )
    replications: int = 1

    def __post_init__(self) -> None:
        self.population = canonical_population(self.population)
        self.policies = tuple(self.policies)
        if not self.policies:
            raise ValueError("an experiment needs at least one policy")
        labels = [p.label for p in self.policies]
        duplicates = sorted({l for l in labels if labels.count(l) > 1})
        if duplicates:
            raise ValueError(
                f"policy labels must be unique, duplicated: {', '.join(duplicates)} "
                "(pass label= to disambiguate sweep entries)"
            )
        if self.replications < 1:
            raise ValueError(
                f"need at least one replication, got {self.replications}"
            )
        # The cross-field invariants (latency band, failure / timeout
        # coupling, positive durations): a spec that constructs runs.
        super().__post_init__()

    # ------------------------------------------------------------------
    # Bridges to the imperative layer
    # ------------------------------------------------------------------

    def to_config(self) -> ExperimentConfig:
        """The plain :class:`ExperimentConfig` this spec describes."""
        return ExperimentConfig(
            **{f.name: getattr(self, f.name) for f in fields(ExperimentConfig)}
        )

    @classmethod
    def from_config(
        cls,
        config: ExperimentConfig,
        policies,
        replications: int = 1,
    ) -> "ExperimentSpec":
        """Lift an imperative ``(config, policies)`` pair into a spec."""
        if isinstance(policies, PolicySpec):
            policies = (policies,)
        kwargs = {
            f.name: getattr(config, f.name) for f in fields(ExperimentConfig)
        }
        return cls(policies=tuple(policies), replications=replications, **kwargs)

    def derive(
        self,
        overrides: "Dict[str, Any]",
        name: Optional[str] = None,
    ) -> "ExperimentSpec":
        """A copy with dot-path ``overrides`` applied.

        The one way to move a spec: sweep points and every CLI flag go
        through it.  Overrides address the spec's dict form
        (``"duration"``, ``"population.n_providers"``,
        ``"federation.shards"``, ``"engine"``); the ``"sbqa.<field>"``
        form fans out to every SbQA policy entry -- see
        :func:`repro.api.serialization.apply_spec_override`.  The
        derived spec re-validates from scratch, so an override that
        breaks a cross-field invariant fails here, not mid-run.
        """
        # The engine is not in to_dict(), but a derived spec runs on
        # its base's engine unless an override says otherwise.
        data = dict(self.to_dict(), engine=self.engine)
        if name is not None:
            overrides = dict(overrides, name=name)
        for path, value in overrides.items():
            apply_spec_override(data, path, value)
        return type(self).from_dict(data)

    def policy(self, label: str) -> PolicySpec:
        """The policy with the given label (KeyError if absent)."""
        for spec in self.policies:
            if spec.label == label:
                return spec
        raise KeyError(
            f"no policy labelled {label!r}; have {[p.label for p in self.policies]}"
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict; inverse of :meth:`from_dict`."""
        return {
            "spec_version": SPEC_VERSION,
            **encode_fields(self, _CODECS, skip=_EXECUTION_FIELDS),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from :meth:`to_dict` output (keys validated)."""
        payload = versioned_payload(
            data,
            kind="ExperimentSpec",
            version_key="spec_version",
            version=SPEC_VERSION,
            valid_fields=frozenset(f.name for f in fields(cls)),
        )
        return cls(**decode_fields(payload, _CODECS))

    def to_json(self, indent: int = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec to a JSON file; returns the path."""
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Read a spec from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
