"""Dict <-> dataclass converters behind :class:`~repro.api.spec.ExperimentSpec`.

Every configuration dataclass the experiment layer exposes round-trips
through plain JSON-friendly dicts (``spec -> dict -> spec`` is the
identity).  A dataclass is encoded field by field: a per-field codec
table names the fields whose values are not JSON scalars, and every
other field serializes as itself -- so a new field needs no edit here.
The converters validate keys eagerly and list the valid field names on
a typo.

Intention models are serialized through their canonical declarative
form (see :func:`repro.core.intentions.consumer_intentions_to_spec`),
which is also what :func:`canonical_population` normalizes live model
objects to -- the reason two specs built from equivalent inputs compare
equal.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Tuple, Type

from repro.core.intentions import (
    consumer_intentions_to_spec,
    provider_intentions_to_spec,
)
from repro.core.sbqa import SbQAConfig
from repro.experiments.config import PolicySpec
from repro.federation.config import FederationConfig
from repro.workloads.boinc import (
    BoincScenarioParams,
    FocalConsumerSpec,
    FocalProviderSpec,
    ProjectSpec,
)
from repro.workloads.preferences import ArchetypeMix

#: ``field name -> (encode, decode)`` for the fields of one dataclass
#: whose values are not JSON scalars.
Codecs = Dict[str, Tuple[Callable[[Any], Any], Callable[[Any], Any]]]


def dataclass_kwargs(cls: Type, data: Dict[str, Any], what: str) -> Dict[str, Any]:
    """Validate ``data``'s keys against ``cls``'s fields; helpful error."""
    if not isinstance(data, dict):
        raise TypeError(f"{what} must be a dict, got {type(data).__name__}")
    valid = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - valid)
    if unknown:
        raise ValueError(
            f"unknown {what} field(s): {', '.join(unknown)}. "
            f"Valid fields: {', '.join(sorted(valid))}"
        )
    return dict(data)


def versioned_payload(
    data: Any,
    kind: str,
    version_key: str,
    version: int,
    valid_fields: "frozenset",
) -> Dict[str, Any]:
    """Common ``from_dict`` front door of the serialized spec kinds.

    Checks that ``data`` is a dict, that its ``version_key`` tag (if
    present) matches the ``version`` this build reads, and that no
    unknown fields sneaked in; returns a copy with the version tag
    popped.  ``kind`` names the spec class in error messages.
    """
    if not isinstance(data, dict):
        raise TypeError(f"{kind} document must be a dict, got {type(data).__name__}")
    payload = dict(data)
    found = payload.pop(version_key, version)
    if found != version:
        raise ValueError(
            f"unsupported {version_key} {found!r} (this build reads "
            f"version {version})"
        )
    unknown = sorted(set(payload) - valid_fields)
    if unknown:
        raise ValueError(
            f"unknown {kind} field(s): {', '.join(unknown)}. "
            f"Valid fields: {', '.join(sorted(valid_fields))}"
        )
    return payload


def scalar_dict(obj) -> Dict[str, Any]:
    """Field dict of a dataclass whose values are all JSON scalars."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def scalar_from_dict(cls: Type, data: Dict[str, Any]):
    """Inverse of :func:`scalar_dict` (keys validated)."""
    return cls(**dataclass_kwargs(cls, data, cls.__name__))


def scalar_codec(cls: Type):
    """The ``(encode, decode)`` pair of a scalar-field dataclass."""
    return scalar_dict, partial(scalar_from_dict, cls)


def encode_fields(obj, codecs: Codecs, skip: "frozenset" = frozenset()) -> Dict[str, Any]:
    """``obj``'s fields as a dict, codec-listed values encoded.

    ``None`` (an unset optional block) stays ``None``; fields in
    ``skip`` are left out.
    """
    data: Dict[str, Any] = {}
    for f in fields(obj):
        if f.name in skip:
            continue
        value = getattr(obj, f.name)
        codec = codecs.get(f.name)
        data[f.name] = value if codec is None or value is None else codec[0](value)
    return data


def decode_fields(payload: Dict[str, Any], codecs: Codecs) -> Dict[str, Any]:
    """Decode, in place, each codec-listed value of ``payload``.

    ``None`` and values that already are dataclass instances pass
    through, so hand-built payloads may mix dicts and objects.
    """
    for name, (_, decode) in codecs.items():
        value = payload.get(name)
        if value is not None and not is_dataclass(value):
            payload[name] = decode(value)
    return payload


# ----------------------------------------------------------------------
# PolicySpec: sparse on purpose -- result digests depend on an unset
# ``sbqa`` / ``params`` being omitted, not written as null / {}.
# ----------------------------------------------------------------------


def policy_spec_to_dict(spec: PolicySpec) -> Dict[str, Any]:
    data: Dict[str, Any] = {"name": spec.name, "label": spec.label}
    if spec.sbqa is not None:
        data["sbqa"] = scalar_dict(spec.sbqa)
    if spec.params:
        data["params"] = dict(spec.params)
    return data


def policy_spec_from_dict(data: Dict[str, Any]) -> PolicySpec:
    kwargs = dataclass_kwargs(PolicySpec, data, "PolicySpec")
    if "name" not in kwargs:
        raise ValueError(f"PolicySpec dict needs a 'name' key, got {data!r}")
    sbqa = kwargs.get("sbqa")
    if isinstance(sbqa, dict):
        kwargs["sbqa"] = scalar_from_dict(SbQAConfig, sbqa)
    kwargs.setdefault("label", "")
    kwargs["params"] = dict(kwargs.get("params") or {})
    return PolicySpec(**kwargs)


# ----------------------------------------------------------------------
# BoincScenarioParams (the population)
# ----------------------------------------------------------------------


def canonical_population(params: BoincScenarioParams) -> BoincScenarioParams:
    """Normalize a population to its declarative, comparable form.

    Intention models become their canonical dict specs (the builders in
    :mod:`repro.workloads.boinc` accept those directly) and ``projects``
    becomes a tuple, so two equivalent populations compare equal and
    serialization is order-independent of how they were authored.
    """
    return replace(
        params,
        projects=tuple(params.projects),
        consumer_intentions=consumer_intentions_to_spec(params.consumer_intentions),
        provider_intentions=provider_intentions_to_spec(params.provider_intentions),
    )


def _identity(value):
    return value


_POPULATION_CODECS: Codecs = {
    "projects": (
        lambda projects: [scalar_dict(p) for p in projects],
        lambda projects: tuple(
            scalar_from_dict(ProjectSpec, p) if isinstance(p, dict) else p
            for p in projects
        ),
    ),
    "archetype_mix": scalar_codec(ArchetypeMix),
    # Decoding is canonical_population's job (it accepts dict specs).
    "consumer_intentions": (consumer_intentions_to_spec, _identity),
    "provider_intentions": (provider_intentions_to_spec, _identity),
    "focal_provider": scalar_codec(FocalProviderSpec),
    "focal_consumer": scalar_codec(FocalConsumerSpec),
}


def population_to_dict(params: BoincScenarioParams) -> Dict[str, Any]:
    return encode_fields(params, _POPULATION_CODECS)


def population_from_dict(data: Dict[str, Any]) -> BoincScenarioParams:
    kwargs = dataclass_kwargs(BoincScenarioParams, data, "BoincScenarioParams")
    decode_fields(kwargs, _POPULATION_CODECS)
    return canonical_population(BoincScenarioParams(**kwargs))


# ----------------------------------------------------------------------
# Dot-path overrides (derive, sweep points and the CLI flags)
# ----------------------------------------------------------------------

#: Fields of :class:`SbQAConfig` addressable through the ``sbqa.`` prefix.
_SBQA_FIELDS = frozenset(f.name for f in fields(SbQAConfig))


def apply_spec_override(data: Dict[str, Any], path: str, value: Any) -> None:
    """Set one dot-path in an ``ExperimentSpec`` dict, in place.

    Two addressing forms:

    * a plain dot-path into the spec's dict form, e.g. ``"duration"``,
      ``"population.memory"``, ``"autonomy.rejoin_cooldown"`` or
      ``"federation.shards"`` -- every intermediate must be a dict and
      the final key must already exist, so typos fail loudly instead of
      being swallowed by ``from_dict``'s unknown-key check one level up.
      An unset ``federation`` block is materialized with
      :class:`FederationConfig` defaults first; an unset ``failures``
      block is an error;
    * ``"sbqa.<field>"`` fans the value out to every policy entry named
      ``sbqa`` (creating the explicit config dict when the policy relied
      on defaults), which is how a sweep axis varies ``omega``, ``kn``,
      ``k`` or ``epsilon`` across the comparison's SbQA arms.
    """
    head, _, rest = path.partition(".")
    if head == "sbqa":
        _apply_sbqa_override(data, path, rest, value)
        return
    parts = path.split(".")
    node = data
    for depth, part in enumerate(parts[:-1]):
        child = node.get(part) if isinstance(node, dict) else None
        if child is None and depth == 0 and part == "federation":
            # Safe to start from defaults: one shard is bit-identical
            # to none.  Not so for failures (crash injection would
            # switch on), which stays an error below.
            child = node[part] = scalar_dict(FederationConfig())
        if not isinstance(child, dict):
            where = ".".join(parts[: depth + 1])
            hint = (
                " (the base spec has no failure injection; give it a "
                "failures block to sweep over it)"
                if child is None and part == "failures"
                else ""
            )
            raise ValueError(
                f"cannot apply override {path!r}: {where!r} is not a "
                f"nested object in the spec{hint}"
            )
        node = child
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        from repro.api.spec import ExperimentSpec

        top = ", ".join(f.name for f in fields(ExperimentSpec))
        raise ValueError(
            f"cannot apply override {path!r}: no field {leaf!r} at that "
            f"path. Top-level spec fields: {top}; SbQA knobs use the "
            "'sbqa.' prefix."
        )
    node[leaf] = value


def _apply_sbqa_override(
    data: Dict[str, Any], path: str, field_name: str, value: Any
) -> None:
    if field_name not in _SBQA_FIELDS:
        raise ValueError(
            f"cannot apply override {path!r}: SbQAConfig has no field "
            f"{field_name!r}. Valid fields: {', '.join(sorted(_SBQA_FIELDS))}"
        )
    targets = [
        p for p in data.get("policies", ()) if p.get("name", "").lower() == "sbqa"
    ]
    if not targets:
        raise ValueError(
            f"cannot apply override {path!r}: the base spec has no 'sbqa' "
            "policy entry to fan the value out to"
        )
    for policy in targets:
        config = policy.get("sbqa")
        if not isinstance(config, dict):
            # The entry relied on the default SbQAConfig; materialize it
            # so a single field can be overridden.
            config = policy["sbqa"] = scalar_dict(SbQAConfig())
        config[field_name] = value
