"""Intention models: how participants value queries and each other.

Intentions are the inputs of the whole process: values in [-1, 1] where
1 means "I very much want this" and -1 "I refuse if possible".  The
demo paper keeps their computation abstract (it lives in [11]/[12]) but
states what they may depend on:

* a **consumer**'s intention towards a provider may reflect its static
  *preferences* (e.g. trust) and the provider's *reputation* or
  expected quality of service;
* a **provider**'s intention towards a query may reflect its
  *preferences* (topics, relationships) and its current *load*.

Accordingly this module offers, for each side, a pure-preference model,
a blended model with a tunable trade-off, and a performance-only model
(the Scenario 5 configuration where "projects are interested only in
response times and volunteers in their load").

A model answers for one participant pair at a time: the object route
of SbQA asks each consulted participant through its own model, exactly
as Figure 1 draws the consultation.  The fast engine's
:class:`~repro.core.soa.ConsultColumns` replicate the built-in models'
arithmetic in snapshot ordinals, and the oracle tests hold the two
float for float.

# reconstruction: the exact blending formulas are not in the demo
# paper; these linear blends honour every stated constraint (range,
# monotonicity in preference, monotonicity in load/performance) and the
# blend weight is exposed so experiments can sweep it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.consumer import Consumer
    from repro.system.provider import Provider
    from repro.system.query import Query


def clamp_intention(value: float) -> float:
    """Clamp an arbitrary float into the legal intention range [-1, 1]."""
    if value > 1.0:
        return 1.0
    if value < -1.0:
        return -1.0
    return value


# ----------------------------------------------------------------------
# Consumer side: CI_q[p]
# ----------------------------------------------------------------------


class ConsumerIntentionModel:
    """Strategy: the consumer's intention to allocate ``query`` to ``provider``."""

    name = "consumer-intention"

    def intention(self, consumer: "Consumer", query: "Query", provider: "Provider") -> float:
        raise NotImplementedError


class PreferenceIntentions(ConsumerIntentionModel):
    """Context-independent intentions: the consumer's static preference."""

    name = "preference"

    def intention(self, consumer: "Consumer", query: "Query", provider: "Provider") -> float:
        return clamp_intention(consumer.preference_for(provider.participant_id))

    def __repr__(self) -> str:
        return "PreferenceIntentions()"


class ReputationBlendIntentions(ConsumerIntentionModel):
    """Preference traded against observed provider performance.

    ``intention = (1 - alpha) * preference + alpha * (2 * reputation - 1)``

    where ``reputation`` in [0, 1] is the consumer's own running
    estimate of the provider's responsiveness
    (:meth:`repro.system.consumer.Consumer.reputation_of`).  ``alpha``
    is the flexibility the SQLB paper grants consumers: how much they
    trade their preferences for providers' reputation.
    """

    name = "reputation-blend"

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha

    def intention(self, consumer: "Consumer", query: "Query", provider: "Provider") -> float:
        preference = consumer.preference_for(provider.participant_id)
        reputation = consumer.reputation_of(provider.participant_id)
        blended = (1.0 - self.alpha) * preference + self.alpha * (2.0 * reputation - 1.0)
        return clamp_intention(blended)

    def __repr__(self) -> str:
        return f"ReputationBlendIntentions(alpha={self.alpha})"


class ResponseTimeIntentions(ReputationBlendIntentions):
    """Scenario 5 consumers: interested *only* in response times."""

    name = "response-time-only"

    def __init__(self) -> None:
        super().__init__(alpha=1.0)

    def __repr__(self) -> str:
        return "ResponseTimeIntentions()"


# ----------------------------------------------------------------------
# Provider side: PI_q[p]
# ----------------------------------------------------------------------


class ProviderIntentionModel:
    """Strategy: the provider's intention to perform ``query``."""

    name = "provider-intention"

    def intention(self, provider: "Provider", query: "Query") -> float:
        raise NotImplementedError


class ProviderPreferenceIntentions(ProviderIntentionModel):
    """Context-independent intentions: the provider's static preference
    for the issuing consumer / topic, ignoring load entirely."""

    name = "preference"

    def intention(self, provider: "Provider", query: "Query") -> float:
        return clamp_intention(provider.preference_for(query))

    def __repr__(self) -> str:
        return "ProviderPreferenceIntentions()"


class PreferenceUtilizationIntentions(ProviderIntentionModel):
    """Preference traded against current utilization.

    ``intention = (1 - beta) * preference + beta * (1 - 2 * utilization)``

    At ``utilization = 0`` the load term contributes +1 (an idle
    provider wants work -- the BOINC volunteer whose donated resources
    would otherwise sit wasted), at ``utilization = 1`` it contributes
    -1 (a saturated provider wants no more).  ``beta`` is the
    flexibility the SQLB paper grants providers: how much they trade
    their preferences for their utilization.
    """

    name = "preference-utilization"

    def __init__(self, beta: float = 0.5) -> None:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self.beta = beta

    def intention(self, provider: "Provider", query: "Query") -> float:
        preference = provider.preference_for(query)
        load_term = 1.0 - 2.0 * provider.utilization
        blended = (1.0 - self.beta) * preference + self.beta * load_term
        return clamp_intention(blended)

    def __repr__(self) -> str:
        return f"PreferenceUtilizationIntentions(beta={self.beta})"


class LoadOnlyIntentions(PreferenceUtilizationIntentions):
    """Scenario 5 providers: interested *only* in their load."""

    name = "load-only"

    def __init__(self) -> None:
        super().__init__(beta=1.0)

    def __repr__(self) -> str:
        return "LoadOnlyIntentions()"


def make_consumer_intention_model(spec) -> ConsumerIntentionModel:
    """Coerce a config value into a consumer intention model.

    Accepts a model instance, one of the strings ``"preference"``,
    ``"reputation-blend"``, ``"response-time-only"``, or a declarative
    dict like ``{"model": "reputation-blend", "alpha": 0.3}`` (the form
    :func:`consumer_intentions_to_spec` emits for serialized specs).
    """
    if isinstance(spec, ConsumerIntentionModel):
        return spec
    if isinstance(spec, dict):
        kwargs = dict(spec)
        name = kwargs.pop("model", None)
        if name is None:
            raise ValueError(
                f"consumer intention dict needs a 'model' key, got {spec!r}"
            )
        key = str(name).lower()
        if key == "preference":
            return PreferenceIntentions(**kwargs)
        if key == "reputation-blend":
            return ReputationBlendIntentions(**kwargs)
        if key == "response-time-only":
            return ResponseTimeIntentions(**kwargs)
        raise ValueError(f"unknown consumer intention model {name!r}")
    if isinstance(spec, str):
        key = spec.lower()
        if key == "preference":
            return PreferenceIntentions()
        if key == "reputation-blend":
            return ReputationBlendIntentions()
        if key == "response-time-only":
            return ResponseTimeIntentions()
        raise ValueError(f"unknown consumer intention model {spec!r}")
    raise TypeError(f"cannot build a consumer intention model from {spec!r}")


def make_provider_intention_model(spec) -> ProviderIntentionModel:
    """Coerce a config value into a provider intention model.

    Accepts a model instance, one of the strings ``"preference"``,
    ``"preference-utilization"``, ``"load-only"``, or a declarative
    dict like ``{"model": "preference-utilization", "beta": 0.1}``.
    """
    if isinstance(spec, ProviderIntentionModel):
        return spec
    if isinstance(spec, dict):
        kwargs = dict(spec)
        name = kwargs.pop("model", None)
        if name is None:
            raise ValueError(
                f"provider intention dict needs a 'model' key, got {spec!r}"
            )
        key = str(name).lower()
        if key == "preference":
            return ProviderPreferenceIntentions(**kwargs)
        if key == "preference-utilization":
            return PreferenceUtilizationIntentions(**kwargs)
        if key == "load-only":
            return LoadOnlyIntentions(**kwargs)
        raise ValueError(f"unknown provider intention model {name!r}")
    if isinstance(spec, str):
        key = spec.lower()
        if key == "preference":
            return ProviderPreferenceIntentions()
        if key == "preference-utilization":
            return PreferenceUtilizationIntentions()
        if key == "load-only":
            return LoadOnlyIntentions()
        raise ValueError(f"unknown provider intention model {spec!r}")
    raise TypeError(f"cannot build a provider intention model from {spec!r}")


def consumer_intentions_to_spec(spec) -> dict:
    """Canonical declarative (JSON-friendly) form of a consumer model.

    The inverse of the dict branch of
    :func:`make_consumer_intention_model`; custom model classes outside
    the registry cannot be serialized and raise ``TypeError``.
    """
    model = make_consumer_intention_model(spec)
    if isinstance(model, ResponseTimeIntentions):
        return {"model": "response-time-only"}
    if isinstance(model, ReputationBlendIntentions):
        return {"model": "reputation-blend", "alpha": model.alpha}
    if isinstance(model, PreferenceIntentions):
        return {"model": "preference"}
    raise TypeError(
        f"cannot serialize custom consumer intention model {model!r}; "
        "declarative specs support the built-in models only"
    )


def provider_intentions_to_spec(spec) -> dict:
    """Canonical declarative (JSON-friendly) form of a provider model."""
    model = make_provider_intention_model(spec)
    if isinstance(model, LoadOnlyIntentions):
        return {"model": "load-only"}
    if isinstance(model, PreferenceUtilizationIntentions):
        return {"model": "preference-utilization", "beta": model.beta}
    if isinstance(model, ProviderPreferenceIntentions):
        return {"model": "preference"}
    raise TypeError(
        f"cannot serialize custom provider intention model {model!r}; "
        "declarative specs support the built-in models only"
    )
