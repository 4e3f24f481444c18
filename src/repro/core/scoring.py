"""SQLB provider scoring and ranking (Definition 3 of the paper).

The mediator scores a provider ``p`` for a query ``q`` by *balancing*
the provider's intention ``PI_q[p]`` against the consumer's intention
``CI_q[p]``, both in [-1, 1]::

    scr_q(p) =  PI^omega * CI^(1-omega)                      if PI > 0 and CI > 0
             -( (1 - PI + eps)^omega * (1 - CI + eps)^(1-omega) )   otherwise

* ``omega`` in [0, 1] sets whose intention matters more (Equation 2
  makes it adaptive; see :mod:`repro.core.omega`).
* ``eps > 0`` (usually 1) keeps the negative branch informative when an
  intention equals 1: without it, ``(1 - PI)`` would collapse to 0 and
  erase the other side's opinion from the product.

Properties (all covered by tests):

* scores are positive iff both intentions are positive -- a provider
  that wants the query *and* is wanted by the consumer always outranks
  any provider for which either side objects;
* on the positive branch the score increases with both intentions;
* on the negative branch the score increases (towards 0) with both
  intentions, so "less objectionable" providers still rank higher;
* ``omega = 1`` ranks by provider intention only, ``omega = 0`` by
  consumer intention only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

#: The paper: "Parameter eps > 0, usually set to 1".
DEFAULT_EPSILON = 1.0


def resolve_backend() -> str:
    """Report the fast engine's kernel switch: "fused" or "python".

    Called only by the frozen benchmark under ``bench/``, which records
    the value and checks it is not ``"python"`` on its fused workload.
    Nothing is selected here -- there is one scoring kernel.
    """
    # Function-level import: the engine imports (through soa and sbqa)
    # this module, which otherwise imports nothing from the package.
    from repro.core import engine

    return "fused" if engine._FUSED_KERNEL else "python"


def sqlb_score(
    provider_intention: float,
    consumer_intention: float,
    omega: float,
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Definition 3: balance a provider's and a consumer's intention.

    Parameters
    ----------
    provider_intention:
        ``PI_q[p]`` in [-1, 1], the provider's intention to perform q.
    consumer_intention:
        ``CI_q[p]`` in [-1, 1], the consumer's intention to allocate q
        to p.
    omega:
        Balance in [0, 1]; weight of the provider side.
    epsilon:
        Strictly positive guard of the negative branch.

    Returns
    -------
    float
        A score in ``(0, 1]`` when both intentions are positive, and in
        ``[-(2 + eps), 0]`` otherwise.  Higher is better in both cases.
    """
    if not -1.0 <= provider_intention <= 1.0:
        raise ValueError(f"provider intention must be in [-1, 1], got {provider_intention}")
    if not -1.0 <= consumer_intention <= 1.0:
        raise ValueError(f"consumer intention must be in [-1, 1], got {consumer_intention}")
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be strictly positive, got {epsilon}")

    if provider_intention > 0.0 and consumer_intention > 0.0:
        return (provider_intention ** omega) * (consumer_intention ** (1.0 - omega))
    penalty_provider = (1.0 - provider_intention + epsilon) ** omega
    penalty_consumer = (1.0 - consumer_intention + epsilon) ** (1.0 - omega)
    return -(penalty_provider * penalty_consumer)


def score_providers_batch(
    provider_intentions: Sequence[float],
    consumer_intentions: Sequence[float],
    omegas: Sequence[float],
    epsilon: float = DEFAULT_EPSILON,
    validate: bool = True,
) -> List[float]:
    """Definition 3 over a whole candidate set in one pass.

    Semantically equivalent to ``[sqlb_score(pi, ci, w, epsilon) for
    pi, ci, w in zip(...)]`` -- same branch structure, same arithmetic
    expressions, so the returned floats are *bit-identical* to the
    scalar kernel -- but validation is hoisted out of the per-provider
    work and the per-call function overhead disappears.  This is what
    the mediation hot path scores ``Kn`` with.

    Parameters
    ----------
    provider_intentions, consumer_intentions, omegas:
        Equal-length sequences: ``PI_q[p]``, ``CI_q[p]`` and the
        Equation-2 balance for each candidate (omega is per *pair*, so
        it is a sequence, not a scalar).
    epsilon:
        Strictly positive guard of the negative branch.
    validate:
        Range-check every input, rejecting out-of-range and non-finite
        (inf/NaN) values exactly as :func:`sqlb_score` does.  The
        mediation hot path passes False: its inputs come from intention
        models (clamped into [-1, 1]) and omega policies (constructed
        in [0, 1]), so the checks cannot fire.
    """
    n = len(provider_intentions)
    if len(consumer_intentions) != n or len(omegas) != n:
        raise ValueError(
            f"batch inputs must have equal lengths, got "
            f"{n}/{len(consumer_intentions)}/{len(omegas)}"
        )
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be strictly positive, got {epsilon}")

    if validate:
        # A NaN fails every range comparison, so non-finite inputs are
        # rejected by the same check that bounds the range.
        for pi in provider_intentions:
            if not -1.0 <= pi <= 1.0:
                raise ValueError(f"provider intention must be in [-1, 1], got {pi}")
        for ci in consumer_intentions:
            if not -1.0 <= ci <= 1.0:
                raise ValueError(f"consumer intention must be in [-1, 1], got {ci}")
        for omega in omegas:
            if not 0.0 <= omega <= 1.0:
                raise ValueError(f"omega must be in [0, 1], got {omega}")

    scores = []
    append = scores.append
    for pi, ci, omega in zip(provider_intentions, consumer_intentions, omegas):
        if pi > 0.0 and ci > 0.0:
            append((pi ** omega) * (ci ** (1.0 - omega)))
        else:
            append(
                -(
                    ((1.0 - pi + epsilon) ** omega)
                    * ((1.0 - ci + epsilon) ** (1.0 - omega))
                )
            )
    return scores


@dataclass(frozen=True)
class ScoredProvider:
    """One row of the mediator's ranking vector ``R``."""

    provider_id: str
    score: float
    omega: float
    provider_intention: float
    consumer_intention: float


def rank_providers(
    scored: Sequence[ScoredProvider],
    tie_break: Callable[[ScoredProvider], Tuple] = lambda s: (s.provider_id,),
) -> List[ScoredProvider]:
    """Build the ranking vector ``R``: best score first.

    ``R[0]`` is the best-ranked provider, ``R[1]`` the second, and so
    on (the paper indexes from 1).  Ties are broken deterministically
    -- by provider identifier unless the caller supplies a different
    key -- so a seeded simulation is reproducible.
    """
    return sorted(scored, key=lambda s: (-s.score,) + tuple(tie_break(s)))


def score_pairs(
    pairs: Sequence[Tuple[str, float, float]],
    omega_for: Callable[[str], float],
    epsilon: float = DEFAULT_EPSILON,
) -> List[ScoredProvider]:
    """Score ``(provider_id, PI, CI)`` triples with a per-provider omega.

    Equation 2 makes omega depend on the satisfaction of the *pair*
    (consumer, provider), so each provider may be scored under its own
    balance; ``omega_for`` supplies it.
    """
    result = []
    for provider_id, provider_intention, consumer_intention in pairs:
        omega = omega_for(provider_id)
        score = sqlb_score(provider_intention, consumer_intention, omega, epsilon)
        result.append(
            ScoredProvider(
                provider_id=provider_id,
                score=score,
                omega=omega,
                provider_intention=provider_intention,
                consumer_intention=consumer_intention,
            )
        )
    return result
