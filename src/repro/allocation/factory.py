"""Policy factory: build any allocation technique from a plain spec.

Experiment configs name policies by string (plus optional parameters)
so scenario definitions stay declarative data; this module maps those
names to constructors.  SbQA parameters ride in an
:class:`~repro.core.sbqa.SbQAConfig`.

Every policy built here works under both engines without per-policy
special-casing: each writes its decision once, as ``select_fast``, and
its trace lines are read from the finished record by ``trace_lines``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.allocation.boinc_shares import BoincSharesPolicy
from repro.allocation.capacity import CapacityBasedPolicy
from repro.allocation.economic import EconomicPolicy
from repro.allocation.simple import RandomPolicy, RoundRobinPolicy, ShortestQueuePolicy
from repro.core.policy import AllocationPolicy
from repro.core.sbqa import SbQAConfig, SbQAPolicy
from repro.des.rng import RandomRoot

#: Policy names accepted by :func:`make_policy`.
POLICY_NAMES = (
    "sbqa",
    "capacity",
    "economic",
    "boinc-shares",
    "random",
    "round-robin",
    "shortest-queue",
)


def available_policies() -> List[str]:
    """Names accepted by :func:`make_policy`, in a stable order."""
    return list(POLICY_NAMES)


def make_policy(
    name: str,
    root: RandomRoot,
    sbqa: Optional[SbQAConfig] = None,
    params: Optional[Dict[str, object]] = None,
) -> AllocationPolicy:
    """Instantiate the policy called ``name``.

    Parameters
    ----------
    name:
        One of :func:`available_policies`.
    root:
        Random root from which stochastic policies derive their stream
        (named after the policy, so adding a policy never perturbs
        another's draws).
    sbqa:
        SbQA parameterisation, used only when ``name == "sbqa"``.
    params:
        Extra keyword arguments for the baseline constructors, e.g.
        ``{"selfishness": 0.8}`` for the economic policy.
    """
    params = dict(params or {})
    key = name.lower()
    if key == "sbqa":
        return SbQAPolicy(sbqa or SbQAConfig(), root.stream("policy/sbqa/knbest"))
    if key == "capacity":
        return CapacityBasedPolicy(**params)
    if key == "economic":
        return EconomicPolicy(**params)
    if key == "boinc-shares":
        return BoincSharesPolicy(**params)
    if key == "random":
        return RandomPolicy(root.stream("policy/random"))
    if key == "round-robin":
        return RoundRobinPolicy(**params)
    if key == "shortest-queue":
        return ShortestQueuePolicy(**params)
    raise ValueError(
        f"unknown policy {name!r}; known policies: {', '.join(POLICY_NAMES)}"
    )
