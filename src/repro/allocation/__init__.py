"""Baseline query-allocation techniques.

The demo evaluates SbQA against the techniques its scenarios name:

* :mod:`repro.allocation.capacity` -- **Capacity-based** allocation
  [9]; "the way in which BOINC allocates queries ... is equivalent to a
  Capacity-based query allocation technique" (Scenario 1);
* :mod:`repro.allocation.economic` -- an **economic** technique in the
  style of Mariposa [13]: providers bid, the mediator buys the cheapest
  bids (Scenario 1);
* :mod:`repro.allocation.boinc_shares` -- the native **BOINC resource
  shares** dispatcher, the paper's motivating example of rigid
  intentions wasting idle capacity (Section IV);
* :mod:`repro.allocation.simple` -- random / round-robin /
  shortest-queue reference baselines used in ablations.

All of them implement :class:`repro.core.policy.AllocationPolicy`, so
the satisfaction model analyses them exactly like SbQA (paper claim i).
Each baseline states its decision once, as ``select_fast``, which both
engines call, and its trace lines, if any, as ``trace_lines`` -- read
from the finished record (see docs/performance.md's policy coverage
table).
"""

from repro.allocation.capacity import CapacityBasedPolicy
from repro.allocation.economic import EconomicPolicy
from repro.allocation.boinc_shares import BoincSharesPolicy
from repro.allocation.simple import RandomPolicy, RoundRobinPolicy, ShortestQueuePolicy
from repro.allocation.factory import available_policies, make_policy

__all__ = [
    "CapacityBasedPolicy",
    "EconomicPolicy",
    "BoincSharesPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "ShortestQueuePolicy",
    "available_policies",
    "make_policy",
]
