"""Sharded multi-mediator federation (consistent-hash partitioning).

Public surface:

* :class:`~repro.federation.config.FederationConfig` -- the scenario
  knob (shard count, partition mode, forward threshold);
* :class:`~repro.federation.ring.ShardMap` /
  :class:`~repro.federation.ring.ShardRing` -- the sha1 consistent-hash
  shard map (PYTHONHASHSEED-immune, O(1) amortized routing);
* :func:`~repro.federation.mediator.build_federation` -- assemble the
  shard registries + mediators over a populated global registry;
* :class:`~repro.federation.mediator.FederatedMediator` -- the
  consumer-facing front, a drop-in for a single mediator;
* :func:`~repro.federation.parallel.run_parallel` -- process-parallel
  shard-group execution with a deterministic (digest-identical) merge.
"""

from repro.federation.config import PARTITION_MODES, FederationConfig
from repro.federation.mediator import (
    EventShardMediator,
    Federation,
    FederatedMediator,
    ShardMediator,
    build_federation,
)
from repro.federation.parallel import (
    ParallelRunReport,
    ParallelViolation,
    ShardSlice,
    parallel_ineligible_reason,
    plan_placement,
    run_parallel,
    shard_loads,
)
from repro.federation.ring import ShardMap, ShardRing

__all__ = [
    "PARTITION_MODES",
    "FederationConfig",
    "EventShardMediator",
    "Federation",
    "FederatedMediator",
    "ShardMediator",
    "build_federation",
    "ParallelRunReport",
    "ParallelViolation",
    "ShardSlice",
    "parallel_ineligible_reason",
    "plan_placement",
    "run_parallel",
    "shard_loads",
    "ShardMap",
    "ShardRing",
]
