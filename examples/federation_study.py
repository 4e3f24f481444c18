#!/usr/bin/env python
"""The federation tour: sweep the shard count, slice the signal.

Sharding the mediator is free at K=1 (bit-identical to the flat run)
and cheap at the throughput level (see docs/performance.md), but each
shard's mediator only *owns* a slice of the provider population -- so
the satisfaction signal, read per shard slice, is where a partition
that is too fine shows up first.  This study walks that trade-off:

1. **declare** -- a ``SweepSpec`` whose single axis is
   ``federation.shards`` over K in {1, 2, 4, 8} (the base spec carries
   a ``federation`` block, which is what makes the axis addressable);
2. **run** -- serially with ``keep_runs`` so the full ``RunResult``
   (registry, shard map) stays inspectable per replication;
3. **slice** -- group providers by their home shard and aggregate
   final provider satisfaction per slice: the spread between the
   best- and worst-served slice is the degradation signal;
4. **test** -- Welch t-tables of every K against the K=1 baseline,
   Holm-corrected as one family per metric.

Run:  python examples/federation_study.py        (~40 s)
"""

from pathlib import Path
from statistics import mean

from repro.analysis.significance import Comparison, holm_adjust, welch_t_test
from repro.api import Experiment, SweepSession, SweepSpec
from repro.federation import ShardMap

SPEC_PATH = Path(__file__).parent / "specs" / "federation_sweep.json"

# ----------------------------------------------------------------------
# 1. Declare: one axis, the shard count.  .shards(1) makes the base
#    spec's federation block explicit; without it the axis path
#    "federation.shards" would start from FederationConfig() defaults.
# ----------------------------------------------------------------------
sweep = (
    Experiment.builder()
    .named("federation-study")
    .seed(11)
    .duration(400)
    .providers(48)
    .policy("sbqa", k=20, kn=10)
    .replications(3)                      # >= 2 enables the t-tests
    .shards(1)
    .sweep()
    .named("federation-sweep")
    .axis("federation.shards", [1, 2, 4, 8])
    .build()
)
print(f"grid: {len(sweep)} points, {len(SweepSession(sweep))} runs")

# The committed spec file is the same grid; `sbqa sweep --spec
# examples/specs/federation_sweep.json` runs it from the CLI.
if SPEC_PATH.exists():
    assert SweepSpec.load(SPEC_PATH) == sweep, "committed spec drifted"
    print(f"matches the committed spec: {SPEC_PATH}\n")

# ----------------------------------------------------------------------
# 2. Run: serial + keep_runs, so each point's RunResult keeps the live
#    registry (parallel workers ship summaries back, not simulations).
# ----------------------------------------------------------------------
result = SweepSession(sweep).run(keep_runs=True)
print(result.table())

# ----------------------------------------------------------------------
# 3. Slice: per point, group providers by home shard and aggregate
#    final satisfaction per slice.  K=1 is the degenerate partition
#    (one slice == the whole population); as K grows the slices thin
#    out and the per-slice signal spreads.
# ----------------------------------------------------------------------
print("\nper-shard satisfaction slices (provider_sat, mean over replications):")
for point in result.points:
    federation = point.point.spec.federation
    shard_map = ShardMap(federation)
    runs = point.experiment.runs
    slices = {ordinal: [] for ordinal in range(federation.shards)}
    for run in runs:
        per_shard = {ordinal: [] for ordinal in range(federation.shards)}
        for provider in run.registry.providers:
            home = shard_map.shard_of_provider(provider.participant_id)
            per_shard[home].append(provider.satisfaction)
        for ordinal, values in per_shard.items():
            slices[ordinal].append(mean(values) if values else float("nan"))
    means = {ordinal: mean(values) for ordinal, values in slices.items()}
    worst, best = min(means.values()), max(means.values())
    sizes = {ordinal: 0 for ordinal in range(federation.shards)}
    for provider in runs[0].registry.providers:
        sizes[shard_map.shard_of_provider(provider.participant_id)] += 1
    print(f"  {point.label:12s} spread {best - worst:.3f} "
          f"(best slice {best:.3f}, worst {worst:.3f}; "
          f"slice sizes {sorted(sizes.values(), reverse=True)})")

# ----------------------------------------------------------------------
# 4. Test: each K against the K=1 baseline, one Holm family per
#    metric.  The effect is non-monotone by design: mid-size shards
#    (K=2, K=4 here) keep home pools above the kn forwarding threshold,
#    so each mediator allocates from its slice alone and quality drops;
#    at K=8 the shards are thin enough that the forwarding gate opens,
#    the merged pool restores flat-run quality, and the price moves to
#    the coordination-message column instead.  The t-table is the
#    evidence, not an assumption.
# ----------------------------------------------------------------------
baseline = result.point("shards=1").policy("sbqa")
for metric in ("consumer_sat_final", "provider_sat_final", "mean_rt"):
    family = []
    for k in (2, 4, 8):
        contender = result.point(f"shards={k}").policy("sbqa")
        samples_a = baseline.values(metric)
        samples_b = contender.values(metric)
        t, dof, p = welch_t_test(samples_a, samples_b)
        family.append(Comparison(
            metric=metric,
            label_a="shards=1",
            label_b=f"shards={k}",
            mean_a=mean(samples_a),
            mean_b=mean(samples_b),
            difference=mean(samples_a) - mean(samples_b),
            t_statistic=t,
            degrees_of_freedom=dof,
            p_value=p,
        ))
    print()
    for comparison in holm_adjust(family):
        flag = "  *" if comparison.significant() else ""
        print(f"  {comparison.format()}{flag}")
