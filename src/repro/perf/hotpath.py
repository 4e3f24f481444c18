"""The core hot-path bench: mediation throughput and engine parity.

Measurements backing the perf trajectory started by the allocation
engine (:mod:`repro.core.engine`) and extended by the indexed registry
and the universal policy fast paths:

* **Mediation throughput** -- how many ``Mediator.mediate`` calls per
  second a mediation-bound system sustains, for three configurations:

  - ``fast``: :class:`~repro.core.engine.FastMediator` +
    :class:`~repro.core.engine.FastNetwork` running the fused
    structure-of-arrays kernel (:mod:`repro.core.soa`): ordinal
    columns, inlined stage-1 sampling, one-pass consult/score/rank,
    lazy allocation records;
  - ``fast_scalar``: the same engine with the fused kernel switched
    off (``select_fast`` + ``_commit``), the differential-testing
    reference the fused kernel must match digest for digest;
  - ``event``: the event-faithful reference core (sharing the O(1)
    satisfaction windows and the registry capability snapshots).

* **Policy dimension** -- the same fast-vs-event split for every
  allocation technique: since every policy implements ``select_fast``,
  ``engine="fast"`` covers the economic / capacity / simple baselines
  on the hot path, and this matrix tracks what that is worth.

* **N-providers scaling axis** -- fast-engine throughput as the
  population grows (120 -> 10000): with the indexed registry the
  per-mediation cost should scale with ``|Kn|``, not ``N``.

* **Federation axis** -- fast-engine throughput with the population
  sharded across K consistent-hash mediators
  (:mod:`repro.federation`), N scaled to 100k with K grown
  proportionally: per-mediation cost should stay flat because every
  query routes O(1) to a home shard holding ~N/K providers.

* **Digest parity** -- byte-identical ``ExperimentResult`` JSON
  digests between the fast and event engines on a mixed scenario
  (autonomous churn + crash injection + result deadlines + two
  policies), the property that makes the fast default safe.

The timing loop isolates the mediation pipeline: queries are
pre-constructed, ``mediate`` runs in a tight loop, and the execution
drain (provider service, result return) is timed separately and
reported as ``end_to_end`` throughput.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, Iterable, List, Optional, Sequence

import repro.core.engine as _engine
from repro.allocation.factory import make_policy
from repro.core.engine import FastMediator, FastNetwork
from repro.core.intentions import PreferenceUtilizationIntentions
from repro.core.mediator import Mediator
from repro.core.sbqa import SbQAConfig, SbQAPolicy
from repro.des.network import FixedLatency, Network, UniformLatency
from repro.des.rng import RandomRoot
from repro.des.scheduler import Simulator
from repro.system.consumer import Consumer
from repro.system.provider import Provider
from repro.system.query import Query
from repro.system.registry import SystemRegistry

#: Layout tag written into the bench record / BENCH_core.json.
#: Version 2 added the policy matrix, the N-providers scaling axis and
#: the registry-lookup section.  Version 3 added the kernel split
#: (``fast`` = fused SoA kernel, ``fast_scalar`` = the scalar oracle
#: path) and the three-way parity record.  Version 4 extended
#: the scaling axis to 10000 providers, added ``speedup.scaling_ratio``
#: (the flatness gate) and the ``federation`` section (sharded
#: multi-mediator throughput, N scaled to 100k with K shards).
#: Version 5 added a process-parallel shard-group section and
#: ``speedup.parallel_vs_serial``; version 8 removed both (the wall
#: clock of a parallel run is ``bench/``'s ``federated-parallel``
#: workload).  Version 6 removed the
#: ``seed_baseline`` configuration, ``speedup.{fast,event}_vs_seed`` and
#: the ``registry`` section.  Version 7 added ``throughput_random_latency``
#: (the same three configurations at ``U[0.02, 0.08]``) and
#: ``speedup.columns_vs_scalar``.
BENCH_VERSION = 8

#: Engines measured by the throughput kernel, in reporting order.
#: ``fast`` runs the fused structure-of-arrays kernel; ``fast_scalar``
#: switches it off, leaving the scalar select_fast/_commit oracle path.
CONFIGURATIONS = ("fast", "fast_scalar", "event")

#: Policies measured by the policy matrix, in reporting order.
#: (boinc-shares is benchable too -- the builder grants every provider
#: a share for the bench consumer -- but is omitted from the default
#: matrix to keep full-bench wall time in check.)
MATRIX_POLICIES = ("sbqa", "economic", "capacity", "shortest-queue", "random")

#: Default population sizes of the scaling axis.
SCALING_PROVIDERS = (120, 500, 2000, 10000)

#: Default (n_providers, shards) points of the federation section: K
#: grows proportionally with N so the per-shard population stays near
#: the flat-mediator working set (~2000), which is the scaling claim --
#: mediations/s at N=100k/K=50 should stay within 20% of N=2000/K=1.
FEDERATION_POINTS = ((2000, 1), (10000, 5), (100000, 50))


# ----------------------------------------------------------------------
# The mediation-bound system
# ----------------------------------------------------------------------


def build_mediation_system(
    configuration: str,
    policy: str = "sbqa",
    n_providers: int = 120,
    k: int = 20,
    kn: int = 10,
    memory: int = 100,
    seed: int = 13,
    shards: int = 1,
    random_latency: bool = False,
):
    """One consumer, ``n_providers`` volunteers, a mediator.

    Mirrors the population builder's sharing discipline (one intention
    model instance across providers) and the paper-scale defaults
    (``k=20, kn=10``, 100-interaction windows).  ``configuration``
    selects the engine per :data:`CONFIGURATIONS`; ``policy`` selects
    the allocation technique (every provider carries a resource share
    for the bench consumer so the boinc-shares baseline is benchable
    too).

    ``shards > 1`` fronts the population with a consistent-hash
    federation (:mod:`repro.federation`): the returned mediator is the
    :class:`~repro.federation.mediator.FederatedMediator` facade and
    each ``mediate`` pays the O(1) route before the home shard's
    kernel.

    ``random_latency`` swaps the fixed 0.05 s one-way delay for the
    config default ``U[0.02, 0.08]`` (its own named stream): ``fast``
    then decides on ``select_fast``'s column route and ``fast_scalar``
    on its object route, both committing one event per delivery.
    """
    if configuration not in CONFIGURATIONS:
        raise ValueError(
            f"unknown configuration {configuration!r}; "
            f"valid: {', '.join(CONFIGURATIONS)}"
        )
    fast = configuration != "event"

    sim = Simulator()
    root = RandomRoot(seed)
    latency = (
        UniformLatency(0.02, 0.08, root.stream("hotpath/latency"))
        if random_latency
        else FixedLatency(0.05)
    )
    network = (FastNetwork if fast else Network)(sim, latency)
    registry = SystemRegistry()
    stream = root.stream("hotpath/prefs")
    shared_model = PreferenceUtilizationIntentions()
    # Draw every provider's attributes in id order first, so the RNG
    # stream is identical whatever the construction order below.
    draws = [
        (stream.uniform(0.5, 2.0), stream.uniform(-1.0, 1.0))
        for _ in range(n_providers)
    ]
    build_order = range(n_providers)
    if shards > 1:
        # Allocate each shard's provider objects contiguously.  A real
        # federation gives every mediator its own process, so its
        # working set is dense; simulating K shards in one interpreter
        # heap would otherwise scatter a shard's ~N/K providers across
        # all N and pay the locality penalty for a topology the system
        # doesn't have.  Registration below stays in id order, so the
        # registry (and the K=1 flat path) is unchanged.
        from repro.federation import FederationConfig, ShardMap

        shard_map = ShardMap(FederationConfig(shards=shards))
        build_order = sorted(
            range(n_providers),
            key=lambda i: (shard_map.shard_of_provider(f"p{i:03d}"), i),
        )
    providers: list = [None] * n_providers
    for i in build_order:
        capacity, preference = draws[i]
        providers[i] = Provider(
            sim,
            network,
            participant_id=f"p{i:03d}",
            capacity=capacity,
            preferences={"c0": preference},
            intention_model=shared_model,
            memory=memory,
            resource_shares={"c0": 1.0},
        )
    for provider in providers:
        registry.add_provider(provider)
    consumer = Consumer(
        sim,
        network,
        participant_id="c0",
        preferences={
            p.participant_id: stream.uniform(-1.0, 1.0) for p in providers
        },
        memory=memory,
    )
    registry.add_consumer(consumer)

    def _make_policy(policy_root):
        if policy == "sbqa":
            return SbQAPolicy(
                SbQAConfig(k=k, kn=kn), policy_root.stream("hotpath/knbest")
            )
        return make_policy(policy, policy_root, sbqa=SbQAConfig(k=k, kn=kn))

    # FastMediator reads the kernel switch once at construction, so the
    # scalar oracle path only needs it off around the constructor
    # (every shard constructor, when federated).
    kernel_was = _engine._FUSED_KERNEL
    if configuration == "fast_scalar":
        _engine._FUSED_KERNEL = False
    try:
        if shards > 1:
            from repro.federation import FederationConfig, build_federation

            mediator = build_federation(
                "fast" if fast else "event",
                sim,
                network,
                registry,
                FederationConfig(shards=shards),
                _make_policy,
                root,
                keep_records=False,
            )
        else:
            mediator_cls = FastMediator if fast else Mediator
            mediator = mediator_cls(
                sim,
                network,
                registry,
                _make_policy(root),
                keep_records=False,
            )
    finally:
        _engine._FUSED_KERNEL = kernel_was
    consumer.attach_mediator(mediator)
    return sim, mediator, consumer


# ----------------------------------------------------------------------
# Throughput measurement
# ----------------------------------------------------------------------


def _one_sample(configuration: str, mediations: int, **system_kwargs):
    """One timed pass: (mediate seconds, drain seconds)."""
    import gc

    sim, mediator, consumer = build_mediation_system(
        configuration, **system_kwargs
    )
    queries = [
        Query(
            consumer=consumer,
            topic="c0",
            service_demand=10.0,
            n_results=2,
            issued_at=0.0,
        )
        for _ in range(mediations)
    ]
    mediate = mediator.mediate
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for query in queries:
            mediate(query)
        mediate_seconds = time.perf_counter() - start
        drain_start = time.perf_counter()
        sim.run()
        drain_seconds = time.perf_counter() - drain_start
    finally:
        if gc_was_enabled:
            gc.enable()
    return mediate_seconds, drain_seconds


def measure_throughput(
    configurations=CONFIGURATIONS,
    mediations: int = 4000,
    repeats: int = 3,
    **system_kwargs,
) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` mediation throughput per configuration.

    Samples are interleaved round-robin across the configurations (a
    machine-load burst then degrades every configuration's round, not
    one configuration's whole block) and taken with the garbage
    collector paused.  Returns, per configuration, mediations/second
    for the mediate loop alone (``mediate_per_s``) and with the
    execution drain included (``end_to_end_per_s``).
    """
    best: Dict[str, Dict[str, float]] = {
        configuration: {"mediate_per_s": 0.0, "end_to_end_per_s": 0.0}
        for configuration in configurations
    }
    # One untimed warm-up round lets allocator pools and code paths
    # settle before any sample counts.
    for configuration in configurations:
        _one_sample(configuration, min(mediations, 500), **system_kwargs)
    for _ in range(repeats):
        for configuration in configurations:
            mediate_seconds, drain_seconds = _one_sample(
                configuration, mediations, **system_kwargs
            )
            row = best[configuration]
            row["mediate_per_s"] = max(
                row["mediate_per_s"], mediations / mediate_seconds
            )
            row["end_to_end_per_s"] = max(
                row["end_to_end_per_s"],
                mediations / (mediate_seconds + drain_seconds),
            )
    return best


def measure_policy_matrix(
    policies: Sequence[str] = MATRIX_POLICIES,
    mediations: int = 2000,
    repeats: int = 2,
    n_providers: int = 120,
) -> Dict[str, Dict[str, object]]:
    """Fast-vs-event throughput for every allocation technique.

    Every policy has a ``select_fast``, so the fast engine covers the
    whole matrix; this measures what that is worth per technique.
    """
    matrix: Dict[str, Dict[str, object]] = {}
    for policy in policies:
        rows = measure_throughput(
            configurations=("fast", "event"),
            mediations=mediations,
            repeats=repeats,
            policy=policy,
            n_providers=n_providers,
        )
        matrix[policy] = {
            "fast": rows["fast"],
            "event": rows["event"],
            "fast_vs_event": rows["fast"]["mediate_per_s"]
            / rows["event"]["mediate_per_s"],
        }
    return matrix


def measure_scaling(
    provider_counts: Sequence[int] = SCALING_PROVIDERS,
    mediations: int = 2000,
    repeats: int = 2,
    policy: str = "sbqa",
) -> Dict[str, Dict[str, object]]:
    """Fast/event throughput along the population-size axis.

    With the indexed registry the per-mediation cost is bound by the
    working set (``|Kn|``), not the population, so throughput should
    stay roughly flat from 120 to 2000 providers.
    """
    scaling: Dict[str, Dict[str, object]] = {}
    for n in provider_counts:
        rows = measure_throughput(
            configurations=("fast", "event"),
            mediations=mediations,
            repeats=repeats,
            policy=policy,
            n_providers=n,
        )
        scaling[str(n)] = {"fast": rows["fast"], "event": rows["event"]}
    return scaling


def measure_federation(
    points: Sequence[Sequence[int]] = FEDERATION_POINTS,
    mediations: int = 2000,
    repeats: int = 2,
    policy: str = "sbqa",
) -> Dict[str, object]:
    """Fast-engine throughput along the sharded (N, K) axis.

    Each point builds an ``n_providers`` population fronted by a
    ``shards``-way consistent-hash federation and measures the same
    tight mediate loop as the flat sections -- so every sample pays the
    O(1) route plus the home shard's fused kernel over its ~N/K slice.
    ``flat_ratio`` is the headline flatness gate: throughput at the
    largest point over throughput at the smallest (>= 0.8 means the
    federation holds the per-mediation cost flat while N grows 50x).
    """
    rows: Dict[str, object] = {}
    for n, shards in points:
        measured = measure_throughput(
            configurations=("fast",),
            mediations=mediations,
            repeats=repeats,
            policy=policy,
            n_providers=n,
            shards=shards,
        )["fast"]
        rows[str(n)] = {"n_providers": n, "shards": shards, **measured}
    first = rows[str(points[0][0])]["mediate_per_s"]
    last = rows[str(points[-1][0])]["mediate_per_s"]
    return {"points": rows, "flat_ratio": last / first}


# ----------------------------------------------------------------------
# Digest parity
# ----------------------------------------------------------------------


def _mixed_spec(engine: str, duration: float, n_providers: int):
    """The mixed parity scenario: churn + crashes + two policies."""
    from repro.api.builder import Experiment

    return (
        Experiment.builder()
        .named("engine-parity-mixed")
        .seed(20090301)
        .duration(duration)
        .providers(n_providers)
        .policy("sbqa")
        .policy("capacity")
        .autonomous()
        .failures(mttf=4000.0, repair_time=120.0, result_timeout=240.0)
        .replications(2)
        .engine(engine)
        .build()
    )


def check_digest_parity(
    duration: float = 600.0, n_providers: int = 80
) -> Dict[str, object]:
    """Three-way ``ExperimentResult`` digests on the mixed scenario.

    Byte-compares the JSON digests (the spec serialization deliberately
    omits the engine, so any difference is a result difference) across

    * ``engine="fast"`` with the fused SoA kernel,
    * ``engine="fast"`` with the kernel off (the scalar oracle), and
    * ``engine="event"``.

    ``identical`` is the fast/event engine contract;
    ``scalar_identical`` is the fused-kernel/scalar-oracle contract
    (the bench-level face of tests/oracle/); ``sha256`` is the shared
    digest all three produced when parity holds.
    """
    import hashlib

    from repro.api.session import Session

    digests = {}
    for engine in ("fast", "event"):
        result = Session(_mixed_spec(engine, duration, n_providers)).run(
            keep_runs=False
        )
        digests[engine] = result.to_json()
    kernel_was = _engine._FUSED_KERNEL
    _engine._FUSED_KERNEL = False
    try:
        digests["fast_scalar"] = (
            Session(_mixed_spec("fast", duration, n_providers))
            .run(keep_runs=False)
            .to_json()
        )
    finally:
        _engine._FUSED_KERNEL = kernel_was
    identical = digests["fast"] == digests["event"]
    scalar_identical = digests["fast"] == digests["fast_scalar"]
    return {
        "scenario": "engine-parity-mixed",
        "duration": duration,
        "n_providers": n_providers,
        "identical": identical,
        "scalar_identical": scalar_identical,
        "sha256": hashlib.sha256(digests["fast"].encode("utf-8")).hexdigest(),
    }


# ----------------------------------------------------------------------
# The bench record
# ----------------------------------------------------------------------


def run_bench(
    smoke: bool = False,
    mediations: Optional[int] = None,
    repeats: Optional[int] = None,
    check_parity: bool = True,
    policies: Optional[Iterable[str]] = None,
    scale_providers: Optional[Iterable[int]] = None,
) -> Dict[str, object]:
    """Run the whole bench; returns the BENCH_core.json record.

    ``policies`` overrides the policy-matrix set (default
    :data:`MATRIX_POLICIES`; smoke trims to sbqa + economic);
    ``scale_providers`` overrides the population axis (default
    :data:`SCALING_PROVIDERS`; smoke trims to 120 + 600).
    """
    if mediations is None:
        mediations = 1200 if smoke else 4000
    if repeats is None:
        repeats = 2 if smoke else 3
    parity_duration = 240.0 if smoke else 600.0
    parity_providers = 50 if smoke else 80
    if policies is None:
        policies = ("sbqa", "economic") if smoke else MATRIX_POLICIES
    else:
        policies = tuple(policies)
    if scale_providers is None:
        scale_providers = (120, 600) if smoke else SCALING_PROVIDERS
    else:
        scale_providers = tuple(int(n) for n in scale_providers)
    federation_points = ((120, 1), (600, 4)) if smoke else FEDERATION_POINTS
    matrix_mediations = max(400, mediations // 2)
    matrix_repeats = max(1, repeats - 1)

    throughput = measure_throughput(mediations=mediations, repeats=repeats)
    throughput_random = measure_throughput(
        mediations=mediations, repeats=repeats, random_latency=True
    )

    fast = throughput["fast"]["mediate_per_s"]
    fast_scalar = throughput["fast_scalar"]["mediate_per_s"]
    event = throughput["event"]["mediate_per_s"]
    record: Dict[str, object] = {
        "bench_version": BENCH_VERSION,
        "bench": "core_hotpath",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "scenario": {
            "n_providers": 120,
            "k": 20,
            "kn": 10,
            "memory": 100,
            "latency": "fixed 0.05s",
            "mediations": mediations,
            "repeats": repeats,
        },
        "throughput": throughput,
        # The same three at U[0.02, 0.08]: ``fast`` is select_fast's
        # column route, ``fast_scalar`` its object route.
        "throughput_random_latency": throughput_random,
        "speedup": {
            # The engine split alone (both sides share the O(1) windows
            # and the registry snapshots).
            "fast_vs_event": fast / event,
            # The fused SoA kernel vs the scalar oracle path of the same
            # fast engine: what the kernel is worth.
            "fused_vs_scalar": fast / fast_scalar,
            # The column route vs the object route under random latency.
            "columns_vs_scalar": throughput_random["fast"]["mediate_per_s"]
            / throughput_random["fast_scalar"]["mediate_per_s"],
            # The batched-result-drain claim: how close end-to-end
            # throughput sits to pure mediation throughput.
            "end_to_end_ratio": throughput["fast"]["end_to_end_per_s"] / fast,
        },
        "policies": measure_policy_matrix(
            policies, mediations=matrix_mediations, repeats=matrix_repeats
        ),
        "scaling": measure_scaling(
            scale_providers,
            mediations=matrix_mediations,
            repeats=matrix_repeats,
        ),
        "federation": measure_federation(
            federation_points,
            mediations=matrix_mediations,
            repeats=matrix_repeats,
        ),
    }
    scaling = record["scaling"]
    low, high = min(scale_providers), max(scale_providers)
    # The flat-mediator flatness gate: fast-engine throughput at the
    # largest population over the smallest (CI enforces a floor).
    record["speedup"]["scaling_ratio"] = (
        scaling[str(high)]["fast"]["mediate_per_s"]
        / scaling[str(low)]["fast"]["mediate_per_s"]
    )
    if check_parity:
        record["parity"] = check_digest_parity(
            duration=parity_duration, n_providers=parity_providers
        )
    return record


def gate_failures(
    record: Dict[str, object],
    min_speedup: Optional[float] = None,
    min_mediate_per_s: Optional[float] = None,
    min_scaling_ratio: Optional[float] = None,
    min_federation_ratio: Optional[float] = None,
) -> List[str]:
    """One message per gate the record fails (empty when all pass).

    Digest parity is a hard gate whenever the record carries it; each
    ``min_*`` floor is checked only when given.
    """
    failures = []
    parity = record.get("parity")
    if parity is not None:
        if not parity["identical"]:
            failures.append("fast and event engines produced different digests")
        if not parity["scalar_identical"]:
            failures.append(
                "fused kernel and scalar oracle produced different digests"
            )
    speedup = record["speedup"]
    floors = (
        (
            "fast-engine throughput",
            record["throughput"]["fast"]["mediate_per_s"],
            min_mediate_per_s, ",.0f", "/s",
        ),
        (
            "fast-engine speedup over the event engine",
            speedup["fast_vs_event"], min_speedup, ".2f", "x",
        ),
        (
            "scaling flatness (fast-engine throughput at max-N over min-N)",
            speedup["scaling_ratio"], min_scaling_ratio, ".2f", "x",
        ),
        (
            "federation flatness",
            record["federation"]["flat_ratio"], min_federation_ratio, ".2f", "x",
        ),
    )
    for what, measured, floor, fmt, unit in floors:
        if floor is not None and measured < floor:
            failures.append(
                f"{what} {measured:{fmt}}{unit} is below the required "
                f"{floor:{fmt}}{unit}"
            )
    return failures


def format_report(record: Dict[str, object]) -> str:
    """Human-readable rendering of one bench record."""
    lines = [
        f"core hot-path bench ({record['mode']}, python {record['python']})",
        "",
    ]
    sections = (
        (None, record["throughput"]),
        (
            "  random latency U[0.02, 0.08] (fast = column route):",
            record.get("throughput_random_latency"),
        ),
    )
    for heading, rows in sections:
        if not rows:
            continue
        if heading:
            lines += ["", heading]
        for configuration in CONFIGURATIONS:
            row = rows[configuration]
            lines.append(
                f"  {configuration:<14} {row['mediate_per_s']:>10,.0f} mediations/s"
                f"   ({row['end_to_end_per_s']:>9,.0f}/s end-to-end)"
            )
    speedup = record["speedup"]
    lines += [
        "",
        f"  fast vs event engine:  {speedup['fast_vs_event']:.2f}x",
    ]
    if "columns_vs_scalar" in speedup:
        lines.append(
            f"  columns vs scalar:     {speedup['columns_vs_scalar']:.2f}x  (random latency)"
        )
    if "fused_vs_scalar" in speedup:
        lines.append(
            f"  fused vs scalar path:  {speedup['fused_vs_scalar']:.2f}x"
        )
    lines.append(
        f"  end-to-end / mediate:  {speedup['end_to_end_ratio']:.0%}"
    )
    matrix = record.get("policies")
    if matrix:
        lines += ["", "  policy matrix (mediations/s, fast | event):"]
        for policy, row in matrix.items():
            lines.append(
                f"    {policy:<16} {row['fast']['mediate_per_s']:>10,.0f} | "
                f"{row['event']['mediate_per_s']:>10,.0f}"
                f"   ({row['fast_vs_event']:.2f}x)"
            )
    scaling = record.get("scaling")
    if scaling:
        lines += ["", "  scaling axis (fast engine, mediations/s):"]
        for n, row in scaling.items():
            lines.append(
                f"    N={n:<6} {row['fast']['mediate_per_s']:>10,.0f} mediate"
                f"   {row['fast']['end_to_end_per_s']:>10,.0f} end-to-end"
            )
        if "scaling_ratio" in speedup:
            lines.append(
                f"    flatness (max-N / min-N): {speedup['scaling_ratio']:.2f}x"
            )
    federation = record.get("federation")
    if federation:
        lines += ["", "  federation axis (fast engine, mediations/s):"]
        for n, row in federation["points"].items():
            lines.append(
                f"    N={n:<7} K={row['shards']:<3}"
                f" {row['mediate_per_s']:>10,.0f} mediate"
                f"   {row['end_to_end_per_s']:>10,.0f} end-to-end"
            )
        lines.append(
            f"    flatness (largest / smallest): {federation['flat_ratio']:.2f}x"
        )
    parity = record.get("parity")
    if parity is not None:
        status = "identical" if parity["identical"] else "DIVERGED"
        lines.append("")
        lines.append(
            f"  fast/event digests:    {status} "
            f"(mixed scenario, sha256 {str(parity['sha256'])[:12]}...)"
        )
        if "scalar_identical" in parity:
            scalar_status = (
                "identical" if parity["scalar_identical"] else "DIVERGED"
            )
            lines.append(f"  fused/scalar digests:  {scalar_status}")
    return "\n".join(lines)


def write_record(record: Dict[str, object], path) -> None:
    """Write one bench record as stable, diff-friendly JSON."""
    from pathlib import Path

    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")
