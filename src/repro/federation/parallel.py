"""Process-parallel shard execution with a deterministic merge.

PR 9's federation routes queries across ``K`` shard mediators but still
executes every shard interleaved on one scheduler in one interpreter.
This module runs each shard *group* in its own worker process with its
own :class:`~repro.des.scheduler.Simulator`, then merges the per-shard
outcome streams in the parent so the final
:class:`~repro.metrics.summary.RunSummary` -- and therefore the run
digest -- is **bit-for-bit identical** to the single-process run.

Why this is possible without inter-worker traffic
-------------------------------------------------
Every source of randomness is a *named* stream off the replication
root, and every named stream is an independent generator.  Each worker
performs the **full world wiring** (identical population draw,
identical per-shard policy construction, identical stream names) and
then *activates* only its slice:

* arrival processes are started only for consumers whose query topic
  hashes to an owned shard (a consumer's topic is its own id, so
  ownership and routing coincide exactly);
* the churn monitor sweeps only owned participants (the departure
  policy is deterministic per participant -- no shared stream);
* the metric sampler records raw per-participant columns for owned
  participants instead of global aggregates.

Since a query's entire lifecycle (arrival draw, demand draw, mediation
draws of its home shard's policy stream, satisfaction updates, result
delivery, completion, timeout) touches only owned state, each worker
reproduces exactly the sub-trajectory of the serial run restricted to
its shards: the same floats, in the same per-shard order.

Nothing above depends on *which* shards share a worker, so any
partition of the shards merges to the serial digest; the parent places
them by offered load (:func:`shard_loads`, :func:`plan_placement`)
only to shorten the slowest worker.

Flush loop
----------
Workers never exchange events: a cross-group forwarding consultation
aborts to the serial path (below), so no worker ever waits for another.
Each worker runs its slice to the horizon in ``FLUSH_STEPS`` equal
``run_until`` steps -- ``run_until`` is partition-invariant, so the step
width changes nothing the run computes -- and after each step flushes
its buffered outcome events and samples to the parent over its pipe,
which bounds worker memory, and polls the control pipe, which lets the
parent stop the fleet when a sibling aborts.

In-group forwarding (home shard and contributing peers in the same
worker) is executed natively and is bit-identical to serial.
*Cross-group* forwarding cannot be served by a slice, so the federation
gets a ``foreign_guard`` hook: the moment a forwarded mediation would
consult an out-of-group peer, the worker raises
:class:`ParallelViolation`, the parent stops the fleet and transparently
re-runs the configuration serially (correct result, parallelism
forfeited).  The guard is *conservative-safe*: a worker's view of
out-of-group shards is their initial membership with every provider
online -- a superset of the serial run's view at any instant (churn only
removes) -- so whenever the serial run would have forwarded across the
group boundary, the worker's guard fires too.

Deterministic merge
-------------------
Workers timestamp every outcome (mediation, completion, timeout) with
``(sim time, global consumer ordinal)`` and stream one tuple of flat
per-attribute columns over their owned participants per instant of the
shared sample grid.  The parent

1. merges the event streams by ``(time, consumer ordinal)`` -- within a
   worker the stream is already in firing order; across workers,
   same-instant collisions would need two continuous-time draws to be
   exactly equal (measure zero, see ``docs/architecture.md``);
2. repopulates a real :class:`~repro.metrics.collectors.MetricsHub`,
   feeding each sample instant's joined columns, read back in
   registration order, to the same ``MetricsHub.append_sample`` the
   serial sweep calls, so every series float is identical to the last
   ulp; departures and rejoins are ordered as the churn sweep visits
   them: ``(time, consumers before providers, registration ordinal)``;
3. sorts the workers' final rows (:func:`~repro.metrics.summary.final_rows`
   over each worker's owned participants, keyed by registration
   ordinal; ownership is a partition, so each row comes from exactly
   one worker) into registration order and hands them to
   :func:`~repro.metrics.summary.summary_from_rows`, the function the
   serial :func:`~repro.metrics.summary.build_summary` ends in.

Integer counters (messages, mediations, coordination messages) are sums
of disjoint slices -- exact.  Float reductions re-run in serial order --
exact.  The resulting digest equals the serial digest.  The merged
:class:`~repro.experiments.runner.RunResult` has no live world
(``population is None``).
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
import traceback
from itertools import chain, compress
from multiprocessing import connection as _mp_connection
from operator import itemgetter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.des.events import make_repeating
from repro.federation.mediator import sum_tallies
from repro.federation.ring import ShardMap
from repro.metrics.collectors import MetricsHub

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: repro.experiments.config itself
    # imports this package, so a top-level import would be circular.
    from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.metrics.summary import final_rows, summary_from_rows


#: ``run_until`` steps per worker run; the parent is sent a batch after
#: each (see "Flush loop" in the module docstring).
FLUSH_STEPS = 128


class ParallelViolation(RuntimeError):
    """A worker hit state its slice cannot own (cross-group forwarding)."""


# ----------------------------------------------------------------------
# Eligibility and partitioning
# ----------------------------------------------------------------------


def parallel_ineligible_reason(config: ExperimentConfig) -> Optional[str]:
    """Why ``config`` cannot take the parallel path (None when it can).

    The conditions are exactly the preconditions of the determinism
    argument in the module docstring; anything else falls back to the
    serial runner, whose result is by definition correct.
    """
    if config.federation is None:
        return "no federation configured"
    if config.latency_low != config.latency_high:
        return (
            "random latency: pair-dependent draws interleave across shards "
            "on one shared stream"
        )
    if config.failures is not None:
        return "failure injection draws crash times from one shared stream"
    if config.keep_records:
        return "keep_records retains per-shard record lists the merge does not carry"
    if config.track_provider_snapshots:
        return "per-provider snapshot tracking is not sliced"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "fork start method unavailable on this platform"
    return None


def shard_loads(config: ExperimentConfig) -> Tuple[float, ...]:
    """Offered load per shard ordinal, known from the config alone.

    A consumer's query topic is its own id, so its whole arrival stream
    -- ``rate_scale`` times the equal share of the global rate -- homes
    on ``shard_of_topic(cid)``.  A shard's load is the sum of the
    ``rate_scale`` of the consumers it homes; a shard that homes none
    mediates nothing (it only samples and sweeps its providers).
    """
    shard_map = ShardMap(config.federation)
    scale_of = config.population.rate_scales()
    loads = [0.0] * config.federation.shards
    for cid in config.population.consumer_ids:
        loads[shard_map.shard_of_topic(cid)] += scale_of[cid]
    return tuple(loads)


def plan_placement(
    loads: Sequence[float], workers: int
) -> Tuple[Tuple[int, ...], ...]:
    """Place shard ordinals ``0..len(loads)-1`` on worker groups by load.

    Greedy longest-processing-time: shards in ``(-load, ordinal)`` order,
    each to the group with the smallest ``(load, size, index)``, so the
    heaviest group carries at most ``mean + max(loads)``.  ``workers`` is
    clamped to the shard count and to the number of loaded shards (at
    least one), so no group is planned that would own zero consumers;
    zero-load shards end on the lightest group.  Groups are
    ordinal-sorted and ordered by first ordinal; the plan is
    deterministic in both arguments.
    """
    if not loads:
        raise ValueError("need at least one shard load")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    loaded = sum(1 for load in loads if load > 0)
    workers = min(workers, len(loads), max(1, loaded))
    groups: List[List[int]] = [[] for _ in range(workers)]
    totals = [0.0] * workers
    for ordinal in sorted(range(len(loads)), key=lambda s: (-loads[s], s)):
        target = min(range(workers), key=lambda g: (totals[g], len(groups[g]), g))
        groups[target].append(ordinal)
        totals[target] += loads[ordinal]
    return tuple(sorted(tuple(sorted(group)) for group in groups))


# ----------------------------------------------------------------------
# Worker-side slice wiring
# ----------------------------------------------------------------------


class _SliceHub(MetricsHub):
    """Worker-side hub: log timestamped outcome events, aggregate nothing.

    The parent replays the merged event stream into a real hub, so this
    subclass only records ``(kind, time, consumer ordinal, ...)`` rows.
    Departures/rejoins keep the base behaviour (their frozen dataclasses
    are picklable and shipped wholesale in the harvest)."""

    def __init__(self, sim, shard_slice: "ShardSlice") -> None:
        super().__init__()
        self._sim = sim
        self._shard_slice = shard_slice

    def record_mediation(self, record) -> None:
        shard_slice = self._shard_slice
        shard_slice.events.append(
            (
                "m",
                self._sim.now,
                shard_slice.consumer_ordinal[record.query.consumer_id],
                record.is_failure,
                0.0 if record.is_failure else record.consultation_delay,
            )
        )

    def record_completion(self, record) -> None:
        rt = record.response_time
        if rt is None:
            raise ValueError(
                f"completion recorded for incomplete query {record.query.qid}"
            )
        shard_slice = self._shard_slice
        shard_slice.events.append(
            (
                "c",
                self._sim.now,
                shard_slice.consumer_ordinal[record.query.consumer_id],
                rt,
            )
        )

    def record_timeout(self, record) -> None:
        shard_slice = self._shard_slice
        shard_slice.events.append(
            (
                "t",
                self._sim.now,
                shard_slice.consumer_ordinal[record.query.consumer_id],
            )
        )


class ShardSlice:
    """One worker's slice of a federated run, hooked into ``wire_run``.

    ``wire_run(..., shard_slice=slice)`` calls, in wiring order:

    1. :meth:`create_hub` -- the event-logging hub;
    2. :meth:`attach` -- ownership sets, the foreign-forwarding guard,
       and the group definitions the parent will need;
    3. :meth:`owns_consumer` -- gates arrival-process activation;
    4. :meth:`churn_members` -- the owned sublists for the churn monitor;
    5. :meth:`install_sampler` -- the raw-column sampler replacing
       ``hub.start_sampling`` at the same grid.
    """

    def __init__(self, group: Sequence[int], shards: int) -> None:
        self.group: Tuple[int, ...] = tuple(group)
        self.shards = shards
        #: Outcome events, flushed to the parent after each step.
        self.events: List[tuple] = []
        #: Raw sample ticks ``(t, c_sat, c_online, p_sat, p_util, p_online)``.
        self.samples: List[tuple] = []
        self.consumer_ordinal: Dict[str, int] = {}
        self.provider_ordinal: Dict[str, int] = {}
        self._owned_consumer_ids: set = set()
        self._owned_consumers: List = []
        self._owned_providers: List = []
        self.group_defs: List[Tuple[str, str, List[str]]] = []
        self.federation = None

    def create_hub(self, sim) -> _SliceHub:
        return _SliceHub(sim, self)

    def attach(self, config, population, mediator, hub) -> None:
        federation = getattr(mediator, "federation", None)
        if federation is None:
            raise ValueError("shard_slice requires a federated mediator")
        self.federation = federation
        registry = population.registry
        self.consumer_ordinal = {
            c.participant_id: i for i, c in enumerate(registry.consumers)
        }
        self.provider_ordinal = {
            p.participant_id: i for i, p in enumerate(registry.providers)
        }

        owned = set(self.group)
        shard_map = federation.shard_map
        # A consumer's query topic defaults to its own id, so topic
        # routing and consumer ownership coincide exactly.
        self._owned_consumer_ids = {
            cid
            for cid in self.consumer_ordinal
            if shard_map.shard_of_topic(cid) in owned
        }
        self._owned_consumers = [
            c
            for c in registry.consumers
            if c.participant_id in self._owned_consumer_ids
        ]
        owned_pids = {
            p.participant_id
            for ordinal in self.group
            for p in federation.registries[ordinal].providers
        }
        self._owned_providers = [
            p for p in registry.providers if p.participant_id in owned_pids
        ]

        if len(owned) < federation.config.shards:
            def guard(home: int, peers: Tuple[int, ...]) -> None:
                for peer in peers:
                    if peer not in owned:
                        raise ParallelViolation(
                            f"shard {home} would forward to out-of-group "
                            f"shard {peer} (owned: {sorted(owned)})"
                        )

            federation.foreign_guard = guard

        # Identical in every worker (full-world wiring); the parent
        # registers one copy, in the serial wiring's order.
        from repro.experiments.runner import participant_groups

        self.group_defs = participant_groups(config, population)

    def owns_consumer(self, consumer_id: str) -> bool:
        return consumer_id in self._owned_consumer_ids

    def churn_members(self) -> Tuple[list, list]:
        """Owned consumers/providers, in registration order (the
        population's order: each participant is registered as it is
        drawn)."""
        return self._owned_consumers, self._owned_providers

    def install_sampler(self, sim, registry, interval: float) -> None:
        """Record raw owned-participant columns on the serial sample grid.

        Scheduled exactly like ``MetricsHub.start_sampling`` (repeating
        tick, first sample posted at ``t=0`` during wiring) so the grid
        instants -- and the tick chain's tie order against the churn
        chain -- match the serial run."""
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        consumers = self._owned_consumers
        providers = self._owned_providers

        def sample() -> None:
            # One flat column per sampled attribute, owned participants
            # in registration order (the harvest ships their ordinals
            # once).  Resolve the buffer per tick: step flushes rebind
            # ``self.samples`` to a fresh list after each send.
            self.samples.append(
                (
                    sim.now,
                    [c.satisfaction for c in consumers],
                    [c.online for c in consumers],
                    [p.satisfaction for p in providers],
                    [p.utilization for p in providers],
                    [p.online for p in providers],
                )
            )

        tick = make_repeating(sim.schedule_in, interval, sample)
        sim.schedule_in(0.0, tick, label="metrics:first-sample")


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _flush(conn, shard_slice: ShardSlice) -> None:
    if shard_slice.events or shard_slice.samples:
        conn.send(("batch", shard_slice.events, shard_slice.samples))
        shard_slice.events = []
        shard_slice.samples = []


def _harvest(live, shard_slice: ShardSlice) -> dict:
    """Final owned state, shipped to the parent after the last step."""
    federation = shard_slice.federation
    consumers = shard_slice._owned_consumers
    providers = shard_slice._owned_providers
    consumer_rows, provider_rows = final_rows(consumers, providers)
    owned = [federation.mediators[ordinal] for ordinal in shard_slice.group]
    return {
        "group": shard_slice.group,
        # Rows keyed by global registration ordinal.
        "consumers": [
            (shard_slice.consumer_ordinal[c.participant_id], row)
            for c, row in zip(consumers, consumer_rows)
        ],
        "providers": [
            (shard_slice.provider_ordinal[p.participant_id], row)
            for p, row in zip(providers, provider_rows)
        ],
        "counters": [
            (m.mediations, m.failures, m.coordination_messages, m.forwarded)
            for m in owned
        ],
        # Execution metadata: which route decided, which commit ran.
        "tallies": {
            name: sum_tallies(getattr(m, name) for m in owned)
            for name in _MergedMediator.TALLIES
        },
        "network_messages": live.network.messages_sent,
        "departures": list(live.hub.departures),
        "rejoins": list(live.hub.rejoins),
        "groups": shard_slice.group_defs,
    }


def _worker_main(config, policy_spec, replication, group, conn, ctrl) -> None:
    """Run one shard group to the horizon, flushing after each step."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        from repro.experiments.runner import wire_run

        shard_slice = ShardSlice(group, config.federation.shards)
        live = wire_run(
            config, policy_spec, replication=replication, shard_slice=shard_slice
        )
        sim = live.sim
        duration = config.duration
        for step in range(1, FLUSH_STEPS + 1):
            # Exact at the last step: scaling by a power of two is exact.
            sim.run_until(duration * step / FLUSH_STEPS)
            _flush(conn, shard_slice)
            if ctrl.poll():
                return  # parent told us to stop (a sibling aborted)
        harvest = _harvest(live, shard_slice)
        harvest["wall_s"] = time.perf_counter() - wall0
        harvest["cpu_s"] = time.process_time() - cpu0
        conn.send(("done", harvest))
    except ParallelViolation as exc:
        conn.send(("violation", str(exc)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent-side merge
# ----------------------------------------------------------------------


class _MergedMediator:
    """The merged run's mediator counters, summed over the workers'
    shards, and the route/commit tallies summed the same way: placement never changes which route a shard's mediations take,
    so they equal the serial run's.
    """

    TALLIES = ("route_counts", "scalar_reasons", "commit_counts")

    __slots__ = (
        "mediations",
        "failures",
        "coordination_messages",
        "forwarded",
        "records",
    ) + TALLIES

    def __init__(self, mediations, failures, coordination, forwarded, tallies):
        self.mediations = mediations
        self.failures = failures
        self.coordination_messages = coordination
        self.forwarded = forwarded
        self.records = []
        for name in self.TALLIES:
            setattr(self, name, sum_tallies(t[name] for t in tallies))


def _merge_events(event_lists: List[List[tuple]]):
    """Interleave per-worker event streams into serial firing order.

    Each worker stream is already in firing order; across workers the
    order is ``(time, consumer ordinal)``.  Exact same-key collisions
    across workers would need two independent continuous-time draws to
    coincide (measure zero); ``heapq.merge`` then keeps earlier-listed
    workers first, deterministically."""
    return heapq.merge(*event_lists, key=lambda e: (e[1], e[2]))


def _replay(
    hub: MetricsHub,
    merged_events,
    ordinal_cid: Sequence[str],
) -> List[Tuple[float, int, float]]:
    """Replay outcome events into ``hub``; return completions in order."""
    completions: List[Tuple[float, int, float]] = []
    for event in merged_events:
        kind = event[0]
        if kind == "m":
            _, _, ordinal, is_failure, delay = event
            cid = ordinal_cid[ordinal]
            hub.queries_issued += 1
            hub.issued_by_consumer[cid] = hub.issued_by_consumer.get(cid, 0) + 1
            if is_failure:
                hub.queries_failed += 1
                hub.failed_by_consumer[cid] = hub.failed_by_consumer.get(cid, 0) + 1
            else:
                hub.queries_allocated += 1
                hub.consultation_delays.append(delay)
        elif kind == "c":
            _, t, ordinal, rt = event
            cid = ordinal_cid[ordinal]
            hub.queries_completed += 1
            hub.completed_by_consumer[cid] = hub.completed_by_consumer.get(cid, 0) + 1
            hub.response_times.append(rt)
            completions.append((t, ordinal, rt))
        else:  # "t"
            _, _, ordinal = event
            cid = ordinal_cid[ordinal]
            hub.queries_timed_out += 1
            hub.timed_out_by_consumer[cid] = hub.timed_out_by_consumer.get(cid, 0) + 1
    return completions


def _registration_order(owned: List[List[int]]) -> List[int]:
    """Positions that put worker-concatenated columns in registration order.

    ``owned[w]`` holds worker ``w``'s owned global ordinals in column
    order.  Ownership is a partition, so their concatenation is a
    permutation of ``0..n-1``; with ``order`` its inverse,
    ``[column[j] for j in order]`` is the column a serial
    registration-ordered sweep reads."""
    joined = [ordinal for ordinals in owned for ordinal in ordinals]
    if sorted(joined) != list(range(len(joined))):
        raise AssertionError("worker ownership does not partition the population")
    order = [0] * len(joined)
    for position, ordinal in enumerate(joined):
        order[ordinal] = position
    return order


def _replay_samples(
    hub: MetricsHub,
    sample_lists: List[List[tuple]],
    consumer_order: List[int],
    provider_order: List[int],
    completions: List[Tuple[float, int, float]],
    interval: float,
    capacities: List[float],
    group_defs: List[Tuple[str, List[int]]],
) -> None:
    """Re-run every sample instant through ``MetricsHub.append_sample``.

    Each worker ships one ``(t, c_sat, c_online, p_sat, p_util,
    p_online)`` tick of flat columns per grid instant; joined across
    workers and read through the registration-order permutations they
    are the operands of the registration-ordered sweeps of
    ``MetricsHub.sample_once``, so every series float is the serial one
    (``group_defs`` carries ``(kind, member ordinals)``).  Completions
    at exactly a grid instant are counted into that instant's window
    (the serial order between a completion event and the sample event
    at the same instant depends on heap seq; completion times are
    continuous, so the instants coincide with measure zero)."""
    grid = [tick[0] for tick in sample_lists[0]]
    for ticks in sample_lists[1:]:
        if [tick[0] for tick in ticks] != grid:
            raise AssertionError("workers disagree on the sample grid")

    hub._sample_interval = interval
    orders = (consumer_order,) * 2 + (provider_order,) * 3
    done = 0  # completions folded into previous windows
    for i, t in enumerate(grid):
        columns = []
        for k, order in enumerate(orders, start=1):
            joined = list(chain.from_iterable(ticks[i][k] for ticks in sample_lists))
            columns.append([joined[j] for j in order])
        c_sat, c_online, p_sat, p_util, p_online = columns

        window = done
        while window < len(completions) and completions[window][0] <= t:
            window += 1
        hub.append_sample(
            t,
            list(compress(c_sat, c_online)),
            list(compress(p_sat, p_online)),
            list(compress(p_util, p_online)),
            sum(compress(capacities, p_online)),
            (
                [(c_sat if kind == "consumer" else p_sat)[o] for o in ordinals]
                for kind, ordinals in group_defs
            ),
            window,
            [rt for _, _, rt in completions[done:window]],
        )
        done = window

    hub._rt_window = [rt for _, _, rt in completions[done:]]


def _sorted_rows(harvests: List[dict], kind: str) -> list:
    """Every worker's ``(ordinal, row)`` harvest of ``kind``, as rows in
    global registration order: ownership partitions the population, so
    these are the serial run's final rows."""
    keyed = sorted(chain.from_iterable(h[kind] for h in harvests), key=itemgetter(0))
    return [row for _, row in keyed]


def _merge_result(
    config: ExperimentConfig,
    policy_spec: PolicySpec,
    harvests: List[dict],
    event_lists: List[List[tuple]],
    sample_lists: List[List[tuple]],
):
    from repro.experiments.runner import RunResult

    consumer_rows = _sorted_rows(harvests, "consumers")
    provider_rows = _sorted_rows(harvests, "providers")
    consumer_ids = [summary.consumer_id for summary, _ in consumer_rows]
    ordinal_of = {
        "consumer": {cid: i for i, cid in enumerate(consumer_ids)},
        "provider": {row[0]: i for i, row in enumerate(provider_rows)},
    }

    def sweep_order(change) -> Tuple[float, bool, int]:
        # ChurnMonitor.check_once and _rejoin_sweep visit consumers,
        # then providers, each in registration order.
        return (
            change.time,
            change.kind == "provider",
            ordinal_of[change.kind][change.participant_id],
        )

    counters = chain.from_iterable(h["counters"] for h in harvests)
    mediator = _MergedMediator(
        *(sum(column) for column in zip(*counters)),
        [h["tallies"] for h in harvests],
    )

    hub = MetricsHub()
    completions = _replay(hub, _merge_events(event_lists), consumer_ids)
    hub.departures = sorted(
        (d for h in harvests for d in h["departures"]), key=sweep_order
    )
    hub.rejoins = sorted((r for h in harvests for r in h["rejoins"]), key=sweep_order)
    group_defs = []
    for name, kind, ids in harvests[0]["groups"]:
        hub.register_group(name, kind, ids)
        group_defs.append((kind, [ordinal_of[kind][pid] for pid in ids]))
    _replay_samples(
        hub,
        sample_lists,
        _registration_order([[o for o, _ in h["consumers"]] for h in harvests]),
        _registration_order([[o for o, _ in h["providers"]] for h in harvests]),
        completions,
        config.sample_interval,
        [capacity for _, _, capacity, _ in provider_rows],
        group_defs,
    )

    summary = summary_from_rows(
        policy_spec.label,
        config.duration,
        hub,
        consumer_rows,
        provider_rows,
        coordination_messages=mediator.coordination_messages,
        network_messages=sum(h["network_messages"] for h in harvests),
    )
    return RunResult(
        label=policy_spec.label,
        config=config,
        policy_spec=policy_spec,
        summary=summary,
        hub=hub,
        population=None,
        mediator=mediator,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


@dataclass
class ParallelRunReport:
    """Outcome of :func:`run_parallel`.

    ``mode`` is ``"parallel"`` when the worker fleet produced the
    result, ``"serial-fallback"`` when the configuration was ineligible,
    the plan left a single loaded group, or a worker aborted (``reason``
    says why); ``result`` is correct and digest-identical to the serial
    run either way.  ``groups`` is the placement that was forked (empty
    when the serial decision preceded it), ``loads`` the offered load
    (:func:`shard_loads`) of each group, ``wall_s``/``cpu_s`` what each
    worker measured from its first instruction to its harvest (empty
    unless ``mode == "parallel"``)."""

    mode: str
    reason: Optional[str]
    workers: int
    groups: Tuple[Tuple[int, ...], ...]
    result: object  # RunResult
    loads: Tuple[float, ...] = ()
    wall_s: Tuple[float, ...] = ()
    cpu_s: Tuple[float, ...] = ()


def run_parallel(
    config: ExperimentConfig,
    policy_spec: PolicySpec,
    workers: int,
    replication: int = 0,
) -> ParallelRunReport:
    """Execute one federated run across ``workers`` shard-group processes.

    Digest-identical to ``run_once(config, policy_spec, replication)``
    for every eligible configuration; serial otherwise -- including when
    more than one worker was asked for but one shard group would carry
    all offered load, which is known before forking.  ``workers=1`` is
    honoured as asked: one worker, the protocol-overhead probe."""
    from repro.experiments.runner import run_once

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    reason = parallel_ineligible_reason(config)
    if reason is None:
        groups = plan_placement(shard_loads(config), workers)
        if workers == 1 or len(groups) > 1:
            return _run_groups(config, policy_spec, groups, replication)
        reason = "one shard group carries all offered load"
    return ParallelRunReport(
        mode="serial-fallback",
        reason=reason,
        workers=0,
        groups=(),
        result=run_once(config, policy_spec, replication=replication),
    )


def _run_groups(
    config: ExperimentConfig,
    policy_spec: PolicySpec,
    groups: Tuple[Tuple[int, ...], ...],
    replication: int = 0,
) -> ParallelRunReport:
    """Fork one worker per shard group, collect, merge.

    ``groups`` may be *any* partition of the shard ordinals: the merged
    digest does not depend on placement (workers never exchange
    messages and the merge keys on ``(time, consumer ordinal)``).
    :func:`run_parallel` passes the load-aware plan; the placement
    invariance tests pass random partitions."""
    from repro.experiments.runner import run_once

    ctx = multiprocessing.get_context("fork")
    procs = []
    states: Dict[object, dict] = {}
    ctrls = []
    failure: Optional[Tuple[str, str]] = None
    try:
        for group in groups:
            data_recv, data_send = ctx.Pipe(duplex=False)
            ctrl_recv, ctrl_send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(config, policy_spec, replication, group, data_send, ctrl_recv),
            )
            proc.start()
            # Close the child's ends in the parent so EOF propagates.
            data_send.close()
            ctrl_recv.close()
            procs.append(proc)
            ctrls.append(ctrl_send)
            states[data_recv] = {"events": [], "samples": [], "harvest": None}

        # For the report only; computed while the workers wire up.
        shard_load = shard_loads(config)
        loads = tuple(sum(shard_load[s] for s in group) for group in groups)

        pending = dict(states)
        while pending and failure is None:
            for conn in _mp_connection.wait(list(pending)):
                state = pending[conn]
                try:
                    msg = conn.recv()
                except EOFError:
                    failure = ("error", "parallel-federation worker exited early")
                    del pending[conn]
                    continue
                kind = msg[0]
                if kind == "batch":
                    state["events"].extend(msg[1])
                    state["samples"].extend(msg[2])
                elif kind == "done":
                    state["harvest"] = msg[1]
                    del pending[conn]
                else:  # "violation" or "error"
                    failure = (kind, msg[1])
                    del pending[conn]

        if failure is not None:
            for ctrl in ctrls:
                try:
                    ctrl.send("stop")
                except (BrokenPipeError, OSError):
                    pass
            # Drain survivors to EOF so none blocks on a full pipe.
            while pending:
                ready = _mp_connection.wait(list(pending), timeout=10.0)
                if not ready:
                    break
                for conn in ready:
                    try:
                        conn.recv()
                    except EOFError:
                        del pending[conn]
    finally:
        for proc in procs:
            proc.join(timeout=30.0)
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.terminate()
                proc.join()
        for conn in states:
            conn.close()
        for ctrl in ctrls:
            ctrl.close()

    if failure is not None:
        kind, detail = failure
        if kind != "violation":
            raise RuntimeError(f"parallel federation worker failed:\n{detail}")
        return ParallelRunReport(
            mode="serial-fallback",
            reason=f"cross-group forwarding: {detail}",
            workers=0,
            groups=groups,
            result=run_once(config, policy_spec, replication=replication),
            loads=loads,
        )

    ordered = list(states.values())
    harvests = [state["harvest"] for state in ordered]
    result = _merge_result(
        config,
        policy_spec,
        harvests,
        [state["events"] for state in ordered],
        [state["samples"] for state in ordered],
    )
    return ParallelRunReport(
        mode="parallel",
        reason=None,
        workers=len(groups),
        groups=groups,
        result=result,
        loads=loads,
        wall_s=tuple(h["wall_s"] for h in harvests),
        cpu_s=tuple(h["cpu_s"] for h in harvests),
    )
