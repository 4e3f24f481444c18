"""The five workloads, each chosen to stress layers the others bypass.

Every workload derives all of its inputs from the seed it is given
(``ExperimentConfig.seed`` / spec seed / the open-loop generator's RNG)
and exposes the same four steps:

* ``setup()``     -- cold: config/spec build and the first wired run;
* ``checks()``    -- deterministic correctness checks at a reduced
  horizon, which double as the warm-up pass;
* ``measure()``   -- the timed, untraced passes (end-to-end samples)
  and, on request, one separate traced pass (per-layer numbers);
* ``params()``    -- the sizes actually used, for the record.

Sizes are the ones that fit the driver's run window on a 2-core
sandbox (see README, "Sizing"); ``smoke=True`` shrinks them to what
the harness test can afford.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from measure import (
    MIN_TIMED_PASSES,
    MIN_UNTRACED_PASSES_TRACED_RUN,
    cpu_seconds,
    percentile,
    timed_passes,
)
from tracer import Tracer

DEFAULT_SEED = 20090301

#: Constant one-way latency that engages the fused kernel and the
#: collapsed dispatch (any positive constant does).
FIXED_LATENCY = 0.05

#: Workload name -> why it exists (mirrored in BENCHMARK.json).
WHY = {
    "batch-default": (
        "the path every scenario/sweep/tune run takes: random latency, scalar "
        "select_fast + _commit, one event per delivery; the fused kernel does nothing"
    ),
    "batch-fused": (
        "same run at constant latency: fused SoA kernel, collapsed dispatch and "
        "result drains; the scalar core.* modules must show zero calls"
    ),
    "batch-churn-mixed": (
        "public API, three policies, departures/rejoins and crashes: registry "
        "writes beside reads, snapshot and column rebuilds, baseline select_fasts"
    ),
    "federated-parallel": (
        "K=8 shards run serially and across 2 forked workers: real wall-clock "
        "with fork, full-world wiring, pipes and merge"
    ),
    "serve-open-loop": (
        "in-process ServeEngine under a paced Poisson open loop: the only "
        "workload with queueing, admission and wall-clock pacing"
    ),
}


@dataclass
class PassResult:
    """One untraced (or traced) pass, input to digest."""

    wall_s: float
    cpu_s: float
    issued: int
    completed: int
    sim_failed: int
    digest: str
    counts: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def timed(cls, t0: float, cpu0: float, digest: str, counts: Dict[str, int]) -> "PassResult":
        """Close a pass opened at ``(t0, cpu0)``; ``digest`` is its last step."""
        return cls(
            wall_s=time.perf_counter() - t0,
            cpu_s=cpu_seconds() - cpu0,
            issued=counts["issued"],
            completed=counts["completed"],
            sim_failed=counts["failed"] + counts["timed_out"],
            digest=digest,
            counts=counts,
        )

    @property
    def lost(self) -> int:
        """Queries the run's own accounting cannot place (must be 0)."""
        return max(0, self.completed + self.sim_failed - self.issued)


def _check(ok: bool, detail: str = "") -> Dict[str, object]:
    return {"ok": bool(ok), "detail": detail}


def _summary_counts(summary) -> Dict[str, int]:
    return {
        "issued": summary.queries_issued,
        "completed": summary.queries_completed,
        "failed": summary.queries_failed,
        "timed_out": summary.queries_timed_out,
        "network_messages": summary.network_messages,
        "coordination_messages": summary.coordination_messages,
        "provider_departures": summary.provider_departures,
        "provider_rejoins": summary.provider_rejoins,
        "provider_crashes": summary.provider_crashes,
    }


def _merge_counts(parts: List[Dict[str, int]]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, 0) + value
    return merged


# ----------------------------------------------------------------------
# Per-layer numbers of one traced pass
# ----------------------------------------------------------------------


def layer_metrics(tracer: Tracer, counts: Dict[str, int], untraced_wall_s: float) -> Dict[str, float]:
    """The ``per_layer`` metrics a traced pass can answer.

    ``*.self_s`` are self times of the layer's spans; counts are span
    counts or public counters read at the span boundaries; ``counts``
    carries what only the run's summary knows (message volumes).  A
    traced measurement may cover several identical passes; seconds and
    counts are then per pass (counts divide exactly: the passes are
    digest-identical), ``pending_peak`` is the peak over all of them.
    """
    layers = tracer.layer_self()
    known = sum(seconds for layer, seconds in layers.items() if layer != "other")
    unattributed = tracer.root_self_s + layers.get("other", 0.0)
    c = tracer.counters
    events = c["events_fired"]
    mediations = tracer.count("core.engine:FastMediator.mediate", "core.engine:Mediator.mediate")
    mediate_s = tracer.total_s("core.engine:FastMediator.mediate", "core.engine:Mediator.mediate")
    snapshot_calls = tracer.count("system.registry:SystemRegistry.capable_snapshot")
    sched_self = layers.get("des.scheduler", 0.0)
    # Seconds and counts, summed over the traced passes.
    summed = {
        "des.scheduler.events_fired": events,
        "des.scheduler.posts": c["posts"],
        "des.scheduler.self_s": sched_self,
        "des.network.self_s": layers.get("des.network", 0.0),
        "core.engine.mediations": mediations,
        "core.engine.self_s": layers.get("core.engine", 0.0),
        "core.soa.column_builds": tracer.count("core.soa:ConsultColumns.build"),
        "core.soa.self_s": layers.get("core.soa", 0.0),
        "core.sbqa.select_fast_calls": tracer.count("core.sbqa:SbQAPolicy.select_fast"),
        "core.sbqa.self_s": layers.get("core.sbqa", 0.0),
        "core.knbest.calls": tracer.count(
            "core.knbest:KnBestSelector.select",
            "core.knbest:KnBestSelector.sample_working",
            "core.knbest:KnBestSelector.sample_working_ordinals",
        ),
        "core.knbest.self_s": layers.get("core.knbest", 0.0),
        "core.scoring.calls": tracer.count(
            "core.scoring:sqlb_score",
            "core.scoring:score_providers_batch",
            "core.scoring:rank_providers",
            "core.scoring:score_pairs",
        ),
        "core.scoring.self_s": layers.get("core.scoring", 0.0),
        "core.satisfaction.record_calls": tracer.count(
            "core.satisfaction:ConsumerSatisfactionTracker.record_query",
            "core.satisfaction:ProviderSatisfactionTracker.record_proposal",
        ),
        "core.satisfaction.self_s": layers.get("core.satisfaction", 0.0),
        "allocation.economic.select_fast_calls": tracer.count(
            "allocation.economic:EconomicPolicy.select_fast"
        ),
        "allocation.economic.self_s": layers.get("allocation.economic", 0.0),
        "allocation.capacity.select_fast_calls": tracer.count(
            "allocation.capacity:CapacityBasedPolicy.select_fast"
        ),
        "allocation.capacity.self_s": layers.get("allocation.capacity", 0.0),
        "system.registry.snapshot_calls": snapshot_calls,
        "system.registry.snapshot_rebuilds": c["snapshot_rebuilds"],
        "system.registry.version_bumps": c["version_bumps"],
        "system.registry.self_s": layers.get("system.registry", 0.0),
        "system.autonomy.sweeps": tracer.count("system.autonomy:ChurnMonitor.check_once"),
        "system.autonomy.departures": tracer.count("metrics.collectors:MetricsHub.record_departure"),
        "system.autonomy.rejoins": tracer.count("metrics.collectors:MetricsHub.record_rejoin"),
        "system.autonomy.self_s": layers.get("system.autonomy", 0.0),
        "system.failures.crashes": tracer.count("metrics.collectors:MetricsHub.record_crash"),
        "system.failures.self_s": layers.get("system.failures", 0.0),
        "system.consumer.issues": tracer.count("system.consumer:Consumer.issue"),
        "system.consumer.self_s": layers.get("system.consumer", 0.0),
        # execute() enqueues through begin_execution(), so both engines meet here
        "system.provider.executions": tracer.count("system.provider:Provider.begin_execution"),
        "system.provider.self_s": layers.get("system.provider", 0.0),
        "workloads.arrivals.fires": tracer.count("workloads.arrivals:ArrivalProcess._fire"),
        "workloads.arrivals.self_s": layers.get("workloads.arrivals", 0.0),
        "metrics.collectors.record_calls": tracer.count(
            "metrics.collectors:MetricsHub.record_mediation",
            "metrics.collectors:MetricsHub.record_completion",
            "metrics.collectors:MetricsHub.record_timeout",
            "metrics.collectors:MetricsHub.record_departure",
            "metrics.collectors:MetricsHub.record_rejoin",
            "metrics.collectors:MetricsHub.record_crash",
        ),
        "metrics.collectors.samples": tracer.count("metrics.collectors:MetricsHub.sample_once"),
        "metrics.collectors.self_s": layers.get("metrics.collectors", 0.0),
        "metrics.summary.build_s": tracer.total_s("metrics.summary:build_summary"),
        "metrics.summary.digest_s": tracer.total_s("metrics.summary:summary_digest"),
        "api.session.overhead_s": layers.get("api.session", 0.0),
        "api.results.to_json_s": tracer.total_s("api.results:ExperimentResult.to_json"),
        "experiments.runner.wire_s": tracer.total_s("experiments.runner:wire_run"),
        "workloads.boinc.population_s": tracer.total_s("workloads.boinc:build_boinc_population"),
        "federation.mediator.routes": tracer.count("federation.mediator:FederatedMediator.mediate"),
        "federation.mediator.self_s": layers.get("federation.mediator", 0.0),
        "serve.engine.submits": tracer.count("serve.engine:ServeEngine.submit"),
        "serve.engine.submit_self_s": tracer.self_s("serve.engine:ServeEngine.submit"),
        "serve.engine.advance_self_s": tracer.self_s(
            "serve.engine:ServeEngine.advance_wall",
            "serve.engine:ServeEngine.advance_to",
            "serve.engine:action",
        ),
        "serve.admission.decisions": tracer.count("serve.admission:AdmissionController.decide"),
        "serve.admission.self_s": layers.get("serve.admission", 0.0),
        "metrics.series.p2_adds": tracer.count("metrics.series:P2Quantile.add"),
        "metrics.series.self_s": layers.get("metrics.series", 0.0),
    }
    # Peaks, ratios and what the one-pass summary already counts per pass.
    fixed = {
        "des.scheduler.pending_peak": c["pending_peak"],
        "des.scheduler.us_per_event": 1e6 * sched_self / events if events else 0.0,
        "des.network.sends": counts.get("network_messages", 0),
        "core.engine.mediate_per_s": mediations / mediate_s if mediate_s else 0.0,
        "core.engine.fused_share": c["fused_mediations"] / mediations if mediations else 0.0,
        "system.registry.snapshot_hit_ratio": (
            1.0 - c["snapshot_rebuilds"] / snapshot_calls if snapshot_calls else 0.0
        ),
        "federation.mediator.forwarded": counts.get("forwarded", 0),
        "bench.tracer.overhead_ratio": (
            tracer.wall_s / tracer.passes / untraced_wall_s if untraced_wall_s else 0.0
        ),
        "bench.tracer.unattributed_share": unattributed / tracer.wall_s if tracer.wall_s else 0.0,
        # Layer self times + unattributed over the traced wall: an
        # identity of the fold, kept as a number so a broken tracer
        # (a span that never closes) shows.
        "bench.tracer.accounted_share": (known + unattributed) / tracer.wall_s if tracer.wall_s else 0.0,
    }
    per_pass = {name: value / tracer.passes for name, value in summed.items()}
    return {**per_pass, **{name: float(value) for name, value in fixed.items()}}


# ----------------------------------------------------------------------
# Base: repeated-pass workloads
# ----------------------------------------------------------------------


class Workload:
    """Common shape; subclasses fill in the run itself."""

    name = ""
    forks_workers = False

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)

    def params(self) -> Dict[str, object]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def checks(self) -> Dict[str, Dict[str, object]]:
        raise NotImplementedError

    def one_pass(self) -> PassResult:
        raise NotImplementedError

    def _engine_parity(self, digest_of) -> Dict[str, Dict[str, object]]:
        """``digest_of(duration, engine)`` must not depend on the engine."""
        fast, event = (digest_of(self.parity_duration, engine) for engine in ("fast", "event"))
        return {f"fast == event digest at duration {self.parity_duration:g}": _check(fast == event, fast)}

    def traced_passes(self, budget_s: float) -> Tuple[Tracer, PassResult]:
        """Passes with the tracer installed *before* anything is wired,
        repeated while they fit ``budget_s`` (at least one)."""
        tracer = Tracer().install()
        try:

            def one_traced() -> PassResult:
                tracer.begin()
                result = self.one_pass()
                tracer.end()
                return result

            results = timed_passes(one_traced, budget_s, 1)
        finally:
            tracer.uninstall()
        return tracer, results[0]

    def measure(self, seconds: float, trace: bool) -> Dict[str, object]:
        if trace:
            # The window is split between the untraced baseline of the
            # overhead ratio and the (slower) traced passes.
            passes = timed_passes(self.one_pass, seconds * 0.4, MIN_UNTRACED_PASSES_TRACED_RUN)
        else:
            passes = timed_passes(self.one_pass, seconds, MIN_TIMED_PASSES)
        out = self._fold(passes)
        if trace:
            tracer, traced = self.traced_passes(seconds * 0.5)
            untraced_wall = statistics.median(p.wall_s for p in passes)
            out["per_layer"].update(layer_metrics(tracer, traced.counts, untraced_wall))
            out["spans"] = tracer.span_table()
            out["traced_wall_s"] = tracer.wall_s
            out["traced_passes"] = tracer.passes
            out["checks"]["traced pass digest == untraced digest"] = _check(
                traced.digest == passes[0].digest, traced.digest
            )
        return out

    def _fold(self, passes: List[PassResult]) -> Dict[str, object]:
        digests = {p.digest for p in passes}
        first = passes[0]
        sim_failed = sum(p.sim_failed for p in passes)
        issued = sum(p.issued for p in passes)
        return {
            "samples": {
                "queries_per_s": [p.completed / p.wall_s for p in passes],
                "cpu_ms_per_query": [1e3 * p.cpu_s / p.completed for p in passes],
            },
            "pass_wall_s": [p.wall_s for p in passes],
            "per_layer": {"bench.sim_failed_share": sim_failed / issued if issued else 0.0},
            "spans": None,
            "attempted": issued,
            "failed": sum(p.lost for p in passes),
            "digest": first.digest,
            "counts": first.counts,
            "checks": {
                "every timed pass has the same digest": _check(len(digests) == 1, str(sorted(digests))),
                "completed queries > 0": _check(first.completed > 0, str(first.completed)),
            },
        }


# ----------------------------------------------------------------------
# batch-default / batch-fused
# ----------------------------------------------------------------------


class BatchDirect(Workload):
    """``wire_run`` -> ``step_until`` -> ``finalize`` -> ``digest``."""

    fixed_latency = False

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n_providers = 80 if smoke else 1000
        # Many short passes, not few long ones: on a shared host the
        # median of ~20 half-second passes is far steadier than that of
        # 4 passes six times as long (README, "Sizing").
        self.duration = 200.0 if smoke else 300.0
        self.parity_duration = 100.0 if smoke else 300.0

    def params(self) -> Dict[str, object]:
        return {
            "n_providers": self.n_providers,
            "duration": self.duration,
            "parity_duration": self.parity_duration,
            "latency": [FIXED_LATENCY, FIXED_LATENCY] if self.fixed_latency else "config default",
            "policy": "sbqa",
            "autonomy": "captive",
        }

    def config(self, duration: Optional[float] = None, engine: str = "fast"):
        from repro.experiments.config import ExperimentConfig
        from repro.workloads.boinc import BoincScenarioParams

        latency = (
            {"latency_low": FIXED_LATENCY, "latency_high": FIXED_LATENCY}
            if self.fixed_latency
            else {}
        )
        return ExperimentConfig(
            name=self.name,
            seed=self.seed,
            duration=self.duration if duration is None else duration,
            engine=engine,
            population=BoincScenarioParams(n_providers=self.n_providers),
            **latency,
        )

    def setup(self) -> None:
        from repro.experiments.config import PolicySpec
        from repro.experiments.runner import wire_run

        self.policy = PolicySpec(name="sbqa")
        self.cfg = self.config()
        wire_run(self.cfg, self.policy)

    def one_pass(self) -> PassResult:
        from repro.experiments.runner import wire_run

        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        live = wire_run(self.cfg, self.policy)
        live.step_until(self.cfg.duration)
        result = live.finalize()
        return PassResult.timed(t0, cpu0, result.digest(), _summary_counts(result.summary))

    def checks(self) -> Dict[str, Dict[str, object]]:
        from repro.experiments.runner import run_once

        return self._engine_parity(
            lambda duration, engine: run_once(self.config(duration, engine), self.policy).digest()
        )


class BatchDefault(BatchDirect):
    name = "batch-default"

    def measure(self, seconds: float, trace: bool) -> Dict[str, object]:
        out = super().measure(seconds, trace)
        if trace:
            share = out["per_layer"]["core.engine.fused_share"]
            out["checks"]["fused_share == 0 (random latency keeps the kernel off)"] = _check(
                share == 0.0, repr(share)
            )
        return out


class BatchFused(BatchDirect):
    name = "batch-fused"
    fixed_latency = True

    def checks(self) -> Dict[str, Dict[str, object]]:
        import repro.core.scoring as scoring

        out = super().checks()
        backend = scoring.resolve_backend()
        out['scoring backend != "python" (else the kernel is off)'] = _check(
            backend != "python", backend
        )
        return out

    def measure(self, seconds: float, trace: bool) -> Dict[str, object]:
        out = super().measure(seconds, trace)
        if trace:
            layer = out["per_layer"]
            out["checks"]["fused_share == 1"] = _check(
                layer["core.engine.fused_share"] == 1.0, repr(layer["core.engine.fused_share"])
            )
            for name in (
                "core.sbqa.select_fast_calls",
                "core.knbest.calls",
                "core.scoring.calls",
                "core.satisfaction.record_calls",
            ):
                out["checks"][f"{name} == 0 (the kernel inlines them)"] = _check(
                    layer[name] == 0.0, repr(layer[name])
                )
        return out


# ----------------------------------------------------------------------
# batch-churn-mixed
# ----------------------------------------------------------------------


class BatchChurnMixed(Workload):
    """Builder -> ``Session(spec).run(keep_runs=False)`` -> ``to_json()``."""

    name = "batch-churn-mixed"
    policies = ("sbqa", "economic", "capacity")

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n_providers = 60 if smoke else 200
        self.duration = 200.0 if smoke else 480.0
        # Departures only start after the autonomy warm-up (300 s), so
        # the parity horizon has to reach past it to compare them.
        self.parity_duration = 100.0 if smoke else 360.0

    def params(self) -> Dict[str, object]:
        return {
            "n_providers": self.n_providers,
            "duration": self.duration,
            "parity_duration": self.parity_duration,
            "latency": [FIXED_LATENCY, FIXED_LATENCY],
            "policies": list(self.policies),
            "replications": 1,
            "autonomy": {"mode": "autonomous", "rejoin_cooldown": 120.0},
            "failures": {"mttf": 4000.0, "repair_time": 120.0, "result_timeout": 240.0},
        }

    def spec(self, duration: Optional[float] = None, engine: str = "fast"):
        from repro import Experiment

        builder = (
            Experiment.builder()
            .named(self.name)
            .seed(self.seed)
            .duration(self.duration if duration is None else duration)
            .providers(self.n_providers)
            .latency(FIXED_LATENCY, FIXED_LATENCY)
            .engine(engine)
            .autonomous(rejoin_cooldown=120.0)
            .failures(mttf=4000.0, repair_time=120.0, result_timeout=240.0)
            .replications(1)
        )
        for policy in self.policies:
            builder = builder.policy(policy)
        return builder.build()

    def setup(self) -> None:
        from repro.experiments.runner import wire_run

        spec = self.spec()
        wire_run(spec.to_config(), spec.policies[0])

    def _run(self, spec) -> Tuple[str, list]:
        from repro import Session

        result = Session(spec).run(keep_runs=False)
        text = result.to_json()
        summaries = [policy.summaries[0] for policy in result.policies]
        return hashlib.sha256(text.encode("utf-8")).hexdigest(), summaries

    def one_pass(self) -> PassResult:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        digest, summaries = self._run(self.spec())
        return PassResult.timed(t0, cpu0, digest, _merge_counts([_summary_counts(s) for s in summaries]))

    def checks(self) -> Dict[str, Dict[str, object]]:
        return self._engine_parity(lambda duration, engine: self._run(self.spec(duration, engine))[0])


# ----------------------------------------------------------------------
# federated-parallel
# ----------------------------------------------------------------------


@dataclass
class PairResult:
    serial: PassResult
    parallel: PassResult
    mode: str
    workers_cpu_s: float
    parent_cpu_s: float


class FederatedParallel(Workload):
    """Alternating serial ``run_once`` / ``run_parallel(workers=2)`` pairs."""

    name = "federated-parallel"
    forks_workers = True
    workers = 2

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n_providers = 80 if smoke else 2000
        self.shards = 4 if smoke else 8
        self.duration = 200.0 if smoke else 300.0
        self.parity_duration = 100.0 if smoke else 150.0
        self._pairs_run = 0

    def params(self) -> Dict[str, object]:
        return {
            "n_providers": self.n_providers,
            "shards": self.shards,
            "partition": "hash",
            "workers": self.workers,
            "duration": self.duration,
            "parity_duration": self.parity_duration,
            "latency": [FIXED_LATENCY, FIXED_LATENCY],
            "policy": "sbqa",
            "autonomy": "captive",
        }

    def config(self, duration: Optional[float] = None, engine: str = "fast"):
        from repro.experiments.config import ExperimentConfig
        from repro.federation.config import FederationConfig
        from repro.workloads.boinc import BoincScenarioParams

        return ExperimentConfig(
            name=self.name,
            seed=self.seed,
            duration=self.duration if duration is None else duration,
            engine=engine,
            population=BoincScenarioParams(n_providers=self.n_providers),
            latency_low=FIXED_LATENCY,
            latency_high=FIXED_LATENCY,
            federation=FederationConfig(shards=self.shards),
        )

    def setup(self) -> None:
        from repro.experiments.config import PolicySpec
        from repro.experiments.runner import wire_run

        self.policy = PolicySpec(name="sbqa")
        self.cfg = self.config()
        wire_run(self.cfg, self.policy)

    def _result(self, result, t0: float, cpu0: float) -> PassResult:
        digest = result.digest()
        counts = _summary_counts(result.summary)
        # A public counter of the (federated or merged) mediator that
        # the summary does not carry.
        counts["forwarded"] = result.mediator.forwarded
        return PassResult.timed(t0, cpu0, digest, counts)

    def one_pass(self) -> PassResult:
        """The serial K-shard run (also what the traced pass traces: the
        forked workers are out of a tracer's reach)."""
        from repro.experiments.runner import run_once

        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        return self._result(run_once(self.cfg, self.policy), t0, cpu0)

    def parallel_pass(self) -> Tuple[PassResult, str, float, float]:
        from repro.federation.parallel import run_parallel

        children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        parent0 = time.process_time()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        report = run_parallel(self.cfg, self.policy, workers=self.workers)
        result = self._result(report.result, t0, cpu0)
        children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        workers_cpu = (children1.ru_utime + children1.ru_stime) - (
            children0.ru_utime + children0.ru_stime
        )
        return result, report.mode, workers_cpu, time.process_time() - parent0

    def one_pair(self) -> PairResult:
        # Alternate which side goes first so neither always inherits
        # the other's warm caches or garbage.
        parallel_first = self._pairs_run % 2 == 1
        self._pairs_run += 1
        if parallel_first:
            parallel, mode, workers_cpu, parent_cpu = self.parallel_pass()
            gc.collect()
            serial = self.one_pass()
        else:
            serial = self.one_pass()
            gc.collect()
            parallel, mode, workers_cpu, parent_cpu = self.parallel_pass()
        return PairResult(serial, parallel, mode, workers_cpu, parent_cpu)

    def checks(self) -> Dict[str, Dict[str, object]]:
        from repro.experiments.runner import run_once

        return self._engine_parity(
            lambda duration, engine: run_once(self.config(duration, engine), self.policy).digest()
        )

    def measure(self, seconds: float, trace: bool) -> Dict[str, object]:
        if trace:
            pairs = timed_passes(self.one_pair, seconds * 0.5, MIN_UNTRACED_PASSES_TRACED_RUN)
        else:
            pairs = timed_passes(self.one_pair, seconds, MIN_TIMED_PASSES)
        out = self._fold([pair.parallel for pair in pairs])
        median = statistics.median
        serial_wall = median(pair.serial.wall_s for pair in pairs)
        parallel_wall = median(pair.parallel.wall_s for pair in pairs)
        workers_cpu = median(pair.workers_cpu_s for pair in pairs)
        parent_cpu = median(pair.parent_cpu_s for pair in pairs)
        serial_cpu = median(pair.serial.cpu_s for pair in pairs)
        out["pair_wall_s"] = [[pair.serial.wall_s, pair.parallel.wall_s] for pair in pairs]
        out["per_layer"].update(
            {
                "federation.serial.queries_per_s": median(
                    pair.serial.completed / pair.serial.wall_s for pair in pairs
                ),
                "federation.parallel.speedup_vs_serial": serial_wall / parallel_wall,
                "federation.parallel.wall_s": parallel_wall,
                "federation.parallel.workers_cpu_s": workers_cpu,
                "federation.parallel.parent_cpu_s": parent_cpu,
                "federation.parallel.cpu_inflation": (workers_cpu + parent_cpu) / serial_cpu,
                "federation.parallel.idle_share": 1.0 - workers_cpu / (self.workers * parallel_wall),
            }
        )
        modes = {pair.mode for pair in pairs}
        out["checks"]['report.mode == "parallel" on every pass'] = _check(
            modes == {"parallel"}, str(sorted(modes))
        )
        out["checks"][f"W={self.workers} digest == serial digest"] = _check(
            all(pair.serial.digest == pair.parallel.digest for pair in pairs), pairs[0].serial.digest
        )
        if trace:
            tracer, traced = self.traced_passes(seconds * 0.4)
            out["per_layer"].update(layer_metrics(tracer, traced.counts, serial_wall))
            out["spans"] = tracer.span_table()
            out["traced_wall_s"] = tracer.wall_s
            out["traced_passes"] = tracer.passes
            out["checks"]["traced pass digest == untraced digest"] = _check(
                traced.digest == pairs[0].serial.digest, traced.digest
            )
        return out


# ----------------------------------------------------------------------
# serve-open-loop
# ----------------------------------------------------------------------

#: The ticker period of ``ServeServer`` the driver mimics.
TICK_S = 0.005
#: Latency limit of a ladder rung (the issue's): submit -> issue.
LIMIT_P50_MS = 10.0
LIMIT_P99_MS = 100.0
LIMIT_OVERRUN_S = 0.1
#: Width of the windows the overload goodput is the median over.
GOODPUT_WINDOW_S = 0.5


@dataclass
class PhaseResult:
    rate: float
    seconds: float
    scheduled: int
    wall_s: float
    busy_s: float
    submitted: int
    admitted: int
    dropped: int
    backlog_end: int
    backlog_peak: int
    issued: int
    completed: int
    failed: int
    timed_out: int
    hub_agrees: bool
    network_messages: int
    latency_ms: List[float]
    lateness_ms: List[float]
    window_rates: List[float]
    window_cpu_ms: List[float]

    @property
    def in_flight(self) -> int:
        return self.issued - self.completed - self.failed - self.timed_out

    @property
    def overrun_s(self) -> float:
        return self.wall_s - self.seconds

    @property
    def p50_ms(self) -> float:
        return percentile(self.latency_ms, 0.50)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latency_ms, 0.99)

    @property
    def meets_limit(self) -> bool:
        return (
            self.dropped == 0
            and self.p50_ms <= LIMIT_P50_MS
            and self.p99_ms <= LIMIT_P99_MS
            and self.overrun_s < LIMIT_OVERRUN_S
        )

    @property
    def accounted(self) -> bool:
        return (
            self.submitted == self.admitted + self.dropped
            and self.admitted == self.issued + self.backlog_end
            and self.in_flight >= 0
            and self.hub_agrees
        )


class ServeOpenLoop(Workload):
    """Open loop: a seeded Poisson schedule in wall-clock, independent
    of how fast the engine answers; each tick submits what is due, then
    ``advance_wall``.  Latency runs from an arrival's *due* instant to
    the return of the ``advance_wall`` that issued it."""

    name = "serve-open-loop"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n_providers = 80 if smoke else 1000
        self.ladder = (1000.0, 2000.0, 3000.0, 4000.0)
        self.limit_rung = 2000.0
        # Far past the knee (~5k q/s on the reference sandbox) so the
        # phase saturates on a faster host too; smoke phases are too
        # short to saturate at a merely high rate.
        self.overload_rate = 30000.0 if smoke else 12000.0
        self.queue_capacity = 64
        self.parity_duration = 100.0 if smoke else 300.0

    def params(self) -> Dict[str, object]:
        return {
            "n_providers": self.n_providers,
            "ladder_qps": list(self.ladder),
            "limit_rung_qps": self.limit_rung,
            "overload_qps": self.overload_rate,
            "queue_capacity": self.queue_capacity,
            "tick_s": TICK_S,
            "simulated_load": 0.70,
            "parity_duration": self.parity_duration,
            "policy": "sbqa",
            "latency": "config default",
        }

    # -- engine ---------------------------------------------------------

    def _population(self):
        from repro.workloads.boinc import BoincScenarioParams

        return BoincScenarioParams(n_providers=self.n_providers)

    def _speed(self, rate: float) -> float:
        """Simulated seconds per wall second that turn ``rate`` q/s of
        wall-clock arrivals into the population's nominal target load
        (0.70; rate/11.7 at N=1000)."""
        pop = self._population()
        nominal = (
            pop.target_load * pop.n_providers * pop.capacity_mean / (pop.demand_mean * pop.n_results)
        )
        return rate / nominal

    def engine(self, rate: float, seconds: float, capacity: Optional[int]):
        from repro.experiments.config import ExperimentConfig, PolicySpec
        from repro.serve.admission import AdmissionConfig
        from repro.serve.engine import ServeEngine

        config = ExperimentConfig(
            name=self.name,
            seed=self.seed,
            # headroom: ticks may overrun the phase, never the horizon
            duration=(seconds + 2.0) * self._speed(rate),
            population=self._population(),
        )
        admission = AdmissionConfig(queue_capacity=capacity) if capacity is not None else None
        return ServeEngine(config, PolicySpec(name="sbqa"), admission=admission)

    def setup(self) -> None:
        self.engine(self.limit_rung, 1.0, None)

    def schedule(self, rate: float, seconds: float, consumer_ids: List[str]) -> List[Tuple[float, str]]:
        rng = random.Random(f"{self.seed}/{rate:g}")
        due: List[Tuple[float, str]] = []
        t = rng.expovariate(rate)
        while t < seconds:
            due.append((t, consumer_ids[rng.randrange(len(consumer_ids))]))
            t += rng.expovariate(rate)
        return due

    # -- one paced phase --------------------------------------------------

    def phase(self, rate: float, seconds: float, capacity: Optional[int]) -> PhaseResult:
        engine = self.engine(rate, seconds, capacity)
        speed = self._speed(rate)
        due = self.schedule(rate, seconds, engine.consumer_ids())
        n_due = len(due)
        submit = engine.submit
        advance = engine.advance_wall
        hub = engine.live.hub
        perf = time.perf_counter
        latency: List[float] = []
        lateness: List[float] = []
        windows: List[float] = []
        windows_cpu: List[float] = []
        window_end = GOODPUT_WINDOW_S
        window_t, window_issued, window_cpu = 0.0, 0, time.process_time()
        backlog_peak = 0
        busy = 0.0
        i = 0
        gc.collect()
        start = perf()
        tick = 0
        while True:
            tick += 1
            now = perf() - start
            if now < tick * TICK_S:
                time.sleep(tick * TICK_S - now)
                now = perf() - start
            else:
                tick = int(now / TICK_S)  # late: skip the missed ticks
            last = now >= seconds
            if last:
                now = seconds
            b0 = perf()
            accepted: List[float] = []
            j = i
            while j < n_due and due[j][0] <= now:
                if submit(due[j][1])[0]:
                    accepted.append(due[j][0])
                j += 1
            submitted_at = perf() - start
            lateness.extend(submitted_at - due[x][0] for x in range(i, j))
            i = j
            if engine.backlog > backlog_peak:
                backlog_peak = engine.backlog
            advance(now, speed)
            b1 = perf()
            busy += b1 - b0
            returned_at = b1 - start
            latency.extend(returned_at - d for d in accepted)
            if returned_at >= window_end or last:
                issued = hub.queries_issued
                cpu_now = time.process_time()
                if issued > window_issued:
                    windows.append((issued - window_issued) / (returned_at - window_t))
                    windows_cpu.append(1e3 * (cpu_now - window_cpu) / (issued - window_issued))
                window_t, window_issued, window_cpu = returned_at, issued, cpu_now
                window_end = returned_at + GOODPUT_WINDOW_S
            if last:
                break
        wall = perf() - start
        stats = engine.admission.stats
        consumers = engine.live.population.consumers
        issued = sum(c.stats.queries_issued for c in consumers)
        completed = sum(c.stats.queries_completed for c in consumers)
        failed = sum(c.stats.queries_failed for c in consumers)
        timed_out = sum(c.stats.queries_timed_out for c in consumers)
        latency.sort()
        lateness.sort()
        return PhaseResult(
            rate=rate,
            seconds=seconds,
            scheduled=n_due,
            wall_s=wall,
            busy_s=busy,
            submitted=stats.submitted,
            admitted=stats.admitted,
            dropped=stats.dropped,
            backlog_end=engine.backlog,
            backlog_peak=backlog_peak,
            issued=issued,
            completed=completed,
            failed=failed,
            timed_out=timed_out,
            hub_agrees=(
                hub.queries_completed == completed
                and hub.queries_failed == failed
                and hub.queries_timed_out == timed_out
            ),
            network_messages=engine.live.network.messages_sent,
            latency_ms=[1e3 * v for v in latency],
            lateness_ms=[1e3 * v for v in lateness],
            window_rates=windows,
            window_cpu_ms=windows_cpu,
        )

    # -- checks -----------------------------------------------------------

    def checks(self) -> Dict[str, Dict[str, object]]:
        from repro.experiments.config import ExperimentConfig, PolicySpec
        from repro.serve.engine import ServeEngine
        from repro.workloads.traces import record_trace

        config = ExperimentConfig(
            name=self.name,
            seed=self.seed,
            duration=self.parity_duration,
            population=self._population(),
        )
        policy = PolicySpec(name="sbqa")
        trace, batch = record_trace(config, policy)
        served = ServeEngine(config, policy).replay(trace)
        self.replay_digest = served.digest()
        return {
            f"record_trace -> ServeEngine.replay digest parity at duration {self.parity_duration:g}": _check(
                batch.digest() == self.replay_digest, self.replay_digest
            )
        }

    # -- measurement --------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> Dict[str, object]:
        # Untraced runs spend the window on the overload phase, whose
        # goodput is the bounded number; traced runs share it between
        # the ladder diagnostics and the traced overload phase.
        rung_s = (0.08 if trace else 0.04) * seconds
        rungs = [self.phase(rate, rung_s, None) for rate in self.ladder]
        overload_s = (0.3 if trace else 0.8) * seconds
        overload = self.phase(self.overload_rate, overload_s, self.queue_capacity)
        phases = rungs + [overload]

        within = [r for r in rungs if r.meets_limit]
        limit_rung = next(r for r in rungs if r.rate == self.limit_rung)
        judged = within or [limit_rung]
        share_num = sum(r.failed + r.timed_out + r.dropped for r in judged)
        share_den = sum(r.issued + r.dropped for r in judged)
        # Only the windows wholly inside the phase: the closing one is
        # cut short by the final tick.
        windows = overload.window_rates[:-1] or overload.window_rates
        windows_cpu = overload.window_cpu_ms[:-1] or overload.window_cpu_ms
        checks = {
            "submitted == admitted + dropped, admitted == issued + backlog, "
            "issued == completed + failed + timed-out + in-flight (every phase)": _check(
                all(p.accounted for p in phases),
                "; ".join(
                    f"{p.rate:g}: sub={p.submitted} adm={p.admitted} drop={p.dropped} "
                    f"iss={p.issued} backlog={p.backlog_end} done={p.completed} "
                    f"fail={p.failed} to={p.timed_out} flight={p.in_flight}"
                    for p in phases
                ),
            ),
            "overload phase drops > 0 (else not saturated)": _check(
                overload.dropped > 0, f"dropped={overload.dropped} of {overload.submitted}"
            ),
        }
        per_layer = {
            "bench.sim_failed_share": share_num / share_den if share_den else 0.0,
            "serve.engine.busy_share": overload.busy_s / overload.wall_s,
            "serve.engine.backlog_peak": overload.backlog_peak,
            "serve.engine.submit_to_issue_p50_ms": limit_rung.p50_ms,
            "serve.engine.submit_to_issue_p99_ms": limit_rung.p99_ms,
            "serve.engine.max_rate_within_limit_qps": max((r.rate for r in within), default=0.0),
            "serve.admission.drop_share_overload": overload.dropped / overload.submitted,
            "bench.generator.lateness_p99_ms": percentile(limit_rung.lateness_ms, 0.99),
        }
        out: Dict[str, object] = {
            "samples": {
                "queries_per_s": windows,
                "cpu_ms_per_query": windows_cpu,
            },
            "pass_wall_s": [p.wall_s for p in phases],
            "phases": [
                {
                    "rate_qps": p.rate,
                    "seconds": p.seconds,
                    "wall_s": p.wall_s,
                    "submitted": p.submitted,
                    "admitted": p.admitted,
                    "dropped": p.dropped,
                    "issued": p.issued,
                    "completed": p.completed,
                    "p50_ms": p.p50_ms,
                    "p99_ms": p.p99_ms,
                    "lateness_p99_ms": percentile(p.lateness_ms, 0.99),
                    "busy_share": p.busy_s / p.wall_s,
                    "backlog_peak": p.backlog_peak,
                    "meets_limit": p.meets_limit,
                }
                for p in phases
            ],
            "per_layer": per_layer,
            "spans": None,
            # Attempted: every arrival offered; failed: arrivals the
            # accounting lost.  Overload drops are the admission layer's
            # designed answer and are reported as drop_share_overload.
            "attempted": sum(p.submitted for p in phases),
            "failed": sum(abs(p.submitted - p.admitted - p.dropped) for p in phases),
            "digest": self.replay_digest,
            # The paced phases depend on host timing; what the seed fixes
            # is the schedule offered to them.
            "counts": {"scheduled_arrivals": sum(p.scheduled for p in phases)},
            "checks": checks,
        }
        if trace:
            tracer = Tracer().install()
            try:
                tracer.begin()
                traced = self.phase(self.overload_rate, overload_s, self.queue_capacity)
                tracer.end()
            finally:
                tracer.uninstall()
            counts = {"network_messages": traced.network_messages}
            # The phase is paced, so its wall is fixed; the overhead is
            # what tracing does to the work done inside it.
            layer = layer_metrics(tracer, counts, tracer.wall_s)
            layer["bench.tracer.overhead_ratio"] = (
                (overload.issued / overload.wall_s) / (traced.issued / traced.wall_s)
                if traced.issued
                else 0.0
            )
            per_layer.update(layer)
            out["spans"] = tracer.span_table()
            out["traced_wall_s"] = tracer.wall_s
            out["traced_passes"] = 1
            checks["traced overload phase accounted"] = _check(traced.accounted, "")
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (BatchDefault, BatchFused, BatchChurnMixed, FederatedParallel, ServeOpenLoop)
}
