"""Outside-in span tracer for the layers under ``src/repro``.

Nothing in ``src/`` knows about this file.  :meth:`Tracer.install`
replaces the layers' callables *at class level* (and module-level
functions in every ``repro`` namespace that imported them by name)
with timing wrappers, so it must run **before** a run is wired:
construction-time bindings such as ``FastMediator._fast_select =
policy.select_fast`` and the ``Entity.FAST_HANDLERS`` name lookups then
bind the wrappers.  Actions handed to ``Simulator.post_in`` /
``post_in_batch`` / ``schedule_at`` are wrapped in a span attributed to
the module that defines the action (closure, bound method or callable
object), which is how event-driven work -- arrival chains, collapsed
dispatches, result drains, crash timers -- is attributed without
listing every private callable.

A span is ``(name, start, end, parent)``; with ~10 spans per simulated
event a pass closes millions of them, so they are folded into
per-name ``[count, total_s, self_s]`` slots the moment they close
(``self = span - children``) instead of being kept one by one.  The
fold is exact: per-name self times plus the root's own self time add
up to the traced wall.

Known bias, reported rather than hidden: each span costs two clock
reads and some list traffic (~0.5 us).  The part between the clock
reads lands in the span itself, the rest in its parent, so layers made
of many tiny calls (``core.satisfaction``, ``system.registry``) read
relatively too slow.  ``bench.tracer.overhead_ratio`` is the traced
wall over the untraced median; end-to-end numbers never come from a
traced pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

# Code objects of the wrapper closures (filled at the end of the module),
# so that a callable that already opens a span -- a class-level wrapper
# reached through a bound method, or a re-posted traced action -- is
# never wrapped twice.
_TRACED_CODES: Set[object] = set()

#: module of a posted action -> layer it is accounted to, where the two
#: differ.  ``core.mediator`` holds the event-faithful half of the same
#: mediation engine; ``des.events`` holds the repeating-tick closure.
ACTION_LAYER_OF_MODULE = {
    "repro.core.mediator": "core.engine",
    "repro.des.events": "des.scheduler",
    "repro.workloads.traces": "workloads.arrivals",
}

#: (module, class, attributes, layer): methods wrapped at class level.
CLASS_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.des.scheduler", "Simulator", ("step", "schedule_in"), "des.scheduler"),
    ("repro.des.network", "Network", ("send",), "des.network"),
    ("repro.core.engine", "FastNetwork", ("send",), "des.network"),
    ("repro.core.mediator", "Mediator", ("mediate",), "core.engine"),
    ("repro.core.soa", "ConsultColumns", ("build", "refresh", "detach"), "core.soa"),
    ("repro.core.sbqa", "SbQAPolicy", ("select", "select_fast"), "core.sbqa"),
    (
        "repro.core.knbest",
        "KnBestSelector",
        ("select", "sample_working", "sample_working_ordinals"),
        "core.knbest",
    ),
    (
        "repro.core.satisfaction",
        "ConsumerSatisfactionTracker",
        ("record_query", "satisfaction", "allocation_satisfaction", "adequation", "reset"),
        "core.satisfaction",
    ),
    (
        "repro.core.satisfaction",
        "ProviderSatisfactionTracker",
        ("record_proposal", "satisfaction", "reset"),
        "core.satisfaction",
    ),
    ("repro.allocation.economic", "EconomicPolicy", ("select", "select_fast"), "allocation.economic"),
    ("repro.allocation.capacity", "CapacityBasedPolicy", ("select", "select_fast"), "allocation.capacity"),
    (
        "repro.system.registry",
        "SystemRegistry",
        (
            "snapshot_meta",
            "online_providers_snapshot",
            "online_consumers_snapshot",
            "online_providers",
            "online_consumers",
            "capable_providers",
            "total_capacity",
            "mean_provider_satisfaction",
            "mean_consumer_satisfaction",
            "rebuild_indexes",
        ),
        "system.registry",
    ),
    ("repro.system.autonomy", "ChurnMonitor", ("check_once",), "system.autonomy"),
    (
        "repro.system.consumer",
        "Consumer",
        (
            "issue",
            "receive",
            "_receive_result_payload",
            "_on_allocation",
            "_on_failure",
            "_on_result",
            "absorb_results",
            "record_query_satisfaction",
            "intention_for",
            "leave",
            "rejoin",
        ),
        "system.consumer",
    ),
    (
        "repro.system.provider",
        "Provider",
        (
            "receive",
            "execute",
            "begin_execution",
            "finish_execution",
            "record_proposal",
            "intention_for",
            "crash",
            "leave",
            "rejoin",
        ),
        "system.provider",
    ),
    ("repro.workloads.arrivals", "ArrivalProcess", ("start", "_fire"), "workloads.arrivals"),
    (
        "repro.metrics.collectors",
        "MetricsHub",
        (
            "record_mediation",
            "record_completion",
            "record_timeout",
            "record_departure",
            "record_rejoin",
            "record_crash",
            "sample_once",
        ),
        "metrics.collectors",
    ),
    ("repro.metrics.series", "P2Quantile", ("add",), "metrics.series"),
    ("repro.metrics.series", "QuantileSet", ("add",), "metrics.series"),
    ("repro.api.session", "Session", ("run",), "api.session"),
    ("repro.api.results", "ExperimentResult", ("to_json",), "api.results"),
    ("repro.experiments.runner", "LiveRun", ("step_until", "finalize"), "experiments.runner"),
    ("repro.experiments.runner", "RunResult", ("digest",), "metrics.summary"),
    ("repro.federation.mediator", "FederatedMediator", ("receive", "mediate"), "federation.mediator"),
    ("repro.federation.mediator", "_ShardForwarding", ("mediate",), "federation.mediator"),
    ("repro.federation.mediator", "Federation", ("route", "merged_candidates"), "federation.mediator"),
    ("repro.serve.engine", "ServeEngine", ("submit", "advance_wall", "advance_to"), "serve.engine"),
    ("repro.serve.admission", "AdmissionController", ("decide", "admit", "drop"), "serve.admission"),
)

#: (module, functions, layer): module-level functions, re-bound in every
#: ``repro`` namespace that holds them (``from x import f`` copies).
FUNCTION_TARGETS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    (
        "repro.core.scoring",
        ("sqlb_score", "score_providers_batch", "rank_providers", "score_pairs"),
        "core.scoring",
    ),
    ("repro.core.satisfaction", ("consumer_query_satisfaction", "adequation"), "core.satisfaction"),
    ("repro.metrics.summary", ("build_summary", "summary_digest", "summary_payload"), "metrics.summary"),
    ("repro.experiments.runner", ("wire_run", "run_once"), "experiments.runner"),
    ("repro.workloads.boinc", ("build_boinc_population",), "workloads.boinc"),
)


class Tracer:
    """Aggregating span tracer; one instance per traced measurement."""

    def __init__(self) -> None:
        #: span name (``layer:callable``) -> [count, total_s, self_s]
        self.spans: Dict[str, List[float]] = {}
        #: counts taken at the span boundaries (ratios are measured
        #: where the work happens)
        self.counters: Dict[str, int] = {
            "events_fired": 0,
            "posts": 0,
            "pending_peak": 0,
            "fused_mediations": 0,
            "snapshot_rebuilds": 0,
            "version_bumps": 0,
        }
        self.wall_s = 0.0
        self.root_self_s = 0.0
        self.passes = 0
        # Child-time accumulators of the open spans; slot 0 is the root.
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[object, str, object]] = []
        self._action_slots: Dict[object, List[float]] = {}
        # id(registry) -> [registry, last version, {topic: last snapshot}].
        # The registry itself is held so that its id cannot be recycled
        # by the next run of a multi-run pass while the trace is open.
        self._registries: Dict[int, list] = {}
        self._t_begin: Optional[float] = None

    # ------------------------------------------------------------------
    # Span machinery
    # ------------------------------------------------------------------

    def _slot(self, name: str) -> List[float]:
        slot = self.spans.get(name)
        if slot is None:
            slot = self.spans[name] = [0, 0.0, 0.0]
        return slot

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span called ``name``.

        ``after(args, result)`` runs once the span has closed (its cost
        lands in the caller) and is how counts that need the arguments
        or the return value are taken.
        """
        slot = self._slot(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - child
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_action(self, action: Callable[[], None]) -> Callable[[], None]:
        """A scheduler action inside a span of its defining module."""
        func = getattr(action, "__func__", action)
        code = getattr(func, "__code__", None)
        if code in _TRACED_CODES:
            return action  # class-level wrapper or an already traced action
        key = code if code is not None else type(func)
        slot = self._action_slots.get(key)
        if slot is None:
            module = getattr(func, "__module__", None) or type(func).__module__
            layer = ACTION_LAYER_OF_MODULE.get(module)
            if layer is None:
                layer = module[len("repro."):] if module.startswith("repro.") else "other"
            slot = self._action_slots[key] = self._slot(f"{layer}:action")
        stack = self._stack
        perf = time.perf_counter

        def traced_action():
            stack.append(0.0)
            t0 = perf()
            try:
                action()
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - child

        return traced_action

    # ------------------------------------------------------------------
    # Scheduler entry points: time the heap push, wrap the action
    # ------------------------------------------------------------------

    def _note_posts(self, sim, count: int) -> None:
        self.counters["posts"] += count
        # The heap is the scheduler's only record of what is pending
        # (events_pending is an O(n) scan), so its length is read directly.
        pending = len(sim._heap)
        if pending > self.counters["pending_peak"]:
            self.counters["pending_peak"] = pending

    def _wrap_post(self, orig: Callable, name: str) -> Callable:
        """``post_in(sim, delay, action)`` / ``schedule_at(sim, time, action, ...)``."""
        inner = self.wrap(orig, name)
        wrap_action = self._wrap_action
        note_posts = self._note_posts

        def traced(sim, when, action, *args, **kwargs):
            result = inner(sim, when, wrap_action(action), *args, **kwargs)
            note_posts(sim, 1)
            return result

        return functools.update_wrapper(traced, orig)

    def _wrap_post_batch(self, orig: Callable, name: str) -> Callable:
        inner = self.wrap(orig, name)
        wrap_action = self._wrap_action
        note_posts = self._note_posts

        def traced(sim, items):
            items = [(delay, wrap_action(action)) for delay, action in items]
            inner(sim, items)
            note_posts(sim, len(items))

        return functools.update_wrapper(traced, orig)

    def _wrap_run(self, orig: Callable, name: str) -> Callable:
        """``run`` / ``run_until``: the loop's span plus the events it fired."""
        inner = self.wrap(orig, name)
        counters = self.counters

        def traced(sim, *args, **kwargs):
            fired = sim.events_fired
            try:
                return inner(sim, *args, **kwargs)
            finally:
                counters["events_fired"] += sim.events_fired - fired

        return functools.update_wrapper(traced, orig)

    # ------------------------------------------------------------------
    # Count hooks
    # ------------------------------------------------------------------

    def _after_mediate(self, args, result) -> None:
        # The fused kernel is the only producer of lazy records, so the
        # public return type tells from outside which path mediated.
        if type(result) is self._lazy_record_type:
            self.counters["fused_mediations"] += 1

    def _after_capable_snapshot(self, args, result) -> None:
        registry, topic = args[0], args[1]
        version = registry.version
        seen = self._registries.get(id(registry))
        if seen is None:
            self._registries[id(registry)] = [registry, version, {topic: result}]
            return
        if version != seen[1]:
            self.counters["version_bumps"] += version - seen[1]
            seen[1] = version
        snapshots = seen[2]
        last = snapshots.get(topic)
        if last is not result:
            # A rebuild is seen from outside as a changed tuple identity
            # (the first sighting is the initial build, not a rebuild).
            if last is not None:
                self.counters["snapshot_rebuilds"] += 1
            snapshots[topic] = result

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls: type, attr: str, name: str, after=None, maker=None) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(raw.__func__, name, after))
        elif maker is not None:
            replacement = maker(raw, name)
        else:
            replacement = self.wrap(raw, name, after)
        self._patch(cls, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every target; call before wiring the run to be traced."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.core.soa import LazyAllocationRecord

        self._lazy_record_type = LazyAllocationRecord
        for module_name, class_name, attrs, layer in CLASS_TARGETS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for attr in attrs:
                self._patch_method(cls, attr, f"{layer}:{class_name}.{attr}")

        scheduler = importlib.import_module("repro.des.scheduler").Simulator
        self._patch_method(scheduler, "run", "des.scheduler:Simulator.run", maker=self._wrap_run)
        self._patch_method(scheduler, "run_until", "des.scheduler:Simulator.run_until", maker=self._wrap_run)
        self._patch_method(scheduler, "post_in", "des.scheduler:Simulator.post_in", maker=self._wrap_post)
        self._patch_method(scheduler, "schedule_at", "des.scheduler:Simulator.schedule_at", maker=self._wrap_post)
        self._patch_method(
            scheduler, "post_in_batch", "des.scheduler:Simulator.post_in_batch", maker=self._wrap_post_batch
        )
        engine = importlib.import_module("repro.core.engine").FastMediator
        self._patch_method(engine, "mediate", "core.engine:FastMediator.mediate", after=self._after_mediate)
        registry = importlib.import_module("repro.system.registry").SystemRegistry
        self._patch_method(
            registry,
            "capable_snapshot",
            "system.registry:SystemRegistry.capable_snapshot",
            after=self._after_capable_snapshot,
        )

        for module_name, names, layer in FUNCTION_TARGETS:
            home = importlib.import_module(module_name)
            for attr in names:
                original = vars(home)[attr]
                replacement = self.wrap(original, f"{layer}:{attr}")
                for module in list(sys.modules.values()):
                    if module is None or not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for bound_name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, bound_name, replacement)
        return self

    def uninstall(self) -> None:
        """Put every original attribute back (identity-preserving)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._registries.clear()

    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` of everything wrapped now."""
        return list(self._patches)

    # ------------------------------------------------------------------
    # One traced pass
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Open the root span (one pass, as the bench itself times it)."""
        self._stack[:] = [0.0]
        self._t_begin = time.perf_counter()

    def end(self) -> None:
        """Close the root span; its self time is what no layer claimed.
        Passes accumulate: ``wall_s`` and every slot sum over them."""
        if self._t_begin is None:
            raise RuntimeError("Tracer.end() without begin()")
        wall = time.perf_counter() - self._t_begin
        self.wall_s += wall
        self.root_self_s += wall - self._stack[0]
        self.passes += 1
        self._t_begin = None

    # ------------------------------------------------------------------
    # Reading the result
    # ------------------------------------------------------------------

    def count(self, *names: str) -> int:
        """Total span count over the given span names."""
        return int(sum(self.spans[name][0] for name in names if name in self.spans))

    def total_s(self, *names: str) -> float:
        """Inclusive seconds over the given span names."""
        return sum(self.spans[name][1] for name in names if name in self.spans)

    def self_s(self, *names: str) -> float:
        """Self seconds over the given span names."""
        return sum(self.spans[name][2] for name in names if name in self.spans)

    def layer_self(self) -> Dict[str, float]:
        """layer -> self seconds (sum over the layer's span names)."""
        layers: Dict[str, float] = {}
        for name, (_count, _total, self_s) in self.spans.items():
            layer = name.split(":", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def span_table(self) -> Dict[str, Dict[str, float]]:
        """Every span name with its count and times, for the record."""
        return {
            name: {"count": int(count), "total_s": total, "self_s": self_s}
            for name, (count, total, self_s) in sorted(self.spans.items())
            if count
        }


_probe = Tracer()
_TRACED_CODES.update(
    closure.__code__ for closure in (_probe.wrap(lambda: None, "probe"), _probe._wrap_action(lambda: None))
)
del _probe
