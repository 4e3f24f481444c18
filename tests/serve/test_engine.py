"""ServeEngine: open-loop ingestion, drop accounting, replay parity."""

import pytest

from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.serve.admission import (
    REASON_PAST_HORIZON,
    REASON_QUEUE_FULL,
    REASON_RATE_LIMITED,
    REASON_SHED_OLDEST,
    REASON_UNKNOWN_CONSUMER,
    AdmissionConfig,
)
from repro.serve.engine import ServeEngine
from repro.workloads.boinc import BoincScenarioParams
from repro.workloads.traces import record_trace

TINY = ExperimentConfig(
    name="serve-tiny",
    seed=42,
    duration=150.0,
    population=BoincScenarioParams(n_providers=15),
)

SBQA = PolicySpec(name="sbqa")


def make_engine(**admission_kwargs):
    admission = AdmissionConfig(**admission_kwargs) if admission_kwargs else None
    return ServeEngine(TINY, SBQA, admission=admission)


class TestSubmit:
    def test_submit_and_serve(self):
        engine = make_engine()
        for t in (1.0, 2.0, 3.0):
            accepted, reason = engine.submit("seti", at=t)
            assert accepted and reason is None
        engine.advance_to(50.0)
        snap = engine.metrics_snapshot()
        assert snap["queries"]["issued"] == 3
        assert snap["admission"]["admitted"] == 3
        assert snap["admission"]["dropped"] == 0
        assert snap["sim_time"] == pytest.approx(50.0)

    def test_unknown_consumer(self):
        engine = make_engine()
        accepted, reason = engine.submit("martians")
        assert not accepted
        assert reason == REASON_UNKNOWN_CONSUMER
        assert engine.admission.stats.by_reason == {REASON_UNKNOWN_CONSUMER: 1}

    def test_past_horizon(self):
        engine = make_engine()
        accepted, reason = engine.submit("seti", at=TINY.duration + 1.0)
        assert not accepted
        assert reason == REASON_PAST_HORIZON

    def test_defaults_resolve(self):
        engine = make_engine()
        accepted, _ = engine.submit("seti")  # demand/topic/time defaulted
        assert accepted
        assert engine.backlog == 1
        engine.advance_to(10.0)
        assert engine.backlog == 0


class TestOverload:
    def test_drop_newest_above_capacity(self):
        engine = make_engine(queue_capacity=3)
        results = [engine.submit("seti", at=0.0) for _ in range(8)]
        assert [a for a, _ in results] == [True] * 3 + [False] * 5
        assert engine.admission.stats.by_reason == {REASON_QUEUE_FULL: 5}
        assert engine.backlog == 3
        engine.advance_to(TINY.duration)
        assert engine.metrics_snapshot()["queries"]["issued"] == 3

    def test_below_capacity_no_drops(self):
        engine = make_engine(queue_capacity=100)
        for t in range(10):
            assert engine.submit("seti", at=float(t))[0]
        engine.advance_to(TINY.duration)
        snap = engine.metrics_snapshot()["admission"]
        assert snap["dropped"] == 0
        assert snap["admitted"] == 10

    def test_drop_oldest_evicts_and_admits(self):
        engine = make_engine(queue_capacity=3, shed_policy="drop-oldest")
        results = [engine.submit("seti", at=0.0) for _ in range(8)]
        # every submission is admitted; the 5 overflow each evict the
        # longest-waiting pending query
        assert all(a for a, _ in results)
        stats = engine.admission.stats
        assert stats.by_reason == {REASON_SHED_OLDEST: 5}
        assert engine.backlog == 3
        engine.advance_to(TINY.duration)
        assert engine.metrics_snapshot()["queries"]["issued"] == 3

    def test_drop_oldest_across_consumers(self):
        engine = make_engine(queue_capacity=2, shed_policy="drop-oldest")
        engine.submit("seti", at=0.0)
        engine.submit("proteins", at=0.0)
        engine.submit("einstein", at=0.0)  # evicts seti's (oldest)
        assert engine.admission.stats.by_consumer == {"seti": 1}
        engine.advance_to(TINY.duration)
        issued = {c.consumer_id: c.issued for c in engine.summary_now().consumers}
        assert issued["seti"] == 0
        assert issued["proteins"] == 1
        assert issued["einstein"] == 1

    def test_rate_limit(self):
        engine = make_engine(rate_limit=1.0, burst=2.0)
        verdicts = [engine.submit("seti", at=0.0)[0] for _ in range(5)]
        assert verdicts == [True, True, False, False, False]
        assert engine.admission.stats.by_reason == {REASON_RATE_LIMITED: 3}
        # simulation time mints new tokens
        assert engine.submit("seti", at=3.0)[0]


class TestAdvance:
    def test_advance_is_monotonic_noop_backwards(self):
        engine = make_engine()
        engine.advance_to(20.0)
        engine.advance_to(5.0)  # must not raise, must not rewind
        assert engine.now == pytest.approx(20.0)

    def test_advance_wall_applies_speed(self):
        engine = make_engine()
        engine.advance_wall(2.0, speed=10.0)
        assert engine.now == pytest.approx(20.0)

    def test_finished_at_horizon(self):
        engine = make_engine()
        assert not engine.finished
        engine.advance_to(TINY.duration)
        assert engine.finished

    def test_horizon_boundary_is_closed(self):
        engine = make_engine()
        engine.advance_to(TINY.duration)
        # exactly at the horizon is still in-window...
        accepted, _ = engine.submit("seti")
        assert accepted
        # ...but one instant past it is not
        accepted, reason = engine.submit("seti", at=TINY.duration + 1e-9)
        assert not accepted
        assert reason == REASON_PAST_HORIZON


class TestSnapshots:
    def test_metrics_snapshot_shape(self):
        engine = make_engine()
        engine.submit("seti", at=1.0)
        engine.advance_to(30.0)
        snap = engine.metrics_snapshot()
        assert snap["policy"] == "sbqa"
        assert snap["horizon"] == TINY.duration
        assert set(snap["queries"]) == {"issued", "completed", "failed", "timed_out"}
        assert set(snap["latency"]) == {"ingress_delay", "response_time"}
        for key in ("submitted", "admitted", "dropped", "by_reason", "by_consumer"):
            assert key in snap["admission"]
        assert snap["population"]["consumers_online"] == 3
        import json

        json.dumps(snap)  # must be JSON-serializable as-is

    def test_response_time_quantiles_populated(self):
        engine = make_engine()
        for t in range(20):
            engine.submit("seti", at=float(t))
        engine.advance_to(TINY.duration)
        latency = engine.metrics_snapshot()["latency"]
        assert latency["response_time"]["count"] == 20
        assert latency["response_time"]["p50"] > 0
        # ingestion at the arrival instant: no ingress delay
        assert latency["ingress_delay"]["max"] == pytest.approx(0.0)

    def test_final_payload_matches_summary_digest(self):
        from repro.metrics.summary import summary_digest

        engine = make_engine()
        engine.submit("seti", at=1.0)
        engine.advance_to(TINY.duration)
        payload = engine.final_payload()
        assert payload["digest"] == summary_digest(engine.summary_now())
        assert payload["admission"]["admitted"] == 1


class TestReplayParity:
    def test_serve_replay_reproduces_batch_digest(self):
        trace, batch = record_trace(TINY, SBQA)
        served = ServeEngine(TINY, SBQA).replay(trace)
        assert served.digest() == batch.digest()

    def test_stepped_ingestion_reproduces_batch_digest(self):
        trace, batch = record_trace(TINY, SBQA)
        arrivals = trace.materialize()
        engine = ServeEngine(TINY, SBQA)
        index = 0
        target = 0.0
        while target < TINY.duration:
            target = min(target + 7.0, TINY.duration)
            while index < len(arrivals) and arrivals[index].time <= target:
                a = arrivals[index]
                engine.submit(
                    a.consumer_id,
                    service_demand=a.service_demand,
                    topic=a.topic,
                    n_results=a.n_results,
                    quorum=a.quorum,
                    at=a.time,
                )
                index += 1
            engine.advance_to(target)
        assert engine.final_payload()["digest"] == batch.digest()

    def test_replay_digest_backend_invariant(self, monkeypatch):
        """replay() through the fused SoA kernel (the default) and
        through the scalar oracle path, digest-identical: the serve
        path inherits the engine-level fused == scalar contract."""
        import repro.core.engine as engine

        trace, _ = record_trace(TINY, SBQA)
        monkeypatch.setattr(engine, "_FUSED_KERNEL", False)
        scalar = ServeEngine(TINY, SBQA).replay(trace).digest()
        monkeypatch.setattr(engine, "_FUSED_KERNEL", True)
        fused = ServeEngine(TINY, SBQA).replay(trace).digest()
        assert scalar == fused

    def test_replay_refuses_admission_drops(self):
        trace, _ = record_trace(TINY, SBQA)
        engine = ServeEngine(
            TINY, SBQA, admission=AdmissionConfig(queue_capacity=1)
        )
        with pytest.raises(RuntimeError, match="dropped"):
            engine.replay(trace)
