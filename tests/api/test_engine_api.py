"""The engine knob across the API layers (spec / builder / sessions).

The engine selects *how* a spec executes, never *what* it produces, so
it behaves like ``SweepResult.parallel``: settable everywhere, honored
by every execution path, and absent from every serialized digest.
"""

import json

import pytest

from repro.api.builder import Experiment
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.api.sweep import SweepSession, SweepSpec
from repro.experiments.config import PolicySpec


def tiny_spec(engine="fast", **kwargs):
    return (
        Experiment.builder()
        .named("engine-api")
        .seed(7)
        .duration(kwargs.pop("duration", 120.0))
        .providers(12)
        .policy("sbqa", kn=3, k=6)
        .engine(engine)
        .build()
    )


class TestSpecEngineField:
    def test_default_and_builder(self):
        assert ExperimentSpec().engine == "fast"
        assert tiny_spec("event").engine == "event"
        assert tiny_spec("event").to_config().engine == "event"

    def test_invalid_engine_rejected_at_build(self):
        with pytest.raises(ValueError, match="unknown engine"):
            tiny_spec("warp")

    def test_to_dict_omits_engine(self):
        """Execution metadata stays out of the serialized form, so the
        digests of both engines can be byte-compared."""
        for engine in ("fast", "event"):
            data = tiny_spec(engine).to_dict()
            assert "engine" not in data

    def test_from_dict_accepts_engine(self):
        data = tiny_spec().to_dict()
        data["engine"] = "event"
        assert ExperimentSpec.from_dict(data).engine == "event"

    def test_derive_preserves_engine(self):
        spec = tiny_spec("event")
        derived = spec.derive({"duration": 60.0})
        assert derived.engine == "event"
        assert derived.duration == 60.0
        # ... unless the override moves it (the CLI's --engine).
        assert spec.derive({"engine": "fast"}).engine == "fast"

    def test_sweep_points_inherit_base_engine(self):
        sweep = SweepSpec(
            name="engine-sweep",
            base=tiny_spec("event"),
            axes=({"path": "sbqa.kn", "values": [2, 3]},),
        )
        assert all(p.spec.engine == "event" for p in sweep.points())


class TestExecutionParity:
    """Engine-independent digests through the session layers."""

    def test_session_digest_engine_independent(self):
        fast = Session(tiny_spec("fast")).run(keep_runs=False).to_json()
        event = Session(tiny_spec("event")).run(keep_runs=False).to_json()
        assert fast == event

    def test_parallel_workers_honor_the_engine(self):
        """Parallel events run the session's engine even though the
        shipped spec dict omits it by default (explicit injection)."""
        spec = tiny_spec("event")
        serial = Session(spec).run(keep_runs=False).to_dict()
        parallel = Session(spec).run(parallel=True, max_workers=2).to_dict()
        serial.pop("parallel")
        parallel.pop("parallel")
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_sweep_digest_engine_independent(self):
        def sweep_for(engine):
            return SweepSpec(
                name="engine-sweep",
                base=tiny_spec(engine, duration=90.0),
                axes=({"path": "sbqa.kn", "values": [2, 4]},),
            )

        fast = SweepSession(sweep_for("fast")).run().to_json()
        event = SweepSession(sweep_for("event")).run().to_json()
        assert fast == event


class TestSweepKeepRecordsDefault:
    """Satellite: grid runs stop retaining AllocationRecords unless the
    RunResults themselves are kept -- one rule in the task runner, so
    every session and the worker entry obey it alike."""

    def _sweep(self, keep_runs):
        base = (
            Experiment.builder()
            .named("records")
            .seed(3)
            .duration(60.0)
            .providers(10)
            .policy("sbqa", kn=2, k=4)
            .keep_records()  # old default behaviour, explicit
            .build()
        )
        return SweepSpec(
            name="records",
            base=base,
            axes=({"path": "sbqa.kn", "values": [2, 3]},),
            keep_runs=keep_runs,
        )

    @pytest.mark.parametrize("caller", ["session", "sweep", "tune", "worker"])
    def test_records_dropped_without_keep_runs(self, monkeypatch, caller):
        from repro.api import session as session_module
        from repro.api.tune import TuneSession, TuneSpec

        seen_keep_records = []
        original = session_module.run_once

        def spy(config, policy, replication=0):
            seen_keep_records.append(config.keep_records)
            return original(config, policy, replication=replication)

        monkeypatch.setattr(session_module, "run_once", spy)
        sweep = self._sweep(keep_runs=False)
        run = {
            "session": lambda: Session(sweep.base).run(keep_runs=False),
            "sweep": lambda: SweepSession(sweep).run(),
            "tune": lambda: TuneSession(TuneSpec(sweep=sweep)).run(),
            "worker": lambda: session_module._execute_task((0, sweep.base, 0, 0)),
        }[caller]
        run()
        assert seen_keep_records and not any(seen_keep_records)

    def test_kept_session_run_keeps_its_records(self):
        result = Session(self._sweep(keep_runs=False).base).run()
        run = result.policies[0].runs[0]
        assert run.mediator.keep_records
        assert run.mediator.records  # AllocationRecords retained

    def test_keep_runs_keeps_the_old_behaviour(self):
        result = SweepSession(self._sweep(keep_runs=True)).run(keep_runs=True)
        run = result.points[0].policies[0].runs[0]
        assert run.mediator.keep_records
        assert run.mediator.records  # AllocationRecords retained

    def test_digest_independent_of_keep_records(self):
        """Dropping record retention must not change any result."""
        with_records = SweepSession(self._sweep(keep_runs=True)).run(
            keep_runs=True
        )
        without = SweepSession(self._sweep(keep_runs=False)).run()
        # keep_runs flag lives in the spec -> normalise it before diffing.
        a = with_records.to_dict()
        b = without.to_dict()
        a["sweep"]["keep_runs"] = b["sweep"]["keep_runs"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
