"""Session execution: serial/parallel parity, live stepping, results."""

import json
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.api.builder import Experiment
from repro.api import session as session_module
from repro.api.session import Session, _execute_task, run_tasks
from repro.api.spec import ExperimentSpec
from repro.experiments.config import PolicySpec
from repro.experiments.runner import run_once

#: Small but non-trivial: two policies, two replications, churn on.
SPEC = (
    Experiment.builder()
    .named("session-test")
    .seed(11)
    .duration(200.0)
    .providers(16)
    .autonomous(warmup=25.0)
    .policy("sbqa", kn=4)
    .policy("capacity")
    .replications(2)
    .build()
)


class TestSerial:
    def test_shape(self):
        result = Session(SPEC).run()
        assert result.labels == ["sbqa", "capacity"]
        assert [p.replications for p in result.policies] == [2, 2]
        assert len(result.runs) == 4

    def test_matches_run_once(self):
        """The session is exactly the run_once grid, policy-major."""
        result = Session(SPEC).run()
        config = SPEC.to_config()
        for policy_index, policy in enumerate(SPEC.policies):
            for replication in range(SPEC.replications):
                expected = run_once(config, policy, replication=replication)
                got = result.policies[policy_index].summaries[replication]
                assert got.as_dict() == expected.summary.as_dict()

    def test_keep_runs_false_drops_run_objects(self):
        result = Session(SPEC).run(keep_runs=False)
        assert result.runs == []
        with pytest.raises(RuntimeError, match="keep_runs"):
            result.run("sbqa")


class TestParallel:
    def test_identical_to_serial(self):
        """The acceptance bar: parallel aggregates are bit-identical."""
        serial = Session(SPEC).run()
        parallel = Session(SPEC).run(parallel=True, max_workers=3)
        assert parallel.parallel and not serial.parallel
        for s_policy, p_policy in zip(serial.policies, parallel.policies):
            for s, p in zip(s_policy.summaries, p_policy.summaries):
                assert s.as_dict() == p.as_dict()
        assert serial.to_csv() == parallel.to_csv()

    def test_keep_runs_unavailable(self):
        with pytest.raises(ValueError, match="keep_runs"):
            Session(SPEC).run(parallel=True, keep_runs=True)

    def test_worker_task_is_self_contained(self):
        """The worker rebuilds the run from the pickled spec alone."""
        shipped = pickle.loads(pickle.dumps(SPEC))
        assert shipped == SPEC
        key, policy_index, replication, summary = _execute_task(("k", shipped, 1, 1))
        assert (key, policy_index, replication) == ("k", 1, 1)
        expected = run_once(SPEC.to_config(), SPEC.policies[1], replication=1)
        assert summary.as_dict() == expected.summary.as_dict()


class TestRunTasks:
    def test_closing_the_stream_cancels_unstarted_tasks(self, monkeypatch):
        """An abandoned stream does not run the rest of its tasks: the
        runner cancels every future that has not started."""
        ran = []
        release = threading.Event()

        def spy(config, policy, replication=0):
            ran.append(replication)
            if len(ran) > 1:
                # Hold the second task until the stream has been closed.
                release.wait(timeout=10.0)
            return SimpleNamespace(summary=replication)

        monkeypatch.setattr(session_module, "run_once", spy)
        tasks = [(None, SPEC, 0, replication) for replication in range(6)]
        with ThreadPoolExecutor(max_workers=1) as executor:
            stream = run_tasks(tasks, executor=executor)
            assert next(stream) == (None, 0, 0, 0, None)
            stream.close()
            release.set()
        assert 1 <= len(ran) <= 2 < len(tasks)


class TestLiveRun:
    def test_step_until_matches_one_shot(self):
        live = Session(SPEC).start(policy="sbqa")
        for t in (50.0, 125.0):
            live.step_until(t)
            assert live.now == t
            assert not live.finished
        stepped = live.finalize()
        one_shot = run_once(SPEC.to_config(), SPEC.policies[0])
        assert stepped.summary.as_dict() == one_shot.summary.as_dict()

    def test_live_inspection_surfaces_state(self):
        live = Session(SPEC).start()
        live.step_until(100.0)
        assert live.mediator.mediations > 0
        assert live.hub.queries_completed > 0
        assert len(live.registry.providers) == 16

    def test_policy_selection(self):
        assert Session(SPEC).start(policy=1).label == "capacity"
        assert Session(SPEC).start(policy="capacity").label == "capacity"
        assert Session(SPEC).start().label == "sbqa"

    def test_step_after_finalize_rejected(self):
        live = Session(SPEC).start()
        live.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            live.step_until(50.0)


class TestExperimentResult:
    @pytest.fixture(scope="class")
    def result(self):
        return Session(SPEC).run()

    def test_comparison_table(self, result):
        table = result.comparison_table()
        assert "sbqa" in table and "capacity" in table
        assert "±" in table  # replicated cells show spread

    def test_policy_lookup_and_best(self, result):
        assert result.policy("sbqa").label == "sbqa"
        with pytest.raises(KeyError):
            result.policy("nope")
        best = result.best("mean_rt", minimize=True)
        assert best["mean_rt"] == min(p["mean_rt"] for p in result.policies)

    def test_csv_export(self, result, tmp_path):
        path = tmp_path / "out.csv"
        text = result.to_csv(path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 4  # header + policies x replications
        assert lines[0].startswith("experiment,policy,replication")

    def test_json_export(self, result, tmp_path):
        path = tmp_path / "out.json"
        result.to_json(path)
        digest = json.loads(path.read_text())
        assert digest["spec"]["name"] == "session-test"
        assert [p["label"] for p in digest["policies"]] == ["sbqa", "capacity"]
        # The embedded spec is loadable again: results are reproducible.
        assert ExperimentSpec.from_dict(digest["spec"]) == SPEC


class TestSessionValidation:
    def test_needs_a_spec(self):
        with pytest.raises(TypeError, match="ExperimentSpec"):
            Session({"name": "nope"})

    def test_len_counts_tasks(self):
        assert len(Session(SPEC)) == 4


class TestStream:
    """Session.stream(): incremental results, aggregate identical to run()."""

    def test_serial_event_order_and_policy_completions(self):
        stream = Session(SPEC).stream()
        events = list(stream)
        assert len(events) == 4
        assert [e.completed for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)
        # serial streams follow task order: policy-major, replications inner
        assert [(e.policy.label, e.replication) for e in events] == [
            ("sbqa", 0), ("sbqa", 1), ("capacity", 0), ("capacity", 1),
        ]
        # the policy_result marker fires exactly when a policy completes
        completions = [e.policy_result.label for e in events if e.policy_result]
        assert completions == ["sbqa", "capacity"]
        assert events[1].policy_result is not None
        assert events[1].policy_result.replications == 2

    def test_events_match_run_once(self):
        config = SPEC.to_config()
        for event in Session(SPEC).stream():
            expected = run_once(
                config, event.policy, replication=event.replication
            )
            assert event.summary.as_dict() == expected.summary.as_dict()

    def test_serial_stream_aggregate_byte_identical_to_run(self):
        run_result = Session(SPEC).run(keep_runs=False)
        stream_result = Session(SPEC).stream().result()
        assert stream_result.to_json() == run_result.to_json()
        assert stream_result.to_csv() == run_result.to_csv()

    def test_parallel_stream_aggregate_byte_identical_to_run(self):
        run_result = Session(SPEC).run(parallel=True, max_workers=3)
        stream = Session(SPEC).stream(parallel=True, max_workers=3)
        seen = 0
        for event in stream:
            seen += 1
            assert event.total == 4
        assert seen == 4
        assert stream.result().to_json() == run_result.to_json()

    def test_result_without_consuming_drains(self):
        result = Session(SPEC).stream().result()
        assert result.labels == ["sbqa", "capacity"]
        assert result.runs == []  # streams never keep live runs
