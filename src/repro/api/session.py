"""The :class:`Session` runtime: executing an :class:`ExperimentSpec`.

A session turns a declarative spec into results:

* :meth:`Session.run` executes all ``policies x replications`` runs,
  serially or across worker processes
  (:class:`~concurrent.futures.ProcessPoolExecutor`).  Replication
  seeding is deterministic -- replication ``i`` derives its random root
  from ``(spec.seed, i)`` regardless of which process executes it or in
  which order futures complete -- so parallel aggregates are
  bit-identical to serial ones.
* :meth:`Session.stream` is the same execution surfaced incrementally:
  an iterator of :class:`SessionTaskEvent`\\ s, one per completed
  replication, whose final :meth:`SessionStream.result` aggregate is
  byte-identical to :meth:`Session.run` -- the session-level analogue
  of :meth:`repro.api.sweep.SweepSession.stream`.
* :meth:`Session.start` wires a single run and returns the
  :class:`~repro.experiments.runner.LiveRun` for incremental
  ``step_until(t)`` execution with live inspection of the mediator and
  metrics hub.

Underneath all three sessions (this one, :class:`~repro.api.sweep.SweepSession`
and :class:`~repro.api.tune.TuneSession`) is one task runner,
:func:`run_tasks`: it executes ``(key, spec, policy, replication)``
tasks serially or on an executor and decides, in one place, what an
unkept run retains.  Workers receive the spec itself: it is plain data
and pickles, engine included.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.api.results import ExperimentResult, PolicyResult
from repro.api.spec import ExperimentSpec
from repro.des.tracing import NULL_RECORDER, TraceRecorder
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import LiveRun, RunResult, run_once, wire_run
from repro.metrics.summary import RunSummary


#: One run to execute: ``(key, spec, policy_index, replication)``.  The
#: key is the caller's (a sweep point index, or ``None``) and is handed
#: back untouched, so one pool can interleave the tasks of many specs.
Task = Tuple[Hashable, ExperimentSpec, int, int]


def _task_config(spec: ExperimentSpec, keep_runs: bool) -> ExperimentConfig:
    """The config one task runs: the spec's, with ``keep_records`` off
    unless the run itself is kept.

    An unkept run is summarised and dropped, so retaining each of its
    AllocationRecords would only inflate peak memory (and would refuse
    ``run_parallel``'s shard-parallel path).
    """
    config = spec.to_config()
    if config.keep_records and not keep_runs:
        config = replace(config, keep_records=False)
    return config


def _execute_task(task: Task) -> Tuple[Hashable, int, int, RunSummary]:
    """Worker entry: one unkept task.

    Module-level so it pickles; returns the summary only (live
    simulation objects stay in the worker).
    """
    ((key, policy_index, replication, summary, _),) = run_tasks([task])
    return key, policy_index, replication, summary


def run_tasks(
    tasks: Sequence[Task],
    keep_runs: bool = False,
    executor: Optional[Executor] = None,
) -> Iterator[Tuple[Hashable, int, int, RunSummary, Optional[RunResult]]]:
    """Execute tasks; yield ``(key, policy_index, replication, summary, run)``.

    With no ``executor`` the tasks run here, in task order, and ``run``
    is the full :class:`RunResult` when ``keep_runs`` (else None).  On
    an executor they yield in completion order with ``run`` None: full
    runs stay in the workers.  Either way every task is deterministic
    in ``(spec, policy, replication)``, so callers collect by key.
    Closing the iterator cancels the tasks that have not started;
    started ones still finish.
    """
    if executor is None:
        for key, spec, policy_index, replication in tasks:
            result = run_once(
                _task_config(spec, keep_runs),
                spec.policies[policy_index],
                replication=replication,
            )
            yield key, policy_index, replication, result.summary, (
                result if keep_runs else None
            )
        return
    futures = [executor.submit(_execute_task, task) for task in tasks]
    try:
        for future in as_completed(futures):
            yield (*future.result(), None)
    finally:
        for future in futures:
            future.cancel()


def resolve_worker_count(max_workers: Optional[int], task_count: int) -> int:
    """Effective pool size: CPU count by default, capped at the tasks."""
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    return max(1, min(max_workers, task_count))


def _pool(parallel: bool, max_workers: Optional[int], task_count: int):
    """A process pool for ``task_count`` tasks when ``parallel``, else
    a context that yields None (serial execution)."""
    if not parallel:
        return nullcontext()
    return ProcessPoolExecutor(
        max_workers=resolve_worker_count(max_workers, task_count)
    )


@dataclass
class SessionTaskEvent:
    """One completed replication, as surfaced by :meth:`Session.stream`.

    ``policy_result`` is set on exactly the event that completes its
    policy (all of the policy's replications collected) -- the moment
    the policy's ``mean +- stdev`` row can be rendered.
    """

    policy: PolicySpec
    replication: int
    summary: RunSummary
    completed: int
    total: int
    policy_result: Optional[PolicyResult] = None


class SessionStream:
    """Iterator over session task completions; aggregates at the end.

    Iterating yields :class:`SessionTaskEvent`\\ s as replications
    finish (serial: task order; parallel: completion order).
    :meth:`result` drains whatever has not been consumed and returns
    the :class:`ExperimentResult`, which is identical whether and how
    the stream was consumed -- and byte-identical to
    :meth:`Session.run` with the same ``parallel`` flag.  With
    ``keep_runs`` (serial only) the result also holds every full run.
    """

    def __init__(
        self,
        session: "Session",
        parallel: bool = False,
        max_workers: Optional[int] = None,
        shard_workers: Optional[int] = None,
        keep_runs: bool = False,
    ) -> None:
        self._session = session
        self._parallel = parallel
        self._total = len(session)
        self._events = session._events(
            parallel, max_workers, shard_workers, keep_runs
        )
        self._summaries: Dict[Tuple[int, int], RunSummary] = {}
        self._kept: Dict[Tuple[int, int], RunResult] = {}
        self._outstanding: Dict[int, int] = {
            policy_index: session.spec.replications
            for policy_index in range(len(session.spec.policies))
        }
        self._result: Optional[ExperimentResult] = None

    def __iter__(self) -> "SessionStream":
        return self

    def __next__(self) -> SessionTaskEvent:
        _, policy_index, replication, summary, run = next(self._events)
        self._summaries[(policy_index, replication)] = summary
        if run is not None:
            self._kept[(policy_index, replication)] = run
        self._outstanding[policy_index] -= 1
        policy = self._session.spec.policies[policy_index]
        policy_result = None
        if self._outstanding[policy_index] == 0:
            policy_result = PolicyResult(
                policy=policy,
                summaries=[
                    self._summaries[(policy_index, replication)]
                    for replication in range(self._session.spec.replications)
                ],
            )
        return SessionTaskEvent(
            policy=policy,
            replication=replication,
            summary=summary,
            completed=len(self._summaries),
            total=self._total,
            policy_result=policy_result,
        )

    def result(self) -> ExperimentResult:
        """Drain any unconsumed tasks and aggregate the experiment."""
        if self._result is None:
            for _ in self:
                pass
            self._result = self._session._build_result(
                self._summaries, self._kept, self._parallel
            )
        return self._result


class Session:
    """Executes one :class:`ExperimentSpec`.

    A session is cheap to construct; the expensive part is :meth:`run`.
    Results never depend on earlier calls.  The only thing a session
    remembers is :attr:`shard_reports`: for runs executed with
    ``shard_workers``, the last
    :class:`~repro.federation.parallel.ParallelRunReport` per
    ``(policy_index, replication)`` with its ``result`` dropped -- how
    the run was placed and whether it fell back to serial.  Execution
    metadata like ``engine``: never part of ``to_dict()`` or a digest.
    """

    def __init__(self, spec: ExperimentSpec) -> None:
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                f"Session needs an ExperimentSpec, got {type(spec).__name__} "
                "(build one with Experiment.builder() or ExperimentSpec.load)"
            )
        self.spec = spec
        self.shard_reports: Dict[Tuple[int, int], "ParallelRunReport"] = {}

    # ------------------------------------------------------------------
    # Task enumeration
    # ------------------------------------------------------------------

    def tasks(self) -> Iterator[Tuple[int, int]]:
        """Every (policy_index, replication) pair, deterministic order."""
        for policy_index in range(len(self.spec.policies)):
            for replication in range(self.spec.replications):
                yield policy_index, replication

    def __len__(self) -> int:
        """Total number of runs the session will execute."""
        return len(self.spec.policies) * self.spec.replications

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        keep_runs: Optional[bool] = None,
        shard_workers: Optional[int] = None,
    ) -> ExperimentResult:
        """Execute all policies x replications; aggregate the outcome.

        Parameters
        ----------
        parallel:
            Fan replications out over a process pool.  Results are
            bit-identical to serial execution (deterministic seeding,
            deterministic collection order); only wall-clock changes.
        max_workers:
            Process count, parallel mode only (default: CPU count,
            capped at the task count).
        keep_runs:
            Retain full :class:`RunResult` objects on the result for
            deep inspection.  Defaults to True when serial, and is
            unavailable (forced False) in parallel mode, where runs
            execute in worker processes.
        shard_workers:
            Execute each run's federation shards across worker
            processes (slice-parallel execution; see
            :func:`repro.federation.parallel.run_parallel`).  Digests
            are bit-identical to single-process execution; runs fall
            back to serial when the config is ineligible.  Mutually
            exclusive with ``parallel`` (which parallelizes across
            replications instead of within one run).
        """
        if shard_workers is not None and parallel:
            raise ValueError(
                "parallel and shard_workers are mutually exclusive: "
                "parallel fans replications over a pool, shard_workers "
                "parallelizes shards within each run"
            )
        if keep_runs is None:
            keep_runs = not parallel and shard_workers is None
        if parallel and keep_runs:
            raise ValueError(
                "keep_runs is unavailable in parallel mode: full runs "
                "(simulator, hub, population) live in the worker processes"
            )
        if shard_workers is not None and keep_runs:
            raise ValueError(
                "keep_runs is unavailable with shard_workers: merged "
                "runs carry summary-grade state, not live simulators"
            )
        return SessionStream(
            self,
            parallel=parallel,
            max_workers=max_workers,
            shard_workers=shard_workers,
            keep_runs=keep_runs,
        ).result()

    def stream(
        self,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        shard_workers: Optional[int] = None,
    ) -> SessionStream:
        """Execute the session, yielding each completed replication.

        Returns a :class:`SessionStream`; iterate it for incremental
        :class:`SessionTaskEvent`\\ s (``event.policy_result`` marks
        policy completions) and call ``.result()`` for the final
        :class:`ExperimentResult` -- byte-identical to :meth:`run`
        however much of the stream was consumed.
        """
        return SessionStream(
            self,
            parallel=parallel,
            max_workers=max_workers,
            shard_workers=shard_workers,
        )

    def _build_result(
        self,
        summaries: Dict[Tuple[int, int], RunSummary],
        kept: Dict[Tuple[int, int], "RunResult"],
        parallel: bool,
    ) -> ExperimentResult:
        policies: List[PolicyResult] = []
        for policy_index, policy in enumerate(self.spec.policies):
            policy_summaries = [
                summaries[(policy_index, replication)]
                for replication in range(self.spec.replications)
            ]
            policy_runs = [
                kept[(policy_index, replication)]
                for replication in range(self.spec.replications)
                if (policy_index, replication) in kept
            ]
            policies.append(
                PolicyResult(
                    policy=policy, summaries=policy_summaries, runs=policy_runs
                )
            )
        return ExperimentResult(spec=self.spec, policies=policies, parallel=parallel)

    def _events(
        self,
        parallel: bool,
        max_workers: Optional[int],
        shard_workers: Optional[int],
        keep_runs: bool,
    ) -> Iterator[Tuple[None, int, int, RunSummary, Optional[RunResult]]]:
        tasks = [
            (None, self.spec, policy_index, replication)
            for policy_index, replication in self.tasks()
        ]
        if shard_workers is None:
            with _pool(parallel, max_workers, len(tasks)) as executor:
                yield from run_tasks(tasks, keep_runs, executor)
            return
        from repro.federation.parallel import run_parallel

        config = _task_config(self.spec, False)
        for key, spec, policy_index, replication in tasks:
            report = run_parallel(
                config,
                spec.policies[policy_index],
                workers=shard_workers,
                replication=replication,
            )
            # Keep how the run executed, not the merged run itself.
            self.shard_reports[(policy_index, replication)] = replace(
                report, result=None
            )
            yield key, policy_index, replication, report.result.summary, None

    # ------------------------------------------------------------------
    # Incremental execution
    # ------------------------------------------------------------------

    def start(
        self,
        policy: Union[None, int, str] = None,
        replication: int = 0,
        trace: TraceRecorder = NULL_RECORDER,
    ) -> LiveRun:
        """Wire one run for incremental ``step_until(t)`` execution.

        ``policy`` selects by label, by index, or defaults to the
        spec's first policy.  The returned :class:`LiveRun` exposes the
        live ``mediator``, ``hub`` and ``registry`` between steps.
        """
        spec = self._resolve_policy(policy)
        return wire_run(
            self.spec.to_config(), spec, replication=replication, trace=trace
        )

    def _resolve_policy(self, policy: Union[None, int, str]) -> PolicySpec:
        if policy is None:
            return self.spec.policies[0]
        if isinstance(policy, int):
            return self.spec.policies[policy]
        return self.spec.policy(policy)
