"""Queries, allocation records and results.

A query ``q`` in the paper is an independent computational task issued
by a consumer ``q.c`` that requires ``q.n`` results (BOINC replicates
tasks to defend against malicious volunteers).  The mediator allocates
``q`` to up to ``min(q.n, kn)`` providers; the set of providers that
actually performed it is written ``P̂_q`` and drives the consumer's
per-query satisfaction (Equation 1).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.consumer import Consumer
    from repro.system.provider import Provider

_query_counter = itertools.count()


def reset_query_counter() -> None:
    """Reset the global query-id counter (test isolation only)."""
    global _query_counter
    _query_counter = itertools.count()


class QueryStatus(enum.Enum):
    """Lifecycle of a query through the mediation pipeline."""

    ISSUED = "issued"          # created by the consumer, travelling to the mediator
    ALLOCATED = "allocated"    # mediator chose >= 1 provider
    FAILED = "failed"          # no provider could be allocated
    COMPLETED = "completed"    # all allocated providers returned results
    TIMED_OUT = "timed-out"    # results never arrived (crash extension)


@dataclass
class Query:
    """An independent computational task.

    Attributes
    ----------
    consumer:
        The issuing consumer (``q.c`` in the paper).
    topic:
        Capability tag; providers declare which topics they can serve.
        In the BOINC scenario the topic is the project name.
    service_demand:
        Work units required; a provider with ``capacity`` work units
        per second serves it in ``service_demand / capacity`` seconds.
    n_results:
        ``q.n``, the number of results (replicas) the consumer requires.
    issued_at:
        Simulation time at which the consumer issued the query.
    """

    consumer: "Consumer"
    topic: str
    service_demand: float
    n_results: int
    issued_at: float
    #: How many of the replicas must return before the query counts as
    #: answered.  ``None`` (the default, the paper's behaviour) means
    #: all allocated providers must answer; a smaller quorum is BOINC's
    #: defence against crashed or slow volunteers -- issue ``n``
    #: replicas, accept the first ``quorum`` results.
    quorum: Optional[int] = None
    qid: int = field(default_factory=lambda: next(_query_counter))
    status: QueryStatus = QueryStatus.ISSUED

    def __post_init__(self) -> None:
        if self.service_demand <= 0:
            raise ValueError(f"service_demand must be positive, got {self.service_demand}")
        if self.n_results < 1:
            raise ValueError(f"n_results must be >= 1, got {self.n_results}")
        if self.quorum is not None and not 1 <= self.quorum <= self.n_results:
            raise ValueError(
                f"quorum must satisfy 1 <= quorum <= n_results, got "
                f"quorum={self.quorum}, n_results={self.n_results}"
            )

    @property
    def consumer_id(self) -> str:
        """Identifier of the issuing consumer."""
        return self.consumer.participant_id

    def __hash__(self) -> int:
        return hash(self.qid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self.qid == other.qid

    def __repr__(self) -> str:
        return (
            f"Query(qid={self.qid}, consumer={self.consumer_id!r}, topic={self.topic!r}, "
            f"demand={self.service_demand:.3g}, n={self.n_results}, {self.status.value})"
        )


@dataclass(frozen=True)
class QueryResult:
    """One result returned by one provider for one query."""

    query: Query
    provider_id: str
    started_at: float
    finished_at: float

    @property
    def service_span(self) -> float:
        """Wall-clock the provider spent on the query (queueing excluded)."""
        return self.finished_at - self.started_at


@dataclass(repr=False)
class AllocationRecord:
    """Everything the mediator decided about one query.

    This is the unit of bookkeeping used by the satisfaction model: it
    remembers which providers were *informed* (proposed the query --
    they enter the provider-side window of Definition 2) and which were
    *allocated* (they perform it), plus the intentions both sides
    expressed and the scores/omega the policy used, when applicable.

    Lifecycle: the mediator builds the record, commits it, and hands it
    to :meth:`Mediator._store <repro.core.mediator.Mediator._store>`,
    which reports it to the metrics hub.  The query is then in flight
    until its results arrive, and delivery, completion and the hub read
    only ``query``, ``allocated``, ``adequation``,
    ``consultation_delay``, ``results`` and ``completed_at``.  The rest
    -- the *decision state* named in ``_DECISION_STATE`` -- is for the
    analysis of kept records: a mediator built with
    ``keep_records=False`` drops it at ``_store``
    (:meth:`drop_decision_state`), so a run's in-flight queries do not
    hold ``Kn`` intentions, scores and omegas each.  Reading a dropped
    field raises an :class:`AttributeError` that names
    ``keep_records``; a kept record is never touched.
    """

    #: Fields only the analysis of a kept record reads, and the views
    #: built on them.  Subclasses that hold the decision in other forms
    #: (snapshot rows) extend it.
    _DECISION_STATE = (
        "informed",
        "informed_ids",
        "consumer_intentions",
        "provider_intentions",
        "scores",
        "omegas",
    )

    query: Query
    decided_at: float
    allocated: List["Provider"] = field(default_factory=list)
    informed: List["Provider"] = field(default_factory=list)
    consumer_intentions: Dict[str, float] = field(default_factory=dict)
    provider_intentions: Dict[str, float] = field(default_factory=dict)
    scores: Dict[str, float] = field(default_factory=dict)
    omegas: Dict[str, float] = field(default_factory=dict)
    adequation: Optional[float] = None
    consultation_delay: float = 0.0
    results: List[QueryResult] = field(default_factory=list)
    completed_at: Optional[float] = None

    def drop_decision_state(self) -> None:
        """Release the decision state (see the class docstring)."""
        state = self.__dict__
        for name in self._DECISION_STATE:
            state.pop(name, None)

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: after
        # drop_decision_state, a read of a dropped field -- or of a view
        # built on one -- says why it is gone instead of reading empty.
        if name in self._DECISION_STATE:
            raise AttributeError(
                f"{type(self).__name__}.{name} was dropped when the record was "
                "stored: a mediator keeps a record's decision state only with "
                "keep_records=True"
            )
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __repr__(self) -> str:
        # Delivery fields only: the decision state may be dropped, and a
        # rows record would materialise its maps to print them.
        return (
            f"{type(self).__name__}(qid={self.query.qid}, allocated={self.allocated_ids}, "
            f"adequation={self.adequation}, completed_at={self.completed_at})"
        )

    @property
    def allocated_ids(self) -> List[str]:
        """Identifiers of providers performing the query."""
        return [p.participant_id for p in self.allocated]

    @property
    def informed_ids(self) -> List[str]:
        """Identifiers of providers the mediation touched (the Kn set for SbQA)."""
        return [p.participant_id for p in self.informed]

    @property
    def is_failure(self) -> bool:
        """True when the mediator could not allocate the query at all."""
        return not self.allocated

    @property
    def response_time(self) -> Optional[float]:
        """Issue-to-last-result latency, or None while incomplete/failed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.query.issued_at

    @property
    def results_required(self) -> int:
        """Results needed for completion: the query's quorum, bounded by
        how many providers were actually allocated (all of them when no
        quorum is set -- the paper's behaviour)."""
        if not self.allocated:
            return 0
        if self.query.quorum is None:
            return len(self.allocated)
        return min(self.query.quorum, len(self.allocated))

    def record_result(self, result: QueryResult) -> bool:
        """Register one provider result.

        Returns True when this result completes the query (the required
        number of providers have answered), which is the instant the
        paper's response time is measured at.
        """
        if result.query.qid != self.query.qid:
            raise ValueError(
                f"result for query {result.query.qid} recorded on record of "
                f"query {self.query.qid}"
            )
        self.results.append(result)
        if len(self.results) >= self.results_required and self.completed_at is None:
            self.completed_at = result.finished_at
            self.query.status = QueryStatus.COMPLETED
            return True
        return False
