"""The mediator: the component that allocates queries (Figure 1).

The mediator receives queries from consumers, asks its configured
:class:`~repro.core.policy.AllocationPolicy` for a decision, dispatches
the query to the allocated providers, and performs the *satisfaction
bookkeeping* that the model of Section II prescribes:

* every **informed** provider records one proposal ``(PI_q[p],
  performed?)`` in its Definition-2 window;
* the **consumer** records the Equation-1 per-query satisfaction over
  the providers that will perform the query, together with the
  adequation (best achievable) value used by the analysis layer;
* the metrics hub is notified of the mediation and, via the consumer's
  completion listener, of the completion.

Consultation cost is modelled: a policy with
``consults_participants=True`` pays one request/reply round-trip to the
consumer and to every consulted provider before the allocation can be
dispatched (the round-trips run in parallel, so the delay is the
maximum over the exchanged pairs), which is exactly why KnBest bounds
the consulted set to ``kn`` providers.

This is the one mediation pipeline of both engines.  An engine picks
two things only: whether the snapshot's
:class:`~repro.core.soa.ConsultColumns` exist (the fast engine's
:class:`~repro.core.engine.FastMediator` turns them on; without them
every query takes the scalar route and the objects commit), and how an
allocation is sent (:meth:`Mediator._dispatch_record`: one faithful
event per message here, collapsed on the fast engine).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.policy import AllocationContext, AllocationDecision, AllocationPolicy
from repro.core.satisfaction import adequation as compute_adequation
from repro.core.satisfaction import consumer_query_satisfaction
from repro.core.soa import ConsultColumns, LazyAllocationRecord
from repro.des.entity import Entity
from repro.des.network import Message, Network
from repro.des.scheduler import Simulator
from repro.des.tracing import NULL_RECORDER, TraceRecorder
from repro.system.query import AllocationRecord, Query, QueryStatus
from repro.system.registry import SystemRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.provider import Provider


class MediationObserver:
    """Protocol of the metrics hub the mediator reports to."""

    def record_mediation(self, record: AllocationRecord) -> None:  # pragma: no cover
        raise NotImplementedError


class Mediator(Entity):
    """Allocates queries using a pluggable policy.

    Three routes decide, counted in :attr:`route_counts`:

    * **fused** -- SbQA at a positive constant latency, with columns:
      :meth:`~repro.core.soa.ConsultColumns.decide` + lazy record +
      the engine's collapsed dispatch;
    * **columns** -- SbQA with columns at any other latency:
      ``select_fast``'s column route, one event per delivery;
    * **scalar** -- ``select_fast`` on the provider objects (every
      baseline; SbQA's object route), for the one reason this
      mediator tallies in :attr:`scalar_reasons`.

    Two commits, counted in :attr:`commit_counts`: **rows** --
    :meth:`~repro.core.soa.ConsultColumns.commit`, for any route's
    decision the columns can express; **objects** -- :meth:`_commit`,
    for the rest (no columns, a user-defined intention model in
    ``P_q``, a decision that brings its own intentions, an informed
    provider outside the snapshot).  A shard's forwarded mediations
    commit on objects too, counted in ``forwarded`` only.  All three
    tallies are execution metadata like ``engine``, never part of a
    result dict or digest.

    Parameters
    ----------
    sim, network:
        Simulation kernel bindings.
    registry:
        Source of the capable set ``P_q``.
    policy:
        The allocation technique under study.
    observer:
        Optional metrics hub; every mediation (success or failure) is
        reported to it.
    trace:
        Optional structured trace: :meth:`_store` renders each record.
    adequation_over_candidates:
        When True, the adequation value stored on each record considers
        the whole capable set ``P_q`` (one consumer-intention
        evaluation per candidate -- more faithful to [12], costlier);
        when False (default), the informed set is used.
    keep_records:
        Retain every :class:`AllocationRecord` on the mediator for
        post-run analysis.  It also decides what an in-flight record
        holds: when False, :meth:`_store` drops each record's decision
        state (informed list, intention/score/omega maps, the fast
        engine's rows) right after reporting it to the observer, and
        keeps only what delivery reads (see :class:`AllocationRecord`).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        registry: SystemRegistry,
        policy: AllocationPolicy,
        observer: Optional[MediationObserver] = None,
        trace: TraceRecorder = NULL_RECORDER,
        adequation_over_candidates: bool = False,
        keep_records: bool = True,
        name: str = "mediator",
    ) -> None:
        super().__init__(sim, name=name)
        self.network = network
        self.registry = registry
        self.policy = policy
        self.observer = observer
        self.trace = trace
        self.adequation_over_candidates = adequation_over_candidates
        self.keep_records = keep_records
        self.records: List[AllocationRecord] = []
        self.mediations = 0
        self.failures = 0
        self.coordination_messages = 0
        self._constant_one_way = network.latency.constant_delay()
        self._fast_select = policy.select_fast
        # One reusable context (consumed synchronously by exactly one
        # select_fast per mediation; .now and .columns change).
        self._ctx = AllocationContext(now=0.0)
        # No snapshot columns: every query takes the scalar route and
        # the objects commit.  FastMediator turns them on.
        self._column_cache: Optional[dict] = None
        self._decides_on_columns = False
        self._fused = False
        self._scalar_reason = "event engine"
        self.route_counts = {"fused": 0, "columns": 0, "scalar": 0}
        self.commit_counts = {"rows": 0, "objects": 0}

    @property
    def scalar_reasons(self) -> dict:
        """Why the scalar-route mediations were scalar: reason -> count.

        One mediator has exactly one possible reason: no columns (the
        event engine, the hook), a policy that decides on objects, or
        for SbQA the per-query intention-model check.
        """
        scalar = self.route_counts["scalar"]
        return {self._scalar_reason: scalar} if scalar else {}

    # ------------------------------------------------------------------
    # Entity hook
    # ------------------------------------------------------------------

    #: Fast-engine direct delivery (see Entity.FAST_HANDLERS).
    FAST_HANDLERS = {"query": "mediate"}

    def receive(self, message: Message) -> None:
        if message.kind != "query":
            raise ValueError(f"mediator got unexpected message {message.kind!r}")
        self.mediate(message.payload)

    # ------------------------------------------------------------------
    # Mediation pipeline
    # ------------------------------------------------------------------

    def mediate(self, query: Query) -> AllocationRecord:
        """Run the full pipeline for one query; returns its record."""
        self.mediations += 1
        # The registry's cached P_q snapshot: O(|P_q|) on rebuild, one
        # dict probe between membership/online transitions.
        candidates = self.registry.capable_snapshot(query.topic)
        if not candidates:
            return self._fail(query)
        cols = self._columns_for(query, candidates)
        if cols is not None and self._fused:
            return self._mediate_fused(query, cols)
        return self._select_and_commit(query, candidates, cols)

    def _columns_for(self, query: Query, snapshot) -> Optional[ConsultColumns]:
        """Refreshed columns of ``(consumer, topic)``, or None.

        None without a column cache, and when the model mix is outside
        the column encoding (custom intention models).  Cached against
        the snapshot's identity: a membership/online transition hands
        out a new tuple, and the columns are rebuilt.
        """
        cache = self._column_cache
        if cache is None:
            return None
        consumer = query.consumer
        topic = query.topic
        key = (consumer.participant_id, topic)
        cols = cache.get(key)
        if cols is None or cols.snapshot is not snapshot:
            if cols is not None:
                cols.detach()
            meta = self.registry.snapshot_meta(topic)
            cols = ConsultColumns.build(snapshot, meta, consumer, topic)
            cache[key] = cols
        if not cols.supported:
            return None
        if cols.dirty:
            cols.refresh()
        return cols

    def _select_and_commit(self, query: Query, candidates, cols) -> AllocationRecord:
        """``select_fast``, then the rows commit when ``cols`` can take it."""
        on_columns = cols is not None and self._decides_on_columns
        self.route_counts["columns" if on_columns else "scalar"] += 1
        ctx = self._ctx
        ctx.now = now = self.sim._now
        ctx.columns = cols if on_columns else None
        decision = self._fast_select(query, candidates, ctx)
        # Columns describe *this* snapshot only; never leave them on
        # the reused context.
        ctx.columns = None
        if not decision.allocated:
            return self._fail(query)
        record = None if cols is None else cols.record_for(query, now, decision)
        if record is not None:
            return self._commit_rows(cols, record, decision.consult_messages)
        self.commit_counts["objects"] += 1
        return self._commit(query, candidates, decision)

    def _mediate_fused(self, query: Query, cols: ConsultColumns) -> AllocationRecord:
        """SbQA without ``select_fast``: the decision and the commit are
        the shared :class:`~repro.core.soa.ConsultColumns` stages, and
        the record is lazy (the only route that returns one)."""
        self.route_counts["fused"] += 1
        now = self.sim._now
        consulted, ranked = cols.decide(self.policy, query, now)
        record = LazyAllocationRecord(query, now, cols, consulted, ranked)
        return self._commit_rows(cols, record, 2 * len(consulted) + 2)

    def _fail(self, query: Query) -> AllocationRecord:
        """No provider could perform the query: zero satisfaction, notify."""
        self.failures += 1
        query.status = QueryStatus.FAILED
        record = AllocationRecord(query=query, decided_at=self.now)
        record.adequation = 0.0
        # Equation 1 with an empty performer set: satisfaction is 0.
        query.consumer.record_query_satisfaction(0.0, adequation=0.0)
        self.network.send("mediation-failed", self, query.consumer, payload=record)
        self._store(record)
        return record

    def _commit(
        self,
        query: Query,
        candidates: Sequence["Provider"],
        decision: AllocationDecision,
    ) -> AllocationRecord:
        """The objects commit: satisfaction bookkeeping on the providers."""
        consumer = query.consumer
        allocated_ids = {p.participant_id for p in decision.allocated}

        # -- provider-side bookkeeping (Definition 2 windows) -----------
        provider_intentions = dict(decision.provider_intentions)
        for provider in decision.informed:
            pid = provider.participant_id
            if pid not in provider_intentions:
                provider_intentions[pid] = provider.intention_for(query)
            provider.record_proposal(provider_intentions[pid], pid in allocated_ids)

        # -- consumer-side bookkeeping (Equation 1 / Definition 1) ------
        consumer_intentions = dict(decision.consumer_intentions)
        for provider in decision.allocated:
            pid = provider.participant_id
            if pid not in consumer_intentions:
                consumer_intentions[pid] = consumer.intention_for(query, provider)
        # Iterate in decision order, not set order: Equation-1 float
        # summation must not depend on PYTHONHASHSEED.
        performer_intentions = [
            consumer_intentions[p.participant_id] for p in decision.allocated
        ]
        satisfaction = consumer_query_satisfaction(performer_intentions, query.n_results)

        adequation_pool = candidates if self.adequation_over_candidates else decision.informed
        pool_intentions = [
            consumer_intentions[p.participant_id]
            if p.participant_id in consumer_intentions
            else consumer.intention_for(query, p)
            for p in adequation_pool
        ]
        adequation_value = compute_adequation(pool_intentions, query.n_results)
        consumer.record_query_satisfaction(satisfaction, adequation=adequation_value)

        # A record that is not kept drops these at _store: no copies.
        keep = self.keep_records
        record = AllocationRecord(
            query=query,
            decided_at=self.now,
            allocated=list(decision.allocated),
            informed=list(decision.informed) if keep else decision.informed,
            consumer_intentions=consumer_intentions,
            provider_intentions=provider_intentions,
            scores=dict(decision.scores) if keep else decision.scores,
            omegas=dict(decision.omegas) if keep else decision.omegas,
            adequation=adequation_value,
        )
        return self._send(record, len(decision.informed), decision.consult_messages)

    def _commit_rows(self, cols: ConsultColumns, record, consult_messages: int):
        """The rows commit: :meth:`_commit`'s bookkeeping for a record in
        ``cols``' rows (see :meth:`~repro.core.soa.ConsultColumns.commit`)."""
        self.commit_counts["rows"] += 1
        slots = record.slots  # a list built per read on decided records
        record.adequation = cols.commit(
            slots,
            record.pis,
            record.performed,
            record.query.n_results,
            self.adequation_over_candidates,
        )[1]
        return self._send(record, len(slots), consult_messages)

    def _send(self, record: AllocationRecord, n_informed: int, consult_messages: int):
        """The tail of both commits: the consultation cost, one outcome
        notice per informed provider, ``ALLOCATED``, dispatch, store."""
        query = record.query
        consumer = query.consumer
        consult_delay = 0.0
        if self.policy.consults_participants:
            consult_delay = self._consultation_delay(consumer, record)
            record.consultation_delay = consult_delay
            self.coordination_messages += consult_messages
        self.coordination_messages += n_informed
        query.status = QueryStatus.ALLOCATED
        self._dispatch_record(record, consumer, consult_delay)
        self._store(record)
        return record

    def _consultation_delay(self, consumer, record: AllocationRecord) -> float:
        """Parallel request/reply round-trips: the slowest pair gates.

        Under a constant one-way delay ``c`` every round-trip is
        exactly ``c + c``, and so is their max.
        """
        c = self._constant_one_way
        if c is not None:
            return c + c
        return self.network.latency.worst_round_trip(self, consumer, record.informed)

    def _dispatch_record(
        self, record: AllocationRecord, consumer, consult_delay: float
    ) -> None:
        """Schedule the post-consultation dispatch of one allocation.

        The event-faithful form: one scheduler event at the end of the
        consultation, which sends one ``execute`` message per allocated
        provider plus the ``mediation-ok`` notification ("sends the
        mediation result to the consumer", Section III; consumers use
        it to arm their result deadline).  The fast engine overrides
        this with a collapsed single-event path when the latency model
        is deterministic, and posts the same closure without a handle
        when it is not.
        """
        self.sim.schedule_in(
            consult_delay,
            self._dispatcher(record, consumer),
            label=f"dispatch:{record.query.qid}",
        )

    def _dispatcher(self, record: AllocationRecord, consumer):
        """The action that sends one allocation out, message by message."""

        def dispatch() -> None:
            for provider in record.allocated:
                self.network.send("execute", self, provider, payload=record)
            self.network.send("mediation-ok", self, consumer, payload=record)

        return dispatch

    def _store(self, record: AllocationRecord) -> None:
        """Every record of every engine and commit route ends here: trace
        it, keep it, report it, and -- when not kept -- drop its decision
        state while the query is still in flight."""
        if self.trace.enabled:
            self._trace_record(record)
        keep = self.keep_records
        if keep:
            self.records.append(record)
        if self.observer is not None:
            self.observer.record_mediation(record)
        if not keep:
            record.drop_decision_state()

    def _trace_record(self, record: AllocationRecord) -> None:
        """A record's Figure-1 lines at its decision instant: ``mediate``,
        the policy's ``trace_lines`` when ``P_q`` was not empty, then
        ``allocate`` or ``fail``."""
        trace, query, now = self.trace, record.query, record.decided_at
        qid = query.qid
        n = self._pool_size(query)
        trace.record(now, "mediate", f"query {qid} from {query.consumer_id}: |P_q|={n}", qid=qid)
        if n:
            for category, text in self.policy.trace_lines(record, n):
                trace.record(now, category, f"query {qid}: {text}", qid=qid)
        if not record.allocated:
            trace.record(now, "fail", f"query {qid}: no capable provider")
            return
        allocated = sorted(record.allocated_ids)
        delay = record.consultation_delay
        text = f"-> {allocated} (informed {len(record.informed)}, consult_delay={delay:.3f})"
        trace.record(now, "allocate", f"query {qid}: {text}", qid=qid)

    def _pool_size(self, query: Query) -> int:
        """``|P_q|`` of a stored record: no registry change since the decision."""
        return len(self.registry.capable_snapshot(query.topic))

    def __repr__(self) -> str:
        return (
            f"Mediator(policy={self.policy.name!r}, mediations={self.mediations}, "
            f"failures={self.failures})"
        )
