"""The hot-path allocation engine: fast mediation, identical results.

The scoring -> rank -> bookkeeping loop runs once per mediation and
dominates wall-clock for every sweep and tune the repository runs, so
this module provides a **fast engine** -- a drop-in mediator/network
pair that produces *bit-identical allocations, records and metrics* to
the event-faithful core while cutting the per-mediation constant:

* :class:`FastNetwork` delivers messages without constructing
  :class:`~repro.des.network.Message` envelopes or per-send label
  strings for the message kinds the entities pre-declare
  (``Entity.FAST_HANDLERS``): same latency draws in the same order,
  same scheduling instants, same event ordering -- only the per-send
  allocations disappear.  Unknown kinds fall back to the envelope path.
* :class:`FastMediator` reads ``P_q`` from the registry's cached
  capability snapshot (handing SbQA that snapshot's
  :class:`~repro.core.soa.ConsultColumns` to decide on, and committing
  every policy's decision in their rows), computes the consultation
  delay analytically
  when the latency model is deterministic (every round-trip is ``2c``,
  so the max over pairs is too), and -- when the one-way delay is a
  positive constant -- collapses the ``len(allocated) + 1``
  post-consultation delivery events of one allocation (which all share
  a clock instant) into a **single** scheduler event, scheduled at the
  same moments as the faithful chain so tie-breaking order is
  preserved.  The result path is batched the same way: each allocated
  provider's completion-closure + result-delivery event pair becomes a
  member of a per-finish-instant :class:`_ResultDrain`, so replicated
  queries on same-speed providers drain in two events total.

What is allowed to differ between the engines is the *number of
scheduler events and Python objects*; what must not differ is clock
values, allocations, satisfaction bookkeeping, records, and the
coordination-message accounting.  ``tests/core/test_engine_parity.py``
asserts byte-identical result digests across both engines, and
``sbqa bench`` tracks the speedup.

Select the engine per run with ``ExperimentConfig(engine="fast")`` (the
default) or ``engine="event"`` -- the equivalence escape hatch that
keeps the reference implementation one flag away.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.mediator import Mediator
from repro.core.policy import AllocationContext
from repro.core.soa import ConsultColumns, LazyAllocationRecord, fused_policy_supported
from repro.des.network import Network
from repro.system.query import AllocationRecord, QueryResult, QueryStatus

#: Engine mode names accepted by :func:`resolve_engine`.
ENGINE_MODES = ("fast", "event")

#: Default engine for newly constructed configs/specs.
DEFAULT_ENGINE = "fast"

#: Private hook for the differential tests and ``repro.perf``: set to
#: False before constructing a :class:`FastMediator` to run every
#: mediation through the scalar reference (the object route of
#: ``select_fast`` + :meth:`Mediator._commit`) and compare it with
#: every column use -- the fused kernel, ``select_fast``'s column route
#: and the rows commit, which it switches off together.  Not
#: configuration -- no flag, config field or environment variable reads
#: or sets it.
_FUSED_KERNEL = True


def resolve_engine(engine: str) -> str:
    """Validate and canonicalise an engine mode name."""
    key = str(engine).lower()
    if key not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine {engine!r}; valid engines: {', '.join(ENGINE_MODES)}"
        )
    return key


class _FastDelivery:
    """Scheduled callable delivering one payload to one fast handler."""

    __slots__ = ("network", "handler", "payload")

    def __init__(
        self, network: "FastNetwork", handler: Callable[[Any], None], payload: Any
    ) -> None:
        self.network = network
        self.handler = handler
        self.payload = payload

    def __call__(self) -> None:
        self.network.messages_delivered += 1
        self.handler(self.payload)


class FastNetwork(Network):
    """A :class:`~repro.des.network.Network` without per-send envelopes.

    ``send`` draws the same latency (same stream, same order) and
    schedules delivery at the same instant as the base class, but for
    message kinds the recipient pre-declares in ``FAST_HANDLERS`` it
    schedules a small payload-carrying callable instead of building a
    frozen ``Message`` dataclass, a delivery closure and an f-string
    event label.  Counters (``messages_sent`` / ``messages_delivered``)
    advance exactly as in the base class.
    """

    def send(self, kind, sender, recipient, payload=None):
        handler = recipient.fast_handler(kind)
        if handler is None:
            # Unknown kind (tests, custom entities): full envelope path,
            # including the loud failure inside Entity.receive.
            return super().send(kind, sender, recipient, payload=payload)
        delay = self.latency.delay(sender, recipient)
        if delay < 0:
            raise ValueError(f"latency model produced negative delay {delay}")
        self.messages_sent += 1
        self.sim.post_in(delay, _FastDelivery(self, handler, payload))
        return None


class _DrainMember:
    """One provider's slot in a batched result drain.

    Stored in the provider's ``_pending`` map where the faithful path
    stores the completion :class:`~repro.des.events.EventHandle`, so
    ``Provider.crash`` cancels exactly this provider's completion (and
    therefore its result) without touching the rest of the batch.
    """

    __slots__ = ("provider", "start", "finish", "service", "cancelled")

    def __init__(self, provider, start: float, finish: float, service: float) -> None:
        self.provider = provider
        self.start = start
        self.finish = finish
        self.service = service
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _ResultDrain:
    """One batched completion->delivery chain for same-instant results.

    The faithful result path costs two scheduler events *per allocated
    provider*: a completion closure at the provider's finish instant,
    which sends a ``result`` message whose delivery fires one one-way
    delay later.  Under a deterministic latency model, every member of
    one allocation that shares a finish instant shares the delivery
    instant too, so the whole group collapses into one two-hop drain:

    * **hop 1** fires at the shared finish instant and performs each
      member's completion bookkeeping (``Provider.finish_execution``)
      in allocated order -- the exact order the faithful consecutive
      completion events would fire in, since they are inserted
      back-to-back by the dispatch event and scheduler ties break on
      insertion order;
    * it then re-inserts *itself* for **hop 2** one one-way delay
      later -- the same insertion moment as the faithful ``result``
      deliveries, preserving tie order against third-party events --
      which builds each :class:`QueryResult` and hands it to the
      consumer, again in allocated order.

    Members cancelled before hop 1 (a provider crash cancels its
    ``_pending`` entry, which is the member) are skipped exactly like
    the faithful cancelled completion events; once hop 1 ran, the
    results are in flight and a later crash cannot recall them -- also
    the faithful behaviour.  Counters advance as in the faithful
    chain: ``messages_sent`` per member at completion time,
    ``messages_delivered`` per member at delivery time.
    """

    __slots__ = ("network", "record", "consumer", "delay", "members", "_delivering")

    def __init__(
        self, network: Network, record: AllocationRecord, consumer, delay: float
    ) -> None:
        self.network = network
        self.record = record
        self.consumer = consumer
        self.delay = delay
        self.members = []
        self._delivering = False

    def __call__(self) -> None:
        network = self.network
        if not self._delivering:
            # hop 1: the shared completion instant
            members = [m for m in self.members if not m.cancelled]
            if not members:
                return  # every member crashed away: nothing to deliver
            self.members = members
            record = self.record
            for member in members:
                member.provider.finish_execution(record, member.service)
            network.messages_sent += len(members)
            self._delivering = True
            network.sim.post_in(self.delay, self)
            return
        # hop 2: the shared delivery instant.  All members share the
        # arrival clock, so the consumer folds them in as one batch
        # (arrival time, response time and query handle resolved once)
        # instead of len(members) _on_result calls -- same bookkeeping
        # sequence in the same (allocated) order, bit-identical floats.
        members = self.members
        network.messages_delivered += len(members)
        record = self.record
        query = record.query
        results = [
            QueryResult(
                query=query,
                provider_id=member.provider.participant_id,
                started_at=member.start,
                finished_at=member.finish,
            )
            for member in members
        ]
        self.consumer.absorb_results(record, results)


class _CollapsedDispatch:
    """One batched delivery event for a whole allocation's dispatch.

    Under a deterministic latency model every post-consultation
    delivery of one allocation -- ``execute`` to each allocated
    provider, then ``mediation-ok`` to the consumer -- lands at the
    same clock instant, so the ``len(allocated) + 1`` delivery events
    collapse into this single callable.  The two-hop structure is
    load-bearing: :meth:`dispatch` is scheduled where the faithful
    dispatch closure would be, and only when it *fires* does it insert
    the batched delivery into the heap -- the same insertion moment as
    the faithful delivery events.  Scheduler ties break on insertion
    order, so inserting the delivery any earlier (e.g. directly at
    commit time) would reorder it against third-party events that
    share its timestamp and diverge from the event engine (a real
    occurrence under deterministic arrival processes, not a
    measure-zero float coincidence).  Counters advance exactly as in
    the faithful chain: ``messages_sent`` at dispatch time,
    ``messages_delivered`` at delivery time.

    The delivery hop also *starts the batched result drain*: instead of
    ``Provider.execute`` scheduling one completion closure per
    provider, members are enqueued via ``Provider.begin_execution``
    and grouped by finish instant into :class:`_ResultDrain` chains --
    one drain scheduled at each group's first-member position, which
    is exactly where the faithful chain inserts that group's first
    completion event.
    """

    __slots__ = ("network", "record", "consumer", "delay")

    def __init__(
        self, network: Network, record: AllocationRecord, consumer, delay: float
    ) -> None:
        self.network = network
        self.record = record
        self.consumer = consumer
        self.delay = delay

    def dispatch(self) -> None:
        """Consultation finished: send the batch (one scheduler event)."""
        network = self.network
        network.messages_sent += len(self.record.allocated) + 1
        network.sim.post_in(self.delay, self)

    def __call__(self) -> None:
        record = self.record
        network = self.network
        sim = network.sim
        now = sim.now
        network.messages_delivered += len(record.allocated) + 1
        delay = self.delay
        qid = record.query.qid
        drains = {}
        for provider in record.allocated:
            start, finish, service = provider.begin_execution(record)
            drain = drains.get(finish)
            if drain is None:
                drain = _ResultDrain(network, record, self.consumer, delay)
                drains[finish] = drain
            member = _DrainMember(provider, start, finish, service)
            drain.members.append(member)
            provider._pending[qid] = member
        # Batched heap insertion (one locals-hoisted pass instead of one
        # post_in per distinct finish instant).  Nothing else posts
        # between the first drain's creation and the end of the loop, so
        # inserting all drains here -- in dict insertion order, which is
        # first-member order -- assigns each drain the *same* seq number
        # the interleaved per-drain post_in gave it: tie order against
        # third-party events is bit-identical.
        sim.post_in_batch(
            (finish - now, drain) for finish, drain in drains.items()
        )
        self.consumer._on_allocation(record)


class FastMediator(Mediator):
    """The hot-path mediator: same pipeline, batched and collapsed.

    Three deviations from the base class, none of them observable in
    the results:

    * ``P_q`` is the registry's cached
      :meth:`~repro.system.registry.SystemRegistry.capable_snapshot`
      tuple -- no per-mediation list build;
    * when the latency model reports a :meth:`constant one-way delay
      <repro.des.network.LatencyModel.constant_delay>`, the
      consultation delay is ``2c`` analytically instead of a max over
      ``|Kn| + 1`` identical round-trips;
    * when that constant is positive, the
      ``len(allocated) + 1`` same-instant deliveries of an allocation
      are one :class:`_CollapsedDispatch` event (two events per
      dispatch instead of ``len(allocated) + 2``), and the result
      path is batched too: completions are grouped by finish instant
      into :class:`_ResultDrain` chains instead of one
      completion-closure + delivery pair per provider.  (At ``c == 0``
      every event of a mediation shares one clock instant, where
      relative event order *is* semantics, so the faithful
      per-delivery structure is kept -- :class:`FastNetwork` still
      strips the envelopes.)

    With a *random* latency model the collapse is off -- delivery
    delays must be drawn from the shared latency stream at dispatch
    time, in dispatch order, or every later draw in the run would
    shift -- but the *decision* is not: nothing in KnBest / Equation 2 /
    Definition 3 reads the latency model, so ``select_fast`` is handed
    the snapshot's columns and decides through the same
    :meth:`~repro.core.soa.ConsultColumns.decide` the fused kernel
    calls.  Three routes, counted in :attr:`route_counts`:

    * **fused** -- SbQA, positive constant latency: ``decide`` + lazy
      record + collapsed dispatch;
    * **columns** -- SbQA, any other latency: ``select_fast`` (column
      route), one event per delivery, consultation round-trips drawn in
      order by :meth:`~repro.des.network.LatencyModel.worst_round_trip`;
    * **scalar** -- ``select_fast`` on the provider objects (every
      baseline; SbQA's object route), for the reason tallied in
      ``scalar_reasons``.

    The commit is policy-independent, counted in :attr:`commit_counts`:
    **rows** -- :meth:`~repro.core.soa.ConsultColumns.commit`, for all
    three routes; **objects** -- the reference :meth:`Mediator._commit`,
    for what the columns cannot see: a user-defined intention model in
    ``P_q``, a decision that brings its own intentions, an informed
    provider outside the snapshot, the ``_FUSED_KERNEL`` hook.  (A
    shard's forwarded mediations commit on objects too, counted in
    ``forwarded`` only.)
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._constant_one_way = self.network.latency.constant_delay()
        self._fast_select = self.policy.select_fast
        # One reusable context for the hot loop (consumed synchronously
        # by exactly one select_fast per mediation; .now and .columns
        # change).
        self._ctx = AllocationContext(now=0.0)
        # Structure-of-arrays state (see repro.core.soa): columns are
        # cached per (consumer, topic) -- this mediator's, so per shard
        # in a federation -- for every policy, whatever the latency
        # model, and every policy *commits* on them.  Model support is
        # decided when they are built; unsupported mixes fall back per
        # query.  Only exactly SbQAPolicy with a built-in omega also
        # *decides* on them; the latency model only decides how that
        # decision is sent out (the fused kernel's collapsed dispatch
        # needs a positive constant one-way delay).
        self._column_cache: Optional[dict] = {} if _FUSED_KERNEL else None
        self._decides_on_columns = _FUSED_KERNEL and fused_policy_supported(self.policy)
        if not _FUSED_KERNEL:
            self._scalar_reason = "kernel hook off"
        elif self._decides_on_columns:
            self._scalar_reason = "unsupported intention models"
        else:
            self._scalar_reason = "policy not column-encodable"
        c = self._constant_one_way
        self._fused = self._decides_on_columns and c is not None and c > 0.0
        #: Mediations by route -- execution metadata like ``engine``,
        #: never part of a result dict or digest.  Mediations that
        #: found ``P_q`` empty, and a shard's forwarded ones (counted in
        #: ``forwarded``), took none of these routes.
        self.route_counts = {"fused": 0, "columns": 0, "scalar": 0}
        #: Mediations by commit stage; execution metadata likewise.
        self.commit_counts = {"rows": 0, "objects": 0}

    @property
    def scalar_reasons(self) -> dict:
        """Why the scalar-route mediations were scalar: reason -> count.

        Derived: one mediator has exactly one possible reason (fixed at
        construction for the hook and for policies that decide on
        objects, the per-query model check for SbQA).
        """
        scalar = self.route_counts["scalar"]
        return {self._scalar_reason: scalar} if scalar else {}

    def mediate(self, query) -> AllocationRecord:
        self.mediations += 1
        meta = self.registry.snapshot_meta(query.topic)
        candidates = meta.snapshot
        if not candidates:
            return self._fail(query)
        cols = self._columns_for(query, meta)
        if cols is not None and self._fused:
            return self._mediate_fused(query, cols)
        return self._select_and_commit(query, candidates, cols)

    def _columns_for(self, query, meta) -> Optional[ConsultColumns]:
        """Refreshed columns of ``(consumer, topic)``, or None.

        Cached against the snapshot's identity: a membership/online
        transition hands out a new tuple, and the columns are rebuilt.
        None means the model mix is outside the column encoding (custom
        intention models): the query is decided and committed on objects.
        """
        cache = self._column_cache
        if cache is None:
            return None  # the _FUSED_KERNEL hook is off
        consumer = query.consumer
        topic = query.topic
        snapshot = meta.snapshot
        key = (consumer.participant_id, topic)
        cols = cache.get(key)
        if cols is None or cols.snapshot is not snapshot:
            if cols is not None:
                cols.detach()
            cols = ConsultColumns.build(snapshot, meta, consumer, topic)
            cache[key] = cols
        if not cols.supported:
            return None
        if cols.dirty:
            cols.refresh()
        return cols

    def _select_and_commit(self, query, candidates, cols) -> AllocationRecord:
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

    def _mediate_fused(self, query, cols: ConsultColumns) -> AllocationRecord:
        """One mediation through the fused SoA kernel: the decision and
        the commit are the shared :class:`~repro.core.soa.ConsultColumns`
        stages; fused *here* are the missing ``select_fast`` call, the
        analytic ``2c`` consultation delay and the collapsed dispatch.
        """
        self.route_counts["fused"] += 1
        now = self.sim._now
        consulted, ranked = cols.decide(self.policy, query, now)
        record = LazyAllocationRecord(query, now, cols, consulted, ranked)
        return self._commit_rows(cols, record, 2 * len(consulted) + 2)

    def _commit_rows(self, cols: ConsultColumns, record, consult_messages: int):
        """:meth:`Mediator._commit` for a record in ``cols``' rows (never a
        forwarded mediation, so the consultation is the plain one)."""
        self.commit_counts["rows"] += 1
        query = record.query
        consumer = query.consumer
        slots = record.slots
        record.adequation = cols.commit(
            slots, record.pis, record.performed, query.n_results, self.adequation_over_candidates
        )[1]
        consult_delay = 0.0
        if self.policy.consults_participants:
            c = self._constant_one_way
            if c is not None:
                consult_delay = c + c
            else:
                consult_delay = self._consultation_delay(consumer, record.informed)
            record.consultation_delay = consult_delay
            self.coordination_messages += consult_messages
        self.coordination_messages += len(slots)
        query.status = QueryStatus.ALLOCATED
        self._dispatch_record(record, consumer, consult_delay)
        self._store(record)
        return record

    def _consultation_delay(self, consumer, informed) -> float:
        c = self._constant_one_way
        if c is not None:
            # Every request/reply round-trip is exactly c + c, so the
            # max over the consumer pair and all informed pairs is too.
            return c + c
        return super()._consultation_delay(consumer, informed)

    def _dispatch_record(
        self, record: AllocationRecord, consumer, consult_delay: float
    ) -> None:
        c = self._constant_one_way
        if c is None or c <= 0.0:
            # Per-delivery sends (their delays are drawn at dispatch
            # time, in dispatch order): the faithful dispatch closure,
            # posted where the base class schedules it -- same instant,
            # same default priority, same seq -- without the label,
            # Event and EventHandle.
            self.sim.post_in(consult_delay, self._dispatcher(record, consumer))
            return
        # Two hops, mirroring the faithful chain's scheduling moments
        # (and therefore its tie-breaking seq order and its clock
        # arithmetic: dispatch at now + consult_delay, delivery at
        # that instant + c); only the per-provider delivery events and
        # Message envelopes are collapsed away.
        collapsed = _CollapsedDispatch(self.network, record, consumer, c)
        self.sim.post_in(consult_delay, collapsed.dispatch)


def make_network(engine: str, sim, latency=None) -> Network:
    """The network class for an engine mode, instantiated."""
    if resolve_engine(engine) == "fast":
        return FastNetwork(sim, latency)
    return Network(sim, latency)


def make_mediator(engine: str, *args, **kwargs) -> Mediator:
    """The mediator class for an engine mode, instantiated."""
    if resolve_engine(engine) == "fast":
        return FastMediator(*args, **kwargs)
    return Mediator(*args, **kwargs)
