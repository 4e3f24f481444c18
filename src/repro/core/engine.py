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
* :class:`FastMediator` runs the one mediation pipeline of
  :class:`~repro.core.mediator.Mediator` with the registry snapshot's
  :class:`~repro.core.soa.ConsultColumns` turned on (SbQA decides on
  them, every policy commits in their rows), and -- when the one-way
  delay is a positive constant -- collapses the ``len(allocated) + 1``
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

from typing import Any, Callable

from repro.core.mediator import Mediator
from repro.core.soa import fused_policy_supported
from repro.des.network import Network
from repro.system.query import AllocationRecord, QueryResult

#: Engine mode names accepted by :func:`resolve_engine`.
ENGINE_MODES = ("fast", "event")

#: Default engine for newly constructed configs/specs.
DEFAULT_ENGINE = "fast"

#: Private hook for the differential tests and ``repro.perf``: set to
#: False before constructing a :class:`FastMediator` to leave its
#: columns off, so every mediation takes the scalar reference (the
#: object route of ``select_fast`` + :meth:`Mediator._commit`, as on
#: the event engine) and compare it with every column use -- the fused
#: route, ``select_fast``'s column route and the rows commit.  Not
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
    """The hot-path mediator: :class:`~repro.core.mediator.Mediator`'s
    pipeline with the snapshot's columns turned on, and a collapsed
    dispatch.

    Two deviations from the base class, none of them observable in the
    results:

    * the registry's cached
      :meth:`~repro.system.registry.SystemRegistry.capable_snapshot`
      gets :class:`~repro.core.soa.ConsultColumns` per ``(consumer,
      topic)`` -- this mediator's, so per shard in a federation -- for
      every policy, whatever the latency model.  Every policy *commits*
      on them; exactly SbQA with a built-in omega also *decides* on them
      (``select_fast``'s column route, or the fused route when the
      one-way delay is a positive constant).  Nothing in KnBest /
      Equation 2 / Definition 3 reads the latency model, so only the
      dispatch depends on it;
    * when that constant is positive, the ``len(allocated) + 1``
      same-instant deliveries of an allocation are one
      :class:`_CollapsedDispatch` event (two events per dispatch
      instead of ``len(allocated) + 2``), and the result path is
      batched too: completions are grouped by finish instant into
      :class:`_ResultDrain` chains instead of one completion-closure +
      delivery pair per provider.  (At ``c == 0`` every event of a
      mediation shares one clock instant, where relative event order
      *is* semantics, and with a *random* latency model delivery
      delays must be drawn from the shared stream at dispatch time, in
      dispatch order; both keep the faithful per-delivery structure --
      :class:`FastNetwork` still strips the envelopes.)
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Model support is decided when the columns are built;
        # unsupported mixes take the scalar route per query.
        if not _FUSED_KERNEL:
            self._scalar_reason = "kernel hook off"
            return
        self._column_cache = {}
        self._decides_on_columns = fused_policy_supported(self.policy)
        if self._decides_on_columns:
            self._scalar_reason = "unsupported intention models"
            c = self._constant_one_way
            self._fused = c is not None and c > 0.0
        else:
            self._scalar_reason = "policy not column-encodable"

    # bench/tracer.py counts fused mediations on this name of this class.
    mediate = Mediator.mediate

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
