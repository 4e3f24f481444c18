"""The pluggable allocation-policy interface.

Every query-allocation technique -- SbQA itself and all baselines --
implements one decision mapping ``(query, P_q)`` to an
:class:`AllocationDecision`: :meth:`AllocationPolicy.select_fast` for
the built-in policies, either that or :meth:`AllocationPolicy.select`
for a third-party one.  The satisfaction model then analyses all of
them uniformly, which is claim (i) of the paper: "the proposed
satisfaction model allows analyzing different query allocation
techniques no matter their query allocation principle".

A decision distinguishes:

* ``allocated`` -- the providers that will perform the query;
* ``informed`` -- the providers touched by the mediation (SbQA's
  consulted set ``Kn``); these enter the Definition-2 proposal window.
  For direct-allocation baselines the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.provider import Provider
    from repro.system.query import AllocationRecord, Query


@dataclass
class AllocationContext:
    """What a policy may consult while deciding (beyond the query)."""

    now: float
    #: The candidates' :class:`~repro.core.soa.ConsultColumns` for this
    #: (consumer, topic), refreshed, when the fast engine has them;
    #: None on the event engine, for model mixes the columns cannot
    #: encode and for policies that do not decide on them.
    columns: Optional[object] = None


@dataclass
class AllocationDecision:
    """Outcome of one policy invocation for one query."""

    allocated: List["Provider"] = field(default_factory=list)
    informed: List["Provider"] = field(default_factory=list)
    consumer_intentions: Dict[str, float] = field(default_factory=dict)
    provider_intentions: Dict[str, float] = field(default_factory=dict)
    scores: Dict[str, float] = field(default_factory=dict)
    omegas: Dict[str, float] = field(default_factory=dict)
    consult_messages: int = 0

    def __post_init__(self) -> None:
        if not self.informed:
            self.informed = list(self.allocated)
        allocated_ids = {p.participant_id for p in self.allocated}
        informed_ids = {p.participant_id for p in self.informed}
        if not allocated_ids <= informed_ids:
            raise ValueError("allocated providers must be a subset of informed providers")

    @property
    def is_failure(self) -> bool:
        return not self.allocated


class FastAllocationDecision:
    """Duck-typed :class:`AllocationDecision` for the mediation hot path.

    Same attribute surface, no dataclass machinery and no
    ``__post_init__`` validation -- producers (``select_fast``
    implementations) guarantee the allocated-subset-of-informed
    invariant by construction, and the fast mediator consumes the
    decision exactly once (committing it in snapshot rows when it
    brings no intentions or scores of its own).  Anything written against
    :class:`AllocationDecision`'s attributes works on either.
    """

    __slots__ = (
        "allocated",
        "informed",
        "consumer_intentions",
        "provider_intentions",
        "scores",
        "omegas",
        "consult_messages",
    )

    def __init__(
        self,
        allocated,
        informed=None,
        consumer_intentions=None,
        provider_intentions=None,
        scores=None,
        omegas=None,
        consult_messages=0,
    ) -> None:
        # informed defaults to the allocated list *itself* (not a copy,
        # unlike AllocationDecision.__post_init__): a fast decision is
        # consumed exactly once and the record stores both fields
        # read-only, so the alias is safe -- but code that mutates
        # record.allocated in place would corrupt record.informed too;
        # copy before mutating.  Every mapping default is a *fresh* dict.
        self.allocated = allocated
        self.informed = allocated if informed is None else informed
        self.consumer_intentions = (
            {} if consumer_intentions is None else consumer_intentions
        )
        self.provider_intentions = (
            {} if provider_intentions is None else provider_intentions
        )
        self.scores = {} if scores is None else scores
        self.omegas = {} if omegas is None else omegas
        self.consult_messages = consult_messages

    @property
    def is_failure(self) -> bool:
        return not self.allocated


#: Each default delegates to the other, so a policy must override one.
_OVERRIDE_ONE = "%s overrides neither select nor select_fast"


class AllocationPolicy:
    """Base class of every allocation technique.

    Subclasses set :attr:`name` (a stable identifier used in reports)
    and :attr:`consults_participants` (True when the technique needs an
    intention round-trip before deciding, which costs extra latency and
    messages -- SbQA and the economic bidding baseline do; one-shot
    baselines do not).
    """

    name: str = "abstract"
    consults_participants: bool = False

    def select(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> AllocationDecision:
        """Decide the allocation of ``query`` among ``candidates``.

        ``candidates`` is the non-empty capable set ``P_q``; the
        mediator handles the empty case before calling the policy.
        A third-party policy may write this instead of
        :meth:`select_fast`, which the mediators call.
        """
        if type(self).select_fast is AllocationPolicy.select_fast:
            raise NotImplementedError(_OVERRIDE_ONE % type(self).__name__)
        return self.select_fast(query, candidates, ctx)

    def select_fast(
        self,
        query: "Query",
        candidates: Sequence["Provider"],
        ctx: AllocationContext,
    ) -> "AllocationDecision":
        """The decision itself: what every mediator of both engines calls.

        A policy implements either method: the default here delegates
        to :meth:`select`, and :meth:`select` to this.  Built-in
        policies implement this one and may rely on three hot-path
        facts:

        * ``candidates`` is usually an immutable snapshot (the
          registry's reusable :meth:`~repro.system.registry.
          SystemRegistry.capable_snapshot` tuple), so derived data may
          be cached on the identity of a ``tuple`` -- never of a list,
          which a caller may mutate between calls;
        * ``ctx.now`` equals the simulation clock of every candidate;
        * ``ctx.columns``, when not None, holds that snapshot's
          refreshed structure-of-arrays consultation state for
          ``query``'s consumer and topic, and a policy may decide from
          it instead of the provider objects (SbQA does) as long as the
          decision it returns is the same one, maps and their key order
          included.
        """
        if type(self).select is AllocationPolicy.select:
            raise NotImplementedError(_OVERRIDE_ONE % type(self).__name__)
        return self.select(query, candidates, ctx)

    def trace_lines(self, record: "AllocationRecord", n_candidates: int):
        """This policy's Figure-1 lines for a stored record decided over
        ``n_candidates`` > 0 providers: ``(category, text)`` pairs that
        ``Mediator._trace_record`` writes as ``query <qid>: <text>``.
        None by default."""
        return ()

    def describe(self) -> Dict[str, object]:
        """Human-readable parameterisation (what :func:`repr` shows)."""
        return {"name": self.name}

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.describe().items() if k != "name")
        return f"{type(self).__name__}({params})"


def allocation_count(query: "Query", pool_size: int) -> int:
    """How many providers to allocate: ``min(q.n, |pool|)``.

    The paper allocates to the ``min(n, kn)`` best-ranked providers;
    baselines use the same rule with their own pool.
    """
    return min(query.n_results, pool_size)
