"""Histories: well-formed finite sequences of events.

A computation is modeled as a finite sequence of events (paper, Section 2).
Not every finite sequence makes sense; a *history* is a finite sequence of
events satisfying the well-formedness constraints:

1. Each transaction must wait for the response to its last invocation
   before invoking the next operation, and an object can generate a
   response for ``A`` only if ``A`` has a pending invocation (at that
   object).
2. Each transaction can commit or abort in ``H``, but not both.
3. A transaction cannot commit while it is waiting for the response to an
   invocation, and cannot invoke any operations after it commits.

:class:`History` is an immutable value object.  The module also implements
the derived notions the rest of the theory is phrased in:

* projections ``H|X`` and ``H|A`` (:meth:`History.project_objects`,
  :meth:`History.project_transactions`),
* ``Committed(H)``, ``Aborted(H)``, activity tests,
* ``Opseq(H)`` — the operation sequence of a history
  (:meth:`History.opseq`),
* ``permanent(H) = H | Committed(H)`` (:meth:`History.permanent`),
* the ``precedes(H)`` relation used by dynamic atomicity
  (:meth:`History.precedes`), and ``Commit-order(H)`` used by the
  deferred-update view (:meth:`History.commit_order`),
* ``Serial(H, T)`` and history equivalence (:func:`serial_history`,
  :func:`equivalent`).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .events import (
    AbortEvent,
    CommitEvent,
    Event,
    Invocation,
    InvocationEvent,
    OpSeq,
    Operation,
    ResponseEvent,
    commit,
    invoke,
    respond,
)


class IllFormedHistoryError(ValueError):
    """Raised when an event sequence violates the well-formedness
    constraints.  ``index`` is the event's position in the history, or
    ``None`` where no history is kept."""

    def __init__(self, message: str, index: Optional[int], event: Event):
        where = "event" if index is None else "event %d" % index
        super().__init__("%s (%s): %s" % (where, event, message))
        self.index = index
        self.event = event


class HistoryNotKept(RuntimeError):
    """A history was asked of a builder (or system) that keeps none.

    Raised instead of answering with an empty history, so that an audit
    of a run recorded without one fails rather than passes."""


class _TxnState:
    """Mutable per-transaction bookkeeping used while validating a history."""

    __slots__ = ("pending", "committed_at", "aborted_at")

    def __init__(self) -> None:
        self.pending: Optional[InvocationEvent] = None
        # The objects it committed / aborted at: a transaction ends at a
        # few, and a tuple is small, shared when empty and by copies.
        self.committed_at: Tuple[str, ...] = ()
        self.aborted_at: Tuple[str, ...] = ()

    def copy(self) -> "_TxnState":
        twin = _TxnState()
        twin.pending = self.pending
        twin.committed_at = self.committed_at
        twin.aborted_at = self.aborted_at
        return twin


#: the state of a transaction with no events yet; read, never written.
_FRESH = _TxnState()


def _step(
    txns: Dict[str, _TxnState], i: Optional[int], e: Event, write: bool = True
) -> None:
    """Raise :class:`IllFormedHistoryError` unless ``e`` may follow the
    ``i`` events ``txns`` summarizes; then, if ``write``, record it.
    Each branch writes only after its checks pass, so a rejected event
    leaves ``txns`` as it was."""
    st = txns.get(e.txn)
    if st is None:
        # A transaction's first event is rejected only if it is a response.
        if write and not isinstance(e, ResponseEvent):
            st = txns[e.txn] = _TxnState()
        else:
            st = _FRESH
    if st.committed_at and not isinstance(e, CommitEvent):
        raise IllFormedHistoryError(
            "transaction %s already committed" % e.txn, i, e
        )
    if st.aborted_at and not isinstance(e, AbortEvent):
        raise IllFormedHistoryError(
            "transaction %s already aborted" % e.txn, i, e
        )
    if isinstance(e, InvocationEvent):
        if st.pending is not None:
            raise IllFormedHistoryError(
                "transaction %s already has a pending invocation (%s)"
                % (e.txn, st.pending),
                i,
                e,
            )
        if write:
            st.pending = e
    elif isinstance(e, ResponseEvent):
        if st.pending is None:
            raise IllFormedHistoryError(
                "transaction %s has no pending invocation" % e.txn, i, e
            )
        if st.pending.obj != e.obj:
            raise IllFormedHistoryError(
                "response at %s but pending invocation is at %s"
                % (e.obj, st.pending.obj),
                i,
                e,
            )
        if write:
            st.pending = None
    elif isinstance(e, CommitEvent):
        if st.pending is not None:
            raise IllFormedHistoryError(
                "transaction %s cannot commit with a pending invocation"
                % e.txn,
                i,
                e,
            )
        if e.obj in st.committed_at:
            raise IllFormedHistoryError(
                "duplicate commit event for %s at %s" % (e.txn, e.obj), i, e
            )
        if write:
            st.committed_at += (e.obj,)
    elif isinstance(e, AbortEvent):
        if e.obj in st.aborted_at:
            raise IllFormedHistoryError(
                "duplicate abort event for %s at %s" % (e.txn, e.obj), i, e
            )
        if write:
            st.aborted_at += (e.obj,)
            st.pending = None
    else:  # pragma: no cover - defensive
        raise IllFormedHistoryError("unknown event kind", i, e)


def _check_well_formed(events: Sequence[Event]) -> None:
    """Raise :class:`IllFormedHistoryError` unless ``events`` is a history."""
    txns: Dict[str, _TxnState] = {}
    for i, e in enumerate(events):
        _step(txns, i, e)


class History:
    """An immutable, well-formed finite sequence of events.

    Construction validates well-formedness by default; pass
    ``validate=False`` only for sequences already known to be well formed
    (e.g. projections of validated histories, which are well formed by
    construction).
    """

    __slots__ = ("_events", "_opseq_cache")

    def __init__(self, events: Iterable[Event] = (), *, validate: bool = True):
        self._events: Tuple[Event, ...] = tuple(events)
        if validate:
            _check_well_formed(self._events)
        self._opseq_cache: Optional[OpSeq] = None

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return History(self._events[index], validate=False)
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, History) and self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:
        return "History(%d events)" % len(self._events)

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self._events)

    @property
    def events(self) -> Tuple[Event, ...]:
        """The underlying event tuple."""
        return self._events

    # -- construction ------------------------------------------------------

    def append(self, event: Event, *, validate: bool = True) -> "History":
        """A new history with ``event`` appended."""
        return History(self._events + (event,), validate=validate)

    def extend(self, events: Iterable[Event], *, validate: bool = True) -> "History":
        """A new history with ``events`` appended."""
        return History(self._events + tuple(events), validate=validate)

    def __add__(self, other: "History") -> "History":
        """Concatenation ``H • K`` (validated)."""
        return History(self._events + other._events)

    # -- projections ---------------------------------------------------------

    def project_objects(self, objs) -> "History":
        """``H|X`` — the subsequence of events involving the object(s) ``objs``."""
        if isinstance(objs, str):
            objs = {objs}
        objs = set(objs)
        return History(
            (e for e in self._events if e.obj in objs), validate=False
        )

    def project_transactions(self, txns) -> "History":
        """``H|A`` — the subsequence of events involving the transaction(s) ``txns``."""
        if isinstance(txns, str):
            txns = {txns}
        txns = set(txns)
        return History(
            (e for e in self._events if e.txn in txns), validate=False
        )

    # -- transaction status --------------------------------------------------

    def transactions(self) -> FrozenSet[str]:
        """All transactions that have at least one event in the history."""
        return frozenset(e.txn for e in self._events)

    def objects(self) -> FrozenSet[str]:
        """All objects that have at least one event in the history."""
        return frozenset(e.obj for e in self._events)

    def committed(self) -> FrozenSet[str]:
        """``Committed(H)`` — transactions with a commit event in ``H``."""
        return frozenset(e.txn for e in self._events if e.is_commit)

    def aborted(self) -> FrozenSet[str]:
        """``Aborted(H)`` — transactions with an abort event in ``H``."""
        return frozenset(e.txn for e in self._events if e.is_abort)

    def active(self) -> FrozenSet[str]:
        """The transactions *appearing in H* that are neither committed nor aborted.

        The paper's ``Active(H)`` is ``ACT - Committed(H) - Aborted(H)``
        over the full (unbounded) transaction universe; transactions with
        no events are trivially active.  This method returns the active
        transactions that actually appear — use :meth:`is_active` to test
        an arbitrary transaction name.
        """
        return self.transactions() - self.committed() - self.aborted()

    def is_active(self, txn: str) -> bool:
        """True iff ``txn ∈ Active(H)`` (arbitrary transaction names allowed)."""
        return txn not in self.committed() and txn not in self.aborted()

    def pending_invocation(self, txn: str) -> Optional[InvocationEvent]:
        """The pending invocation event of ``txn``, or None."""
        pending: Optional[InvocationEvent] = None
        for e in self._events:
            if e.txn != txn:
                continue
            if e.is_invocation:
                pending = e
            elif e.is_response or e.is_abort:
                pending = None
        return pending

    # -- derived structures ----------------------------------------------------

    def opseq(self) -> OpSeq:
        """``Opseq(H)`` — the operation sequence of the history.

        Responses are paired with their pending invocations, and
        operations appear in the order of their response events;
        invocation, commit and abort events (and pending invocations) are
        ignored (Section 3.3).
        """
        if self._opseq_cache is None:
            pending: Dict[str, InvocationEvent] = {}
            ops: List[Operation] = []
            for e in self._events:
                if e.is_invocation:
                    pending[e.txn] = e
                elif e.is_response:
                    ie = pending.pop(e.txn)
                    ops.append(Operation(e.obj, ie.invocation, e.response))
            self._opseq_cache = tuple(ops)
        return self._opseq_cache

    def operations_of(self, txn: str) -> OpSeq:
        """``Opseq(H|A)`` — the operations executed by ``txn``, in order."""
        return self.project_transactions(txn).opseq()

    def permanent(self) -> "History":
        """``permanent(H) = H | Committed(H)`` (Section 3.3)."""
        return self.project_transactions(self.committed())

    def failure_free(self) -> bool:
        """True iff no transaction aborts in the history."""
        return not any(e.is_abort for e in self._events)

    def is_serial(self) -> bool:
        """True iff events of different transactions are not interleaved."""
        seen_complete: Set[str] = set()
        current: Optional[str] = None
        for e in self._events:
            if e.txn != current:
                if e.txn in seen_complete:
                    return False
                if current is not None:
                    seen_complete.add(current)
                current = e.txn
        return True

    def precedes(self) -> FrozenSet[Tuple[str, str]]:
        """``precedes(H)``: pairs ``(A, B)`` with a response of ``B`` after a commit of ``A``.

        ``(A, B) ∈ precedes(H)`` iff there exists an operation invoked by
        ``B`` that responds after ``A`` commits in ``H`` (Section 3.4).
        The events need not occur at the same object.  Well-formedness
        guarantees the result is a partial order (irreflexive here, since
        a committed transaction receives no further responses).
        """
        committed_so_far: Set[str] = set()
        pairs: Set[Tuple[str, str]] = set()
        for e in self._events:
            if e.is_commit:
                committed_so_far.add(e.txn)
            elif e.is_response:
                for a in committed_so_far:
                    if a != e.txn:
                        pairs.add((a, e.txn))
        return frozenset(pairs)

    def commit_order(self) -> Tuple[str, ...]:
        """``Commit-order(H)``: committed transactions by first commit event (Section 5)."""
        seen: Set[str] = set()
        order: List[str] = []
        for e in self._events:
            if e.is_commit and e.txn not in seen:
                seen.add(e.txn)
                order.append(e.txn)
        return tuple(order)

    # -- convenience constructors ------------------------------------------

    @staticmethod
    def of(*events: Event) -> "History":
        """``History.of(e1, e2, ...)`` — build and validate a history."""
        return History(events)


def equivalent(h: History, k: History) -> bool:
    """True iff every transaction performs the same steps in ``h`` as in ``k``.

    ``H`` and ``K`` are equivalent iff ``H|A = K|A`` for every transaction
    ``A`` (Section 3.3).
    """
    txns = h.transactions() | k.transactions()
    return all(
        h.project_transactions(a).events == k.project_transactions(a).events
        for a in txns
    )


def serial_history(h: History, order: Sequence[str]) -> History:
    """``Serial(H, T)`` — the serial history equivalent to ``h`` in the order ``order``.

    ``Serial(H, T) = H|A1 • ... • H|An`` where ``A1..An`` are the
    transactions of ``h`` in the order ``T``.  ``order`` must contain every
    transaction appearing in ``h`` (it may contain extra names, which are
    ignored).
    """
    present = h.transactions()
    missing = present - set(order)
    if missing:
        raise ValueError("order does not cover transactions: %s" % sorted(missing))
    events: List[Event] = []
    for a in order:
        if a in present:
            events.extend(h.project_transactions(a).events)
    return History(events, validate=False)


class HistoryBuilder:
    """A mutable accumulator of events with incremental well-formedness checks.

    The runtime and the object automaton grow histories one event at a
    time; rebuilding and re-validating an immutable :class:`History` per
    event would be quadratic.  The builder validates each appended event
    against per-transaction state in O(1) and can snapshot an immutable
    history at any point — of its own list, or, after :meth:`append_to`,
    ``H|X`` of a system's one list ``H``.

    Handed no list (``append_to(None, X)``, a system built with
    ``history=False``) it keeps the per-transaction state alone: every
    event is still checked, none is stored, and :meth:`snapshot` raises
    :class:`HistoryNotKept`.
    """

    def __init__(self, events: Iterable[Event] = ()):
        #: the list appended to, in order (read it; grow it only through
        #: :meth:`append`): this builder's own, a shared ``H``, or
        #: ``None`` when no event is kept.
        self.events: Optional[List[Event]] = []
        self._obj: Optional[str] = None  # ``X`` once ``events`` is shared
        self._txns: Dict[str, _TxnState] = {}
        self._snapshot_cache: Optional[History] = None
        for e in events:
            self.append(e)

    def __len__(self) -> int:
        return len(self.snapshot())

    def append(self, event: Event) -> None:
        """Append one event, raising :class:`IllFormedHistoryError` on
        violation — checked before anything is written, so a rejected
        event leaves the builder unchanged."""
        events = self.events
        if events is None:
            _step(self._txns, None, event)
            return
        _step(self._txns, len(events), event)
        events.append(event)
        self._snapshot_cache = None

    def append_to(self, events: Optional[List[Event]], obj: str) -> None:
        """Append to the shared list ``events`` from now on, as object
        ``obj``, moving this builder's ``H|obj`` onto its end first; with
        ``events=None``, keep no event from now on."""
        mine = None
        if events is not None:
            mine = self.snapshot().project_objects(obj)
            events.extend(mine)
        self.events = events
        self._obj = obj
        self._snapshot_cache = mine

    def copy(self) -> "HistoryBuilder":
        """An independent builder in the same state, without replaying.

        Rebuilding a builder from a snapshot re-validates every event —
        O(n) per copy.  ``copy`` duplicates the event list (``H|X`` of a
        shared one; none where none is kept) and the per-transaction
        validation state directly, so cloning an automaton
        mid-exploration is O(n) in list copying alone (no re-validation)
        and the per-event work stays O(1).
        """
        twin = HistoryBuilder()
        if self.events is None:
            twin.events = None
        else:
            twin.events = list(self.events if self._obj is None else self.snapshot())
        twin._txns = {txn: st.copy() for txn, st in self._txns.items()}
        twin._snapshot_cache = self._snapshot_cache
        return twin

    def can_append(self, event: Event) -> bool:
        """True iff appending ``event`` would preserve well-formedness."""
        try:
            _step(self._txns, None, event, write=False)
        except IllFormedHistoryError:
            return False
        return True

    def snapshot(self) -> History:
        """An immutable :class:`History` of the events appended so far
        (``H|X`` of a shared list).

        The snapshot is cached until the next append, so repeated reads
        of an unchanged builder (the automaton's ``history`` property in
        inspection-heavy code) cost O(1) instead of copying the event
        list each time.  Other objects' appends leave ``H|X`` as it is.
        :class:`HistoryNotKept` where no event is kept.
        """
        if self._snapshot_cache is None:
            if self.events is None:
                raise HistoryNotKept(
                    "%s keeps no history: its system was built with "
                    "history=False" % self._obj
                )
            history = History(self.events, validate=False)
            if self._obj is not None:
                history = history.project_objects(self._obj)
            self._snapshot_cache = history
        return self._snapshot_cache

    def pending_invocation(self, txn: str) -> Optional[InvocationEvent]:
        st = self._txns.get(txn)
        return st.pending if st is not None else None

    def is_active(self, txn: str) -> bool:
        st = self._txns.get(txn)
        if st is None:
            return True
        return not st.committed_at and not st.aborted_at

    def has_events(self, txn: str) -> bool:
        """Has any event of ``txn`` been appended?"""
        return txn in self._txns

    def has_committed(self, txn: str) -> bool:
        """Has a commit event of ``txn`` been appended?"""
        return bool(self._txns.get(txn, _FRESH).committed_at)

    def has_aborted(self, txn: str) -> bool:
        """Has an abort event of ``txn`` been appended?"""
        return bool(self._txns.get(txn, _FRESH).aborted_at)


def transaction_events(
    txn: str, obj: str, ops: Iterable[Operation], *, do_commit: bool = True
) -> List[Event]:
    """The event sequence of ``txn`` running ``ops`` serially at ``obj``.

    A convenience used by tests and the theorem constructions: each
    operation becomes an invocation event immediately followed by its
    response event, optionally followed by a commit event at ``obj``.
    """
    events: List[Event] = []
    for o in ops:
        events.append(invoke(o.invocation, obj, txn))
        events.append(respond(o.response, obj, txn))
    if do_commit:
        events.append(commit(obj, txn))
    return events
