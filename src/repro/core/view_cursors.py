"""Incremental view maintenance: cursor companions for the recovery views.

``View(H, A)`` is a *from-scratch* function: it rebuilds the whole
operation sequence from the raw event history on every call, and the
object automaton then replays that sequence through the serial
specification — O(n) work per event, O(n²) per trace.  A
:class:`ViewCursor` maintains the same answers under ``invoke / respond /
commit / abort`` deltas, keeping one :class:`~repro.core.automaton_spec.
SpecStateCursor` per view it tracks so that legality and response
queries step the spec NFA by one operation instead of replaying it.

The per-view maintenance rules (each cursor's docstring has the proof
sketch):

========  =======================  ==========================  =================
event     UIP                      DU                          SUIP
========  =======================  ==========================  =================
invoke    no change                no change                   no change
respond   append to the shared     append to the responder's   append to the
          view (all transactions   own tail                    responder's own
          see it)                                              merged view
commit    no change                committed tail moves into   committed tail
                                   the shared prefix; other    splices into the
                                   actives' cursors rebuilt    middle of other
                                   from the prefix cursor      views; rebuild
abort     aborted ops vanish from  aborted tail dropped;       aborted tail
          the middle: rebuild      nobody else saw it          dropped; nobody
          (only rebuild UIP does)                              else saw it
========  =======================  ==========================  =================

So the hot path (respond) is O(1) for every view; rebuilds happen only
on UIP aborts and on DU/SUIP commits that carry operations — exactly the
events after which the view opseq is *not* an extension of its previous
value.

The property suite drives randomized schedules through cursors wrapped
in :class:`repro.reference.CheckedViewCursor` — each answer
cross-validated against the from-scratch :class:`~repro.core.views.View`
and the spec's replaying ``states_after`` — across the full ADT × view ×
conflict matrix.

Views without a registered cursor class fall back to
:class:`RecomputeViewCursor`, which is correct for *any* view at the old
O(n)-per-query cost — so exploratory view functions (the view-synthesis
experiments) keep working unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from .automaton_spec import SpecStateCursor, StateMachineSpec
from .events import (
    AbortEvent,
    CommitEvent,
    Event,
    Invocation,
    InvocationEvent,
    OpSeq,
    Operation,
    ResponseEvent,
)
from .history import HistoryBuilder
from .serial_spec import SerialSpec
from .views import DeferredUpdate, StrictUpdateInPlace, UpdateInPlace, View


class ViewCursor(ABC):
    """Incrementally maintained ``View(H, ·)`` answers for one object.

    The owning automaton feeds every appended event to :meth:`apply` (in
    history order); between events it may ask, for any *active*
    transaction,

    * :meth:`opseq` — the current ``View(H, txn)``,
    * :meth:`responses` — ``Spec.responses(View(H, txn), invocation)``,
    * :meth:`accepts` — ``View(H, txn) · op ∈ Spec``,

    and :meth:`fork` an independent copy for state-space branching.

    Cursors pair responses with their pending invocations themselves, so
    ``apply`` needs only the raw event stream.
    """

    def __init__(self, view: View, spec: SerialSpec, events: Iterable[Event] = ()):
        self.view = view
        self.spec = spec
        self._pending: Dict[str, Invocation] = {}
        for event in events:
            self.apply(event)

    # -- event delta protocol ---------------------------------------------------

    def apply(self, event: Event) -> None:
        """Consume one appended event (must be called in history order)."""
        if isinstance(event, InvocationEvent):
            self._pending[event.txn] = event.invocation
            self._on_invoke(event.txn, event.invocation)
        elif isinstance(event, ResponseEvent):
            invocation = self._pending.pop(event.txn)
            operation = Operation(event.obj, invocation, event.response)
            self._on_respond(event.txn, operation)
        elif isinstance(event, CommitEvent):
            self._on_commit(event.txn)
        elif isinstance(event, AbortEvent):
            self._pending.pop(event.txn, None)
            self._on_abort(event.txn)

    def _on_invoke(self, txn: str, invocation: Invocation) -> None:
        """Invocations never change any view; hook kept for symmetry."""

    @abstractmethod
    def _on_respond(self, txn: str, operation: Operation) -> None: ...

    @abstractmethod
    def _on_commit(self, txn: str) -> None: ...

    @abstractmethod
    def _on_abort(self, txn: str) -> None: ...

    # -- queries ---------------------------------------------------------------

    @abstractmethod
    def opseq(self, txn: str) -> OpSeq:
        """The current ``View(H, txn)`` (``txn`` must be active)."""

    @abstractmethod
    def responses(self, txn: str, invocation: Invocation) -> FrozenSet[Hashable]:
        """``Spec.responses(View(H, txn), invocation)`` without the replay."""

    @abstractmethod
    def accepts(self, txn: str, operation: Operation) -> bool:
        """``View(H, txn) · operation ∈ Spec`` without the replay."""

    @abstractmethod
    def fork(self) -> "ViewCursor":
        """An independent copy sharing no mutable state."""

    def _fork_base_into(self, twin: "ViewCursor") -> None:
        twin.view = self.view
        twin.spec = self.spec
        twin._pending = dict(self._pending)


class UIPCursor(ViewCursor):
    """Update-in-place: one shared view, appended on respond.

    ``UIP(H, A) = Opseq(H | (ACT − Aborted(H)))`` does not depend on
    ``A``: every transaction sees the same current sequence, in execution
    order.  A respond appends the new operation at the end (it is the
    latest response); commits change nothing (committed transactions stay
    in ``ACT − Aborted``); an abort deletes the aborted transaction's
    operations from the *middle* of the sequence, so the shared spec
    cursor is rebuilt — the only rebuild UIP ever does.
    """

    def __init__(self, view: View, spec: StateMachineSpec, events: Iterable[Event] = ()):
        self._ops: List[Tuple[str, Operation]] = []  # (owner txn, op), execution order
        self._spec_cursor = spec.cursor()
        super().__init__(view, spec, events)

    def _on_respond(self, txn: str, operation: Operation) -> None:
        self._ops.append((txn, operation))
        self._spec_cursor.advance(operation)

    def _on_commit(self, txn: str) -> None:
        pass  # committed operations remain visible, in execution order

    def _on_abort(self, txn: str) -> None:
        if any(owner == txn for owner, _ in self._ops):
            self._ops = [(o, op) for o, op in self._ops if o != txn]
            self._spec_cursor.reset(tuple(op for _, op in self._ops))

    def opseq(self, txn: str) -> OpSeq:
        return tuple(op for _, op in self._ops)

    def responses(self, txn: str, invocation: Invocation) -> FrozenSet[Hashable]:
        return self._spec_cursor.responses(invocation)

    def accepts(self, txn: str, operation: Operation) -> bool:
        return self._spec_cursor.accepts(operation)

    def fork(self) -> "UIPCursor":
        twin = UIPCursor.__new__(UIPCursor)
        self._fork_base_into(twin)
        twin._ops = list(self._ops)
        twin._spec_cursor = self._spec_cursor.copy()
        return twin


class DUCursor(ViewCursor):
    """Deferred update: a committed prefix in commit order plus own tails.

    ``DU(H, A) = Opseq(Serial(H|Committed, Commit-order(H))) · Opseq(H|A)``
    is a *concatenation*: the committed prefix is shared by every active
    transaction, and each transaction appends only its own operations.
    One spec cursor tracks the prefix; per-transaction cursors are lazy
    forks of it advanced by the transaction's tail, so

    * respond — O(1): advance the responder's cursor;
    * commit — the committing transaction's tail moves to the end of the
      prefix (advance the prefix cursor by it, each operation exactly
      once over the run); other actives' views change in the middle, so
      their cursors are dropped and lazily rebuilt from the new prefix
      cursor at O(tail) each;
    * abort — drop the aborted tail; nobody else ever saw it.

    A transaction with no operations yet gets its cursor as an O(1) fork
    of the prefix cursor.
    """

    def __init__(self, view: View, spec: StateMachineSpec, events: Iterable[Event] = ()):
        self._prefix_ops: List[Operation] = []
        self._prefix_cursor = spec.cursor()
        self._tails: Dict[str, List[Operation]] = {}
        self._txn_cursors: Dict[str, SpecStateCursor] = {}
        super().__init__(view, spec, events)

    def _cursor_for(self, txn: str) -> SpecStateCursor:
        cursor = self._txn_cursors.get(txn)
        if cursor is None:
            cursor = self._prefix_cursor.copy()
            cursor.advance_seq(self._tails.get(txn, ()))
            self._txn_cursors[txn] = cursor
        return cursor

    def _on_respond(self, txn: str, operation: Operation) -> None:
        self._cursor_for(txn).advance(operation)
        self._tails.setdefault(txn, []).append(operation)

    def _on_commit(self, txn: str) -> None:
        tail = self._tails.pop(txn, None)
        self._txn_cursors.pop(txn, None)
        if tail:
            self._prefix_ops.extend(tail)
            self._prefix_cursor.advance_seq(tail)
            # Every other active view gained the tail *before* its own
            # operations; lazily rebuild from the advanced prefix cursor.
            self._txn_cursors.clear()

    def _on_abort(self, txn: str) -> None:
        self._tails.pop(txn, None)
        self._txn_cursors.pop(txn, None)

    def opseq(self, txn: str) -> OpSeq:
        return tuple(self._prefix_ops) + tuple(self._tails.get(txn, ()))

    def responses(self, txn: str, invocation: Invocation) -> FrozenSet[Hashable]:
        return self._cursor_for(txn).responses(invocation)

    def accepts(self, txn: str, operation: Operation) -> bool:
        return self._cursor_for(txn).accepts(operation)

    def fork(self) -> "DUCursor":
        twin = DUCursor.__new__(DUCursor)
        self._fork_base_into(twin)
        twin._prefix_ops = list(self._prefix_ops)
        twin._prefix_cursor = self._prefix_cursor.copy()
        twin._tails = {txn: list(tail) for txn, tail in self._tails.items()}
        twin._txn_cursors = {
            txn: cursor.copy() for txn, cursor in self._txn_cursors.items()
        }
        return twin


class SUIPCursor(ViewCursor):
    """Strict update-in-place: committed base in execution order plus own tail.

    ``SUIP(H, A) = Opseq(H | (Committed(H) ∪ {A}))`` — like DU in
    *visibility* (other actives invisible) but like UIP in *order*
    (execution order, not commit order).  That order is what makes
    commits expensive here: when ``T`` commits, its operations become
    visible to every other active transaction at their original
    execution positions — splicing into the *middle* of those views — so
    per-transaction cursors are rebuilt from the merged sequence.

    Maintained state: the execution-order log of all non-aborted
    responded operations, each tagged with its owner; a lazily rebuilt
    cursor over the committed-only subsequence (shared by transactions
    with no operations of their own, O(1) to fork); and per-transaction
    cursors advanced on respond.  Aborts drop private state only —
    nobody else ever saw an active transaction's operations.
    """

    def __init__(self, view: View, spec: StateMachineSpec, events: Iterable[Event] = ()):
        self._entries: List[Tuple[str, Operation]] = []  # non-aborted, exec order
        self._committed: Set[str] = set()
        self._tails: Dict[str, List[Operation]] = {}
        self._txn_cursors: Dict[str, SpecStateCursor] = {}
        self._base_cursor: Optional[SpecStateCursor] = None  # committed-only view
        super().__init__(view, spec, events)

    def _committed_opseq(self) -> OpSeq:
        return tuple(op for owner, op in self._entries if owner in self._committed)

    def _base(self) -> SpecStateCursor:
        if self._base_cursor is None:
            self._base_cursor = self.spec.cursor(self._committed_opseq())
        return self._base_cursor

    def _cursor_for(self, txn: str) -> SpecStateCursor:
        cursor = self._txn_cursors.get(txn)
        if cursor is None:
            if self._tails.get(txn):
                cursor = self.spec.cursor(self.opseq(txn))
            else:
                cursor = self._base().copy()
            self._txn_cursors[txn] = cursor
        return cursor

    def _on_respond(self, txn: str, operation: Operation) -> None:
        self._cursor_for(txn).advance(operation)
        self._entries.append((txn, operation))
        self._tails.setdefault(txn, []).append(operation)

    def _on_commit(self, txn: str) -> None:
        tail = self._tails.pop(txn, None)
        self._txn_cursors.pop(txn, None)
        self._committed.add(txn)
        if tail:
            # The committed operations splice into the middle of every
            # other active view; drop all cached cursors for lazy rebuild.
            self._txn_cursors.clear()
            self._base_cursor = None

    def _on_abort(self, txn: str) -> None:
        self._txn_cursors.pop(txn, None)
        if self._tails.pop(txn, None):
            self._entries = [(o, op) for o, op in self._entries if o != txn]

    def opseq(self, txn: str) -> OpSeq:
        committed = self._committed
        return tuple(
            op for owner, op in self._entries if owner in committed or owner == txn
        )

    def responses(self, txn: str, invocation: Invocation) -> FrozenSet[Hashable]:
        return self._cursor_for(txn).responses(invocation)

    def accepts(self, txn: str, operation: Operation) -> bool:
        return self._cursor_for(txn).accepts(operation)

    def fork(self) -> "SUIPCursor":
        twin = SUIPCursor.__new__(SUIPCursor)
        self._fork_base_into(twin)
        twin._entries = list(self._entries)
        twin._committed = set(self._committed)
        twin._tails = {txn: list(tail) for txn, tail in self._tails.items()}
        twin._txn_cursors = {
            txn: cursor.copy() for txn, cursor in self._txn_cursors.items()
        }
        twin._base_cursor = (
            self._base_cursor.copy() if self._base_cursor is not None else None
        )
        return twin


class RecomputeViewCursor(ViewCursor):
    """The correct-for-any-view fallback: recompute from scratch per query.

    Mirrors the event stream into a history and answers every query by
    calling the view and replaying the spec — the pre-cursor O(n) cost.
    Used for view classes without a registered incremental cursor (e.g.
    exploratory views handed to the view synthesizer) and for
    language-style specs, which have no macro-state to step.
    """

    def __init__(self, view: View, spec: SerialSpec, events: Iterable[Event] = ()):
        self._builder = HistoryBuilder()
        super().__init__(view, spec, events)

    def apply(self, event: Event) -> None:
        self._builder.append(event)

    def _on_respond(self, txn: str, operation: Operation) -> None:  # pragma: no cover
        pass

    def _on_commit(self, txn: str) -> None:  # pragma: no cover
        pass

    def _on_abort(self, txn: str) -> None:  # pragma: no cover
        pass

    def opseq(self, txn: str) -> OpSeq:
        return tuple(self.view(self._builder.snapshot(), txn))

    def responses(self, txn: str, invocation: Invocation) -> FrozenSet[Hashable]:
        return self.spec.responses(self.opseq(txn), invocation)

    def accepts(self, txn: str, operation: Operation) -> bool:
        return self.spec.is_legal(self.opseq(txn) + (operation,))

    def fork(self) -> "RecomputeViewCursor":
        twin = RecomputeViewCursor.__new__(RecomputeViewCursor)
        self._fork_base_into(twin)
        twin._builder = HistoryBuilder(self._builder.snapshot())
        return twin


#: View class → incremental cursor class.  Views not listed fall back to
#: :class:`RecomputeViewCursor`.
CURSOR_CLASSES = {
    UpdateInPlace: UIPCursor,
    DeferredUpdate: DUCursor,
    StrictUpdateInPlace: SUIPCursor,
}


def cursor_for_view(
    view: View, spec: SerialSpec, events: Iterable[Event] = ()
) -> ViewCursor:
    """Build the incremental cursor for ``view`` (fallback: recompute)."""
    if isinstance(spec, StateMachineSpec):
        cursor_class = CURSOR_CLASSES.get(type(view), RecomputeViewCursor)
    else:
        # Language-style specs have no macro-state to step; fall back to
        # the from-scratch path (their legality test replays anyway).
        cursor_class = RecomputeViewCursor
    return cursor_class(view, spec, events)
