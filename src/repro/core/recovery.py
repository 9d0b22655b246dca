"""The ``View`` half of an object: recovery managers (Section 5).

``View(H, A)`` is a *from-scratch* function of the whole history; a
:class:`RecoveryManager` maintains its answer — as the *macro-state*
(set of automaton states, so nondeterministic specs work unchanged) the
transaction's next operation runs against — under ``execute / commit /
abort`` deltas, so a legality or response query steps the spec by one
operation instead of replaying the view.  They serve the one
composition of an object: the execute step of
:class:`~repro.core.object_automaton.ObjectAutomaton` — which the
runtime's :class:`~repro.runtime.system.ManagedObject` holds — calls
``on_execute`` / ``on_commit`` / ``on_abort``, and
:meth:`RecoveryManager.apply` does the same from a raw event stream.

========  =======================  ==========================  =================
event     UIP                      DU                          SUIP
========  =======================  ==========================  =================
execute   step the one current     step the executor's own     step the
          state (every             private state               executor's own
          transaction sees it)                                 merged state
commit    no change                intentions applied to the   committed tail
                                   committed base; other       splices into the
                                   actives' cached states      middle of other
                                   dropped, rebuilt lazily     views; rebuild
abort     undo: inverse            intentions dropped; nobody  tail dropped;
          operations (logical) or  else saw them               nobody else saw
          replay of the survivors                              it
========  =======================  ==========================  =================

* :class:`UpdateInPlaceManager` — a single current state and an undo
  strategy: ``logical`` applies the spec's per-operation inverses
  (:meth:`~repro.adts.base.ADT.undo`) in reverse order, O(own
  operations) per abort; ``replay`` re-runs the surviving operations in
  execution order, O(operations ever executed).  ``replay`` *is* the
  abstract UIP view under every conflict relation.  ``logical`` equals
  it only when ``Conflict ⊇ NRBC``: an inverse is applied to the current
  state, which is the replayed one only if the undone operation
  commutes backward past everything executed since.  Under a relation
  with an NRBC pair removed a logical-undo object can keep answering
  where the abstract view is already illegal, so its history may leave
  ``L(I(X, Spec, UIP, Conflict))``
  (``tests/property/test_runtime_refines_automaton.py`` pins both
  sides).  :meth:`View.cursor <repro.core.views.View.cursor>` therefore
  always builds ``replay`` — the "only if" directions of Theorems 9 and
  10 run the automaton under exactly such relations — and ``auto``, the
  runtime's default, picks ``logical`` when the spec supports it.
* :class:`DeferredUpdateManager` — a committed base state (commit order)
  plus one intentions list per active transaction.
* :class:`StrictUpdateInPlaceManager` — committed operations in
  execution order plus the transaction's own.
* :class:`ViewRecoveryManager` — any ``View`` over any spec, recomputed
  from a mirrored history per query: the obviously-right O(history)
  twin, the only path for an unlisted view or a language-style spec, and
  what :func:`repro.reference.opaque_view` forces.

With an under-constrained conflict relation a transaction's view can
become *illegal* (empty macro-state).  The managers do not crash — they
enable no further responses for that transaction, exactly like the
abstract automaton, and the scheduler eventually aborts it.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .automaton_spec import StateMachineSpec
from .events import (
    AbortEvent,
    CommitEvent,
    Event,
    Invocation,
    InvocationEvent,
    OpSeq,
    Operation,
    ResponseEvent,
    abort,
    commit,
    invoke,
    respond,
)
from .history import HistoryBuilder
from .serial_spec import SerialSpec
from .views import DU, SUIP, UIP, DeferredUpdate, StrictUpdateInPlace, UpdateInPlace, View

MacroState = FrozenSet


class RecoveryManager(ABC):
    """The state-reconstruction half of an object."""

    name: str = "recovery"
    #: the ``View`` this manager maintains.
    view: View
    #: drop ``_responses`` at quiescence; a system that keeps no history
    #: sets it on its objects' managers.
    drop_memo_at_quiescence = False

    def __init__(self, spec: StateMachineSpec):
        self.spec = spec
        #: invocations awaiting their response (:meth:`apply` only).
        self._pending: Dict[str, Invocation] = {}
        #: (macro-state, invocation) -> enabled responses.  A function of
        #: the spec alone, so an entry is never invalid and forks share
        #: it.  Under :attr:`drop_memo_at_quiescence` the UIP and DU
        #: managers drop it whenever they hold no live transaction, so it
        #: keeps the states of the current burst of work, not every state
        #: a run passed through.  Only a run that keeps nothing else
        #: gains by that: one that keeps its history holds more than the
        #: memo, and each dropped entry is worked out again.
        self._responses: Dict[Tuple[MacroState, Invocation], FrozenSet] = {}

    @abstractmethod
    def macro(self, txn: str) -> MacroState:
        """The macro-state the transaction's next operation runs against.

        This materializes ``View(H, txn)``: an empty result means the
        view is illegal and no response is enabled.
        """

    @abstractmethod
    def on_execute(self, txn: str, operation: Operation) -> None:
        """Record an executed operation (its response event just occurred)."""

    @abstractmethod
    def on_commit(self, txn: str) -> None:
        """Install/acknowledge the transaction's effects."""

    @abstractmethod
    def on_abort(self, txn: str) -> None:
        """Erase the transaction's effects."""

    @abstractmethod
    def executed_of(self, txn: str) -> Tuple[Operation, ...]:
        """The operations the transaction has executed here, in order.

        Read *before* :meth:`on_commit` (which discards per-transaction
        state): the multiversion store applies exactly these operations
        to the committed macro-state at commit, so version chains stay
        in commit order — the serialization order dynamic atomicity
        guarantees.
        """

    def rebase(self, macro: MacroState) -> None:
        """Forget every transaction and take ``macro`` as the committed
        state — what a crash restart hands the manager."""
        raise NotImplementedError("%s has no crash restart" % self.name)

    def _quiesce(self) -> None:
        """No live transaction is left here: drop the memo if asked to."""
        if self.drop_memo_at_quiescence:
            self._responses.clear()

    def fork(self) -> "RecoveryManager":
        """An independent copy sharing no mutable state (macro-states are
        immutable and shared).  Subclasses copy their own containers."""
        twin = copy.copy(self)
        twin._pending = dict(self._pending)
        return twin

    # -- conveniences ---------------------------------------------------------

    def apply(self, event: Event) -> None:
        """Consume one event of the object's history, in history order.

        Pairs each response with its pending invocation, so the raw
        event stream is all a caller needs; invocations change no view.
        """
        if isinstance(event, InvocationEvent):
            self._pending[event.txn] = event.invocation
        elif isinstance(event, ResponseEvent):
            invocation = self._pending.pop(event.txn)
            self.on_execute(
                event.txn, Operation(event.obj, invocation, event.response)
            )
        elif isinstance(event, CommitEvent):
            self.on_commit(event.txn)
        elif isinstance(event, AbortEvent):
            self._pending.pop(event.txn, None)
            self.on_abort(event.txn)

    def enabled_responses(self, txn: str, invocation: Invocation) -> FrozenSet:
        """The responses legal for the transaction's current view."""
        macro = self.macro(txn)
        responses = self._responses.get((macro, invocation))
        if responses is None:
            responses = self._responses[macro, invocation] = frozenset(
                [
                    response
                    for state in macro
                    for response, _nxt in self.spec.transitions(state, invocation)
                ]
            )
        return responses

    def accepts(self, txn: str, operation: Operation) -> bool:
        """``View(H, txn) · operation ∈ Spec``."""
        return bool(self.spec.step_macro(self.macro(txn), operation))


class UpdateInPlaceManager(RecoveryManager):
    """A current state plus per-transaction undo information."""

    view = UIP

    def __init__(self, spec: StateMachineSpec, *, strategy: str = "auto"):
        super().__init__(spec)
        logical_undo = getattr(spec, "supports_logical_undo", False)
        if strategy == "auto":
            strategy = "logical" if logical_undo else "replay"
        if strategy not in ("logical", "replay"):
            raise ValueError("unknown undo strategy %r" % strategy)
        if strategy == "logical" and not logical_undo:
            raise ValueError(
                "%s does not support logical undo" % type(spec).__name__
            )
        self.strategy = strategy
        self.name = "UIP/%s" % strategy
        #: the replay baseline — the initial state, or, after a crash
        #: restart, the restored committed state.
        self._base: MacroState = spec.initial_macro_state()
        self._current: MacroState = self._base
        #: execution-order log of (txn, operation), aborted entries
        #: removed; kept under ``replay`` only, which is all that reads it.
        self._log: List[Tuple[str, Operation]] = []
        self._undo_stacks: Dict[str, List[Operation]] = {}

    def macro(self, txn: str) -> MacroState:
        return self._current

    @property
    def current_macro(self) -> MacroState:
        """The single current state (as a macro-state) — same for every txn."""
        return self._current

    def on_execute(self, txn: str, operation: Operation) -> None:
        self._current = self.spec.step_macro(self._current, operation)
        if self.strategy == "replay":
            self._log.append((txn, operation))
        self._undo_stacks.setdefault(txn, []).append(operation)

    def on_commit(self, txn: str) -> None:
        # The current state already reflects the transaction; just drop
        # the undo information.
        self._undo_stacks.pop(txn, None)
        if not self._undo_stacks:
            self._quiesce()

    def executed_of(self, txn: str) -> Tuple[Operation, ...]:
        return tuple(self._undo_stacks.get(txn, ()))

    def on_abort(self, txn: str) -> None:
        ops = self._undo_stacks.pop(txn, [])
        if self.strategy == "logical":
            current: Set = set()
            for state in self._current:
                undone = state
                for operation in reversed(ops):
                    undone = self.spec.undo(undone, operation)
                current.add(undone)
            self._current = frozenset(current)
        else:
            self._log = [(t, o) for (t, o) in self._log if t != txn]
            macro = self._base
            for _txn, operation in self._log:
                macro = self.spec.step_macro(macro, operation)
            self._current = macro
        if not self._undo_stacks:
            self._quiesce()

    def rebase(self, macro: MacroState) -> None:
        self._base = macro
        self._current = macro
        self._log = []
        self._undo_stacks = {}
        self._quiesce()

    def fork(self) -> "UpdateInPlaceManager":
        twin = super().fork()
        twin._log = list(self._log)
        twin._undo_stacks = {t: list(ops) for t, ops in self._undo_stacks.items()}
        return twin


class DeferredUpdateManager(RecoveryManager):
    """A committed base state plus one intentions list per transaction."""

    name = "DU/intentions"
    view = DU

    def __init__(self, spec: StateMachineSpec):
        super().__init__(spec)
        self._base: MacroState = spec.initial_macro_state()
        self._intentions: Dict[str, List[Operation]] = {}
        self._cached: Dict[str, MacroState] = {}

    def macro(self, txn: str) -> MacroState:
        cached = self._cached.get(txn)
        if cached is not None:
            return cached
        macro = self._base
        for operation in self._intentions.get(txn, ()):
            macro = self.spec.step_macro(macro, operation)
        self._cached[txn] = macro
        return macro

    @property
    def base_macro(self) -> MacroState:
        """The committed base state (commit order), as a macro-state."""
        return self._base

    def intentions_of(self, txn: str) -> Tuple[Operation, ...]:
        return tuple(self._intentions.get(txn, ()))

    def executed_of(self, txn: str) -> Tuple[Operation, ...]:
        return self.intentions_of(txn)

    def on_execute(self, txn: str, operation: Operation) -> None:
        before = self.macro(txn)  # the private view before this operation
        self._intentions.setdefault(txn, []).append(operation)
        self._cached[txn] = self.spec.step_macro(before, operation)

    def on_commit(self, txn: str) -> None:
        ops = self._intentions.pop(txn, [])
        self._cached.pop(txn, None)
        macro = self._base
        for operation in ops:
            macro = self.spec.step_macro(macro, operation)
        self._base = macro
        # Other transactions' private views depend on the base: invalidate.
        self._cached.clear()
        if not self._intentions:
            self._quiesce()

    def on_abort(self, txn: str) -> None:
        self._intentions.pop(txn, None)
        self._cached.pop(txn, None)
        if not self._intentions:
            self._quiesce()

    def rebase(self, macro: MacroState) -> None:
        self._base = macro
        self._intentions = {}
        self._cached = {}
        self._quiesce()

    def fork(self) -> "DeferredUpdateManager":
        twin = super().fork()
        twin._intentions = {t: list(ops) for t, ops in self._intentions.items()}
        twin._cached = dict(self._cached)
        return twin


class StrictUpdateInPlaceManager(RecoveryManager):
    """Committed operations in execution order plus the transaction's own.

    ``SUIP(H, A) = Opseq(H | (Committed(H) ∪ {A}))`` — like DU in
    *visibility* (other actives invisible) but like UIP in *order*
    (execution order, not commit order).  That order is what makes
    commits expensive here: when ``T`` commits, its operations become
    visible to every other active transaction at their original
    execution positions — splicing into the *middle* of those views — so
    the cached per-transaction states are dropped and rebuilt lazily
    from the merged sequence.  Executing steps the executor's cached
    state by one operation; aborts drop private state only.
    """

    name = "SUIP/merge"
    view = SUIP

    def __init__(self, spec: StateMachineSpec):
        super().__init__(spec)
        #: non-aborted executed operations with their owner, execution order.
        self._entries: List[Tuple[str, Operation]] = []
        self._committed: Set[str] = set()
        self._tails: Dict[str, List[Operation]] = {}
        self._cached: Dict[str, MacroState] = {}
        #: the committed-only view, shared by every transaction with no
        #: operations of its own; None = rebuild on next use.
        self._committed_macro: Optional[MacroState] = None

    def _replay(self, *visible: str) -> MacroState:
        committed = self._committed
        return self.spec.run_macro(
            self.spec.initial_macro_state(),
            [op for t, op in self._entries if t in committed or t in visible],
        )

    def macro(self, txn: str) -> MacroState:
        cached = self._cached.get(txn)
        if cached is None:
            if self._tails.get(txn):
                cached = self._replay(txn)
            else:
                if self._committed_macro is None:
                    self._committed_macro = self._replay()
                cached = self._committed_macro
            self._cached[txn] = cached
        return cached

    def on_execute(self, txn: str, operation: Operation) -> None:
        self._cached[txn] = self.spec.step_macro(self.macro(txn), operation)
        self._entries.append((txn, operation))
        self._tails.setdefault(txn, []).append(operation)

    def on_commit(self, txn: str) -> None:
        self._cached.pop(txn, None)
        self._committed.add(txn)
        if self._tails.pop(txn, None):
            self._cached.clear()
            self._committed_macro = None

    def on_abort(self, txn: str) -> None:
        self._cached.pop(txn, None)
        if self._tails.pop(txn, None):
            self._entries = [(t, op) for t, op in self._entries if t != txn]

    def executed_of(self, txn: str) -> Tuple[Operation, ...]:
        return tuple(self._tails.get(txn, ()))

    def fork(self) -> "StrictUpdateInPlaceManager":
        twin = super().fork()
        twin._entries = list(self._entries)
        twin._committed = set(self._committed)
        twin._tails = {t: list(ops) for t, ops in self._tails.items()}
        twin._cached = dict(self._cached)
        return twin


class ViewRecoveryManager(RecoveryManager):
    """Any ``View`` over any spec, recomputed from scratch per query.

    Mirrors what it is fed into a history (each operation as an
    invocation immediately followed by its response: views are functions
    of ``Opseq``, which orders operations by response) and answers every
    query by calling the view and replaying the spec.  ``macro`` needs a
    :class:`~repro.core.automaton_spec.StateMachineSpec`; the response
    and legality queries work for language-style specs too.
    """

    def __init__(self, spec: SerialSpec, view: View):
        super().__init__(spec)
        self.view = view
        self.name = "view(%s)" % view.name
        self._builder = HistoryBuilder()

    def _opseq(self, txn: str) -> OpSeq:
        return tuple(self.view(self._builder.snapshot(), txn))

    def macro(self, txn: str) -> MacroState:
        return self.spec.states_after(self._opseq(txn))

    def enabled_responses(self, txn: str, invocation: Invocation) -> FrozenSet:
        return self.spec.responses(self._opseq(txn), invocation)

    def accepts(self, txn: str, operation: Operation) -> bool:
        return self.spec.is_legal(self._opseq(txn) + (operation,))

    def on_execute(self, txn: str, operation: Operation) -> None:
        self._builder.append(invoke(operation.invocation, self.spec.name, txn))
        self._builder.append(respond(operation.response, self.spec.name, txn))

    def on_commit(self, txn: str) -> None:
        self._builder.append(commit(self.spec.name, txn))

    def on_abort(self, txn: str) -> None:
        self._builder.append(abort(self.spec.name, txn))

    def executed_of(self, txn: str) -> Tuple[Operation, ...]:
        if not self._builder.is_active(txn):
            return ()
        return self._builder.snapshot().operations_of(txn)

    def fork(self) -> "ViewRecoveryManager":
        twin = super().fork()
        twin._builder = self._builder.copy()
        return twin


def cursor_for_view(
    view: View, spec: SerialSpec, events: Iterable[Event] = ()
) -> RecoveryManager:
    """The manager that maintains ``view`` over ``spec``, fed ``events``.

    Selected by input: the paper's three views over a state-machine spec
    get their incremental class (UIP always with ``replay`` undo — the
    strategy that is the abstract view under *every* conflict relation);
    any other view class, and any language-style spec (no macro-state to
    step), gets :class:`ViewRecoveryManager`.
    """
    kind = type(view) if isinstance(spec, StateMachineSpec) else None
    manager: RecoveryManager
    if kind is UpdateInPlace:
        manager = UpdateInPlaceManager(spec, strategy="replay")
    elif kind is DeferredUpdate:
        manager = DeferredUpdateManager(spec)
    elif kind is StrictUpdateInPlace:
        manager = StrictUpdateInPlaceManager(spec)
    else:
        manager = ViewRecoveryManager(spec, view)
    for event in events:
        manager.apply(event)
    return manager
