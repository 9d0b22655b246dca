"""The abstract object implementation ``I(X, Spec, View, Conflict)`` (Section 4).

An implementation of an object is modeled as an I/O automaton whose

* inputs are the invocation, commit and abort events involving the object
  (always enabled — they are controlled by transactions, assumed to
  preserve well-formedness),
* outputs are the response events, and
* state is simply the sequence of events so far.

A response event ``<R, X, A>`` is *enabled* exactly when

1. ``A`` has a pending invocation ``I`` (well-formedness),
2. for every other active transaction ``B`` and every operation ``P`` in
   ``Opseq(s|B)``: ``(X:[I,R], P) ∉ Conflict`` — the concurrency-control
   precondition (locks are implicit in executed operations and released
   at commit/abort), and
3. ``View(s, A) · X:[I,R] ∈ Spec(X)`` — the response is legal for the
   serial state the recovery method reconstructs.

:class:`ObjectAutomaton` makes the automaton executable: it can step
through events (validating response preconditions), enumerate the enabled
responses in a state, and decide language membership for complete
histories (``H ∈ L(I(X, Spec, View, Conflict))``), which is what the
theorem machinery needs.  :func:`generate_trace` drives the automaton
with randomized scheduling to sample its language.

The automaton is a history plus the two halves of the paper's object,
and owns neither: the ``Conflict`` half is a
:class:`~repro.core.lock_manager.LockManager` (precondition 2) and the
``View`` half the :class:`~repro.core.recovery.RecoveryManager` that
:meth:`View.cursor <repro.core.views.View.cursor>` hands out
(precondition 3, maintained under event deltas — O(Δ) amortized per
event instead of recomputing the view and replaying the spec, O(n)).
The runtime's :class:`~repro.runtime.system.ManagedObject` composes the
same two classes with a response choice, a version chain and a log.  A
view (or spec) without an incremental manager gets the from-scratch
:class:`~repro.core.recovery.ViewRecoveryManager`;
:func:`repro.reference.opaque_view` forces that path for a known view,
which is the equality oracle of the property suite and the EXP-C13
baseline.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set

from .conflict import ConflictRelation
from .events import (
    AbortEvent,
    CommitEvent,
    Event,
    Invocation,
    InvocationEvent,
    Operation,
    ResponseEvent,
    abort,
    commit,
    invoke,
    respond,
)
from .history import History, HistoryBuilder, IllFormedHistoryError
from .lock_manager import LockManager
from .serial_spec import SerialSpec
from .views import View


class ResponseNotEnabled(RuntimeError):
    """A response event's precondition failed.

    ``reason`` is one of ``"no-pending"``, ``"conflict"`` or
    ``"not-legal"``, mirroring the three preconditions.
    """

    def __init__(self, event: ResponseEvent, reason: str, detail: str = ""):
        message = "response %s not enabled (%s)" % (event, reason)
        if detail:
            message += ": " + detail
        super().__init__(message)
        self.event = event
        self.reason = reason


class ObjectAutomaton:
    """Executable ``I(X, Spec, View, Conflict)`` for the object ``Spec.name``."""

    def __init__(self, spec: SerialSpec, view: View, conflict: ConflictRelation):
        self.spec = spec
        self.view = view
        self.conflict = conflict
        self._builder = HistoryBuilder()
        self.locks = LockManager(conflict)
        self.recovery = view.cursor(spec)

    # -- state access ----------------------------------------------------------

    @property
    def name(self) -> str:
        """The object name ``X``."""
        return self.spec.name

    def clone(self) -> "ObjectAutomaton":
        """An independent copy of the automaton in its current state.

        Exploration tools (e.g. the view synthesizer) branch over many
        continuations of one state; cloning copies the builder's
        validation state and the held locks and forks the recovery
        manager, so branches keep the O(1)-prefix advantage instead of
        re-validating (or replaying the spec over) the shared prefix.
        """
        twin = copy.copy(self)
        twin._builder = self._builder.copy()
        twin.locks = self.locks.copy()
        twin.recovery = self.recovery.fork()
        return twin

    @property
    def history(self) -> History:
        """The automaton state: the history of events so far."""
        return self._builder.snapshot()

    def pending_invocation(self, txn: str) -> Optional[Invocation]:
        event = self._builder.pending_invocation(txn)
        return event.invocation if event is not None else None

    def active_transactions(self) -> FrozenSet[str]:
        """Transactions with executed operations or a pending invocation, still active."""
        return self.history.active()

    def operations_of(self, txn: str) -> Sequence[Operation]:
        """The operations (implicit locks) executed by an active transaction."""
        return self.locks.held_by(txn)

    # -- preconditions -----------------------------------------------------------

    def enabled_responses(self, txn: str) -> FrozenSet[Hashable]:
        """All responses ``R`` for which ``<R, X, txn>`` is enabled now."""
        pending = self._builder.pending_invocation(txn)
        if pending is None:
            return frozenset()
        candidates = self.recovery.enabled_responses(txn, pending.invocation)
        enabled: Set[Hashable] = set()
        for response in candidates:
            operation = self.spec.operation(pending.invocation, response)
            if not self.locks.blockers(txn, operation):
                enabled.add(response)
        return frozenset(enabled)

    def blocked_responses(self, txn: str) -> FrozenSet[Hashable]:
        """Responses legal for the view but blocked purely by conflicts.

        Useful to distinguish "waiting for a lock" from "the operation is
        not enabled by the specification" when driving the automaton.
        """
        pending = self._builder.pending_invocation(txn)
        if pending is None:
            return frozenset()
        candidates = self.recovery.enabled_responses(txn, pending.invocation)
        blocked: Set[Hashable] = set()
        for response in candidates:
            operation = self.spec.operation(pending.invocation, response)
            if self.locks.blockers(txn, operation):
                blocked.add(response)
        return frozenset(blocked)

    # -- stepping ---------------------------------------------------------------

    def step(self, event: Event) -> Optional[Operation]:
        """Apply one event, enforcing the automaton's transition relation.

        Input events (invocation/commit/abort) are accepted whenever they
        preserve well-formedness; response events must additionally satisfy
        the conflict and legality preconditions, else
        :class:`ResponseNotEnabled` is raised and the state is unchanged.

        Returns the completed :class:`Operation` for response events
        (None for the other kinds), so callers need not rebuild it from
        the history.
        """
        if event.obj != self.name:
            raise ValueError(
                "event %s does not involve object %s" % (event, self.name)
            )
        completed: Optional[Operation] = None
        if isinstance(event, ResponseEvent):
            completed = self._check_response(event)
        self._builder.append(event)
        self.recovery.apply(event)
        if completed is not None:
            self.locks.acquire(event.txn, completed)
        elif isinstance(event, (CommitEvent, AbortEvent)):
            self.locks.release_all(event.txn)
        return completed

    def _check_response(self, event: ResponseEvent) -> Operation:
        pending = self._builder.pending_invocation(event.txn)
        if pending is None:
            raise ResponseNotEnabled(event, "no-pending")
        operation = self.spec.operation(pending.invocation, event.response)
        holders = self.locks.blockers(event.txn, operation)
        if holders:
            raise ResponseNotEnabled(
                event,
                "conflict",
                "conflicts with active transaction %s" % ", ".join(sorted(holders)),
            )
        if not self.recovery.accepts(event.txn, operation):
            raise ResponseNotEnabled(
                event,
                "not-legal",
                "View(s, %s)·%s is not in Spec" % (event.txn, operation),
            )
        return operation

    # -- convenience drivers ---------------------------------------------------

    def invoke(self, txn: str, invocation: Invocation) -> None:
        """Deliver an invocation event for ``txn``."""
        self.step(invoke_event(invocation, self.name, txn))

    def respond(self, txn: str, response: Hashable) -> Operation:
        """Deliver a response event; returns the completed operation."""
        completed = self.step(respond(response, self.name, txn))
        assert completed is not None  # response events always complete an op
        return completed

    def try_respond(self, txn: str) -> Optional[Operation]:
        """Respond with an arbitrary enabled response, or None if blocked."""
        enabled = self.enabled_responses(txn)
        if not enabled:
            return None
        response = min(enabled, key=repr)  # deterministic choice
        return self.respond(txn, response)

    def commit(self, txn: str) -> None:
        """Deliver a commit event for ``txn``."""
        self.step(commit(self.name, txn))

    def abort(self, txn: str) -> None:
        """Deliver an abort event for ``txn``."""
        self.step(abort(self.name, txn))

    # -- language membership -------------------------------------------------------

    @classmethod
    def accepts(
        cls,
        spec: SerialSpec,
        view: View,
        conflict: ConflictRelation,
        history: History,
    ) -> bool:
        """``history ∈ L(I(X, Spec, View, Conflict))``?"""
        return cls.explain_rejection(spec, view, conflict, history) is None

    @classmethod
    def explain_rejection(
        cls,
        spec: SerialSpec,
        view: View,
        conflict: ConflictRelation,
        history: History,
    ) -> Optional[str]:
        """None if the history is a schedule of the automaton, else a reason."""
        automaton = cls(spec, view, conflict)
        for i, event in enumerate(history):
            try:
                automaton.step(event)
            except ResponseNotEnabled as exc:
                return "event %d: %s" % (i, exc)
            except IllFormedHistoryError as exc:
                return "event %d: ill-formed (%s)" % (i, exc)
        return None


def invoke_event(invocation: Invocation, obj: str, txn: str) -> InvocationEvent:
    """Alias of :func:`repro.core.events.invoke` kept local to avoid shadowing."""
    return invoke(invocation, obj, txn)


@dataclass
class TransactionProgram:
    """A straight-line transaction script for trace generation.

    ``invocations`` are issued in order; the transaction requests commit
    after the last response (unless aborted along the way).
    """

    txn: str
    invocations: Sequence[Invocation]


def generate_trace(
    spec: SerialSpec,
    view: View,
    conflict: ConflictRelation,
    programs: Sequence[TransactionProgram],
    rng: random.Random,
    *,
    abort_probability: float = 0.0,
    max_steps: int = 10_000,
) -> History:
    """Sample a history from ``L(I(X, Spec, View, Conflict))``.

    A randomized scheduler interleaves the given transaction programs:
    at each step it picks uniformly among the enabled moves — issuing a
    program's next invocation, responding (with a random enabled
    response) to a pending invocation, committing a finished transaction,
    or (with ``abort_probability``) aborting an unfinished one.  Blocked
    transactions (pending invocation, no enabled response) simply wait;
    if every remaining transaction is blocked, they are aborted so that
    the trace terminates.

    Enabled-response sets are cached between steps and invalidated only
    by events that can change them: a respond/commit/abort touching the
    object invalidates everything (views and implicit locks move), while
    an invocation invalidates only the invoking transaction (it adds a
    pending invocation and nothing else).  The cache never changes which
    set a step observes, so sampled traces are byte-identical for a
    fixed seed, with or without it.

    Every returned history is, by construction, a schedule of the
    automaton — this is the sampling backend for the "if" directions of
    Theorems 9 and 10 in the test suite and benchmarks.
    """
    automaton = ObjectAutomaton(spec, view, conflict)
    progress: Dict[str, int] = {p.txn: 0 for p in programs}
    by_txn: Dict[str, TransactionProgram] = {p.txn: p for p in programs}
    finished: Set[str] = set()  # committed or aborted
    enabled_cache: Dict[str, FrozenSet[Hashable]] = {}

    for _step in range(max_steps):
        moves: List = []
        for txn, program in by_txn.items():
            if txn in finished:
                continue
            pending = automaton.pending_invocation(txn)
            if pending is not None:
                enabled = enabled_cache.get(txn)
                if enabled is None:
                    enabled = automaton.enabled_responses(txn)
                    enabled_cache[txn] = enabled
                for response in enabled:
                    moves.append(("respond", txn, response))
                if abort_probability > 0 and rng.random() < abort_probability:
                    moves.append(("abort", txn, None))
            else:
                index = progress[txn]
                if index < len(program.invocations):
                    moves.append(("invoke", txn, program.invocations[index]))
                    if abort_probability > 0:
                        moves.append(("abort", txn, None))
                else:
                    moves.append(("commit", txn, None))
        if not moves:
            # Every remaining transaction is blocked on a conflict.  Abort
            # one (releasing its implicit locks may unblock the others)
            # and keep going.
            stuck = sorted(t for t in by_txn if t not in finished)
            if not stuck:
                break
            victim = rng.choice(stuck)
            automaton.abort(victim)
            finished.add(victim)
            enabled_cache.clear()
            continue
        kind, txn, payload = rng.choice(moves)
        if kind == "invoke":
            automaton.invoke(txn, payload)
            progress[txn] += 1
            # An invocation changes no view and holds no locks: only the
            # invoking transaction's own enabled set is new.
            enabled_cache.pop(txn, None)
        elif kind == "respond":
            automaton.respond(txn, payload)
            enabled_cache.clear()
        elif kind == "commit":
            automaton.commit(txn)
            finished.add(txn)
            enabled_cache.clear()
        elif kind == "abort":
            automaton.abort(txn)
            finished.add(txn)
            enabled_cache.clear()
        if len(finished) == len(by_txn):
            break
    return automaton.history
