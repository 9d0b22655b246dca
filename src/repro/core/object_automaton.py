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

The automaton is a history (a :class:`~repro.core.history.HistoryBuilder`)
plus the two halves of the paper's object: the ``Conflict`` half is a
:class:`~repro.core.lock_manager.LockManager` (precondition 2) and the
``View`` half a :class:`~repro.core.recovery.RecoveryManager`
(precondition 3, maintained under event deltas — O(Δ) amortized per
event instead of recomputing the view and replaying the spec, O(n)) —
by default the one :meth:`View.cursor <repro.core.views.View.cursor>`
hands out.  Which responses are free is one loop,
:meth:`ObjectAutomaton.free_candidates`, and one private execute step
moves history and halves together.  The runtime's
:class:`~repro.runtime.system.ManagedObject` holds an automaton over its
own manager and calls both after choosing a response, so it adds only a
response choice, a version chain and, optionally, a log.  A
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
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from .conflict import ConflictRelation
from .events import (
    AbortEvent,
    CommitEvent,
    Event,
    Invocation,
    Operation,
    ResponseEvent,
    abort,
    commit,
    invoke,
    respond,
)
from .history import History, HistoryBuilder, IllFormedHistoryError
from .lock_manager import LockManager
from .recovery import MacroState, RecoveryManager
from .serial_spec import SerialSpec
from .views import View


_NO_BLOCKERS: FrozenSet[str] = frozenset()


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
    """Executable ``I(X, Spec, View, Conflict)`` for the object ``Spec.name``.

    ``recovery`` is the manager maintaining ``view``; by default the one
    :meth:`View.cursor <repro.core.views.View.cursor>` hands out.  The
    runtime passes its own (logical undo where the spec supports it).
    """

    def __init__(
        self,
        spec: SerialSpec,
        view: View,
        conflict: ConflictRelation,
        recovery: Optional[RecoveryManager] = None,
    ):
        self.spec = spec
        #: the object name ``X``.
        self.name = spec.name
        self.view = view
        self.conflict = conflict
        #: the automaton state: the events so far, validated as appended.
        self.builder = HistoryBuilder()
        self.locks = LockManager(conflict)
        self.recovery = view.cursor(spec) if recovery is None else recovery
        #: (invocation, enabled responses) -> the candidates in trial
        #: order (see :meth:`_candidates`).  A function of the spec alone,
        #: so an entry is never invalid and clones share it.
        self._candidate_memo: Dict[
            Tuple[Invocation, FrozenSet[Hashable]],
            Tuple[Tuple[Hashable, Operation], ...],
        ] = {}

    # -- state access ----------------------------------------------------------

    def clone(self) -> "ObjectAutomaton":
        """An independent copy of the automaton in its current state.

        Exploration tools (e.g. the view synthesizer) branch over many
        continuations of one state; cloning copies the builder's
        validation state and the held locks and forks the recovery
        manager, so branches keep the O(1)-prefix advantage instead of
        re-validating (or replaying the spec over) the shared prefix.
        """
        twin = copy.copy(self)
        twin.builder = self.builder.copy()
        twin.locks = self.locks.copy()
        twin.recovery = self.recovery.fork()
        return twin

    @property
    def history(self) -> History:
        """The automaton state: the events so far at ``X`` — of a
        system's one history, its projection ``H|X``."""
        return self.builder.snapshot()

    def pending_invocation(self, txn: str) -> Optional[Invocation]:
        event = self.builder.pending_invocation(txn)
        return event.invocation if event is not None else None

    def active_transactions(self) -> FrozenSet[str]:
        """Transactions with executed operations or a pending invocation, still active."""
        return self.history.active()

    def operations_of(self, txn: str) -> Sequence[Operation]:
        """The operations (implicit locks) executed by an active transaction."""
        return self.locks.held_by(txn)

    # -- preconditions -----------------------------------------------------------

    def _candidates(
        self, invocation: Invocation, responses: FrozenSet[Hashable]
    ) -> Tuple[Tuple[Hashable, Operation], ...]:
        """``(response, operation)`` per response, smallest response by
        ``repr`` first — the order responses are tried, tie-broken and
        drawn from in."""
        key = (invocation, responses)
        candidates = self._candidate_memo.get(key)
        if candidates is None:
            candidates = self._candidate_memo[key] = tuple(
                [
                    (response, self.spec.operation(invocation, response))
                    for response in sorted(responses, key=repr)
                ]
            )
        return candidates

    def free_candidates(
        self,
        txn: str,
        invocation: Invocation,
        responses: FrozenSet[Hashable],
        extra_blockers=None,
    ) -> Tuple[List[Tuple[Hashable, Operation]], FrozenSet[str]]:
        """Precondition 2 over the view-legal ``responses`` to ``txn``'s
        ``invocation``: the candidates no other active transaction's held
        operation conflicts with, in trial order, and the union of the
        holders blocking the rest — one set, extended candidate by
        candidate, handed back frozen.

        ``extra_blockers`` is an optional callable ``(txn, operation) ->
        holders`` consulted per candidate beside this object's own locks
        (the replication layer's peers)."""
        blocked: Optional[Set[str]] = None
        free: List[Tuple[Hashable, Operation]] = []
        for candidate in self._candidates(invocation, responses):
            operation = candidate[1]
            holders = self.locks.blockers(txn, operation)
            if extra_blockers is not None:
                holders.update(extra_blockers(txn, operation))
            if not holders:
                free.append(candidate)
            elif blocked is None:
                blocked = holders
            else:
                blocked.update(holders)
        return free, _NO_BLOCKERS if blocked is None else frozenset(blocked)

    def _responses(self, txn: str, enabled: bool) -> FrozenSet[Hashable]:
        """The view-legal responses to ``txn``'s pending invocation that
        are free (``enabled``) or blocked by conflicts (not)."""
        pending = self.builder.pending_invocation(txn)
        if pending is None:
            return frozenset()
        responses = self.recovery.enabled_responses(txn, pending.invocation)
        free, _ = self.free_candidates(txn, pending.invocation, responses)
        chosen = {response for response, _operation in free}
        return frozenset({r for r in responses if (r in chosen) == enabled})

    def enabled_responses(self, txn: str) -> FrozenSet[Hashable]:
        """All responses ``R`` for which ``<R, X, txn>`` is enabled now."""
        return self._responses(txn, True)

    def blocked_responses(self, txn: str) -> FrozenSet[Hashable]:
        """Responses legal for the view but blocked purely by conflicts.

        Useful to distinguish "waiting for a lock" from "the operation is
        not enabled by the specification" when driving the automaton.
        """
        return self._responses(txn, False)

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
        self._execute(event, completed)
        return completed

    def _execute(self, event: Event, operation: Optional[Operation] = None) -> None:
        """The transition itself, preconditions already established: append
        ``event`` (well-formedness is checked first), then move the two
        halves — a response (completing ``operation``) takes its lock and
        steps the view; a commit or abort releases the transaction's locks
        and installs or erases its effects."""
        self.builder.append(event)
        txn = event.txn
        if operation is not None:
            self.locks.acquire(txn, operation)
            self.recovery.on_execute(txn, operation)
        elif isinstance(event, CommitEvent):
            self.locks.release_all(txn)
            self.recovery.on_commit(txn)
        elif isinstance(event, AbortEvent):
            self.locks.release_all(txn)
            self.recovery.on_abort(txn)

    def _check_response(self, event: ResponseEvent) -> Operation:
        pending = self.builder.pending_invocation(event.txn)
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

    def restart(self, committed: MacroState) -> None:
        """A crash lost the volatile halves: forget every lock and rebase
        the view on the ``committed`` state restored from stable storage.
        The history is kept."""
        self.locks = LockManager(self.conflict)
        self.recovery.rebase(committed)

    # -- convenience drivers ---------------------------------------------------

    def invoke(self, txn: str, invocation: Invocation) -> None:
        """Deliver an invocation event for ``txn`` (an input: only
        well-formedness constrains it)."""
        self._execute(invoke(invocation, self.name, txn))

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
        """Deliver a commit event for ``txn`` (an input)."""
        self._execute(commit(self.name, txn))

    def abort(self, txn: str) -> None:
        """Deliver an abort event for ``txn`` (an input)."""
        self._execute(abort(self.name, txn))

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
