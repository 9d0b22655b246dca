"""Managed objects and the multi-object transaction system.

:class:`ManagedObject` holds the abstract automaton
``I(X, Spec, View, Conflict)`` — an
:class:`~repro.core.object_automaton.ObjectAutomaton` over the runtime's
recovery manager — and adds only what the paper leaves out: the choice
among the responses the automaton finds free (an rng, a chooser, the
replication layer's ``extra_blockers``), the epoch refused invocations
sleep on, the committed version chain and the trace hook — and,
optionally, a stable log.  Every event goes through the automaton, so
its history is a schedule of the automaton by construction, and can
still be audited post-hoc with the *abstract* checkers
(:func:`repro.core.atomicity.is_dynamic_atomic`).

The log is a part of the object, not a second kind of object: built
with ``log=``, a :class:`ManagedObject` takes the logging discipline
its recovery method implies (:mod:`repro.runtime.wal`: undo/redo
records under update-in-place, forced intentions under deferred
update), does each step's log work in the same method that does the
volatile work — execute, prepare, commit, abort — and can checkpoint,
crash and restart from that log.  Without one it is volatile and those
steps write nothing.

:class:`TransactionSystem` manages several objects and provides the
transaction-facing API (``invoke`` / ``commit`` / ``abort``).  Its
objects append their events to its one history ``H``, in execution
order, and an object's history is the projection ``H|X``.  Commit is
performed with a two-phase protocol: every object touched by the
transaction is asked to *prepare* (vote), and only a unanimous yes leads
to commit events everywhere — the paper's *atomic commitment*
assumption (Section 2), which its model presumes rather than analyzes.
A locking object votes no only while an invocation is pending; one
built with an :class:`~repro.core.conflict.AtCommit` relation never
blocks and votes no when backward validation fails (Section 3.4's
optimistic protocols).  Either way the event order (all responses
before any commit event) matches the model's well-formedness constraints.

The history is the audit record, and only the audits read it: a system
built with ``history=False`` (the open-loop ``drive``) stores no event,
no read-only observation and no snapshot, still checks every event's
well-formedness, and refuses every history query with
:class:`~repro.core.history.HistoryNotKept`; its recovery managers drop
their response memo whenever they hold no live transaction.  Either way
a transaction's failure bookkeeping (the objects it touched) is dropped
when it finishes, so what a plain run keeps grows with what is live.

A crash is an operation of the system, not a kind of system: the paper
treats it as the mass abort of every transaction short of its commit
point.  :meth:`TransactionSystem.crash` fails every object at once, and
the placement subclasses (:mod:`~repro.runtime.sharding`,
:mod:`~repro.runtime.replication`) fail one *failure domain* at a time —
a shard, a site — read off the one map ``domain_of``.  Every form runs
the same in-doubt resolution, ``_resolve_failure``, which refuses to
fail an object that has no stable log to restart from.  A crash aborts
every active transaction (appending their abort events keeps the global
history well formed, so the core checkers can audit executions that
span crashes) and restarts every object, after which new transactions
see exactly the committed state.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..adts.base import ADT
from ..core.conflict import AtCommit, ConflictRelation, EmptyConflict
from ..core.events import Event, Invocation, Operation, abort, commit, respond
from ..core.history import History, HistoryNotKept
from ..core.lock_manager import LockManager
from ..core.object_automaton import ObjectAutomaton
from ..core.recovery import MacroState, RecoveryManager
from .errors import InvalidTransactionState, UnknownObjectError
from .recovery import make_recovery_manager
from .wal import LogDiscipline, RedoOnlyLog, StableLog, UndoRedoLog


class OperationOutcome:
    """Result of attempting one operation at one object: ``status`` is
    ``"ok"`` (with the completed ``operation``), ``"blocked"`` (with the
    conflicting holders, ``blockers``) or ``"stuck"``; ``ok`` is
    ``status == "ok"``, stored at construction.  One is built on every
    attempt, so it is a slotted class rather than a frozen dataclass;
    treat it as a value.  Every ``"stuck"`` result is :data:`STUCK`."""

    __slots__ = ("status", "operation", "blockers", "ok")

    def __init__(
        self,
        status: str,
        operation: Optional[Operation] = None,
        blockers: FrozenSet[str] = frozenset(),
    ):
        self.status = status
        self.operation = operation
        self.blockers = blockers
        self.ok = status == "ok"

    def __repr__(self) -> str:
        return "OperationOutcome(status=%r, operation=%r, blockers=%r)" % (
            self.status, self.operation, self.blockers,
        )


#: the outcome of every attempt the recovery view enables no response to.
STUCK = OperationOutcome("stuck")


class ManagedObject:
    """One object: the automaton ``I(X, Spec, View, Conflict)`` plus a
    response choice, a version chain and, given a stable ``log``, the
    logging discipline its recovery method implies — which makes it
    crashable.  The relation says when ``Conflict`` is enforced: as each
    operation responds, or, an :class:`~repro.core.conflict.AtCommit`
    one, at :meth:`prepare` — the automaton then runs under the empty
    relation, and only deferred update (private workspaces) is taken."""

    def __init__(
        self,
        adt: ADT,
        conflict: ConflictRelation,
        recovery: str = "UIP",
        *,
        uip_strategy: str = "auto",
        restart_policy: str = "replay-winners",
        log: Optional[StableLog] = None,
    ):
        self.adt = adt
        self.conflict = conflict
        at_commit = isinstance(conflict, AtCommit)
        if at_commit and recovery.upper() != "DU":
            raise ValueError("%s validates private workspaces: recovery "
                             "\"DU\", not %r" % (conflict.name, recovery))
        #: backward validation, kept when the relation is enforced at
        #: commit (``None`` elsewhere): txn -> the validation-log position
        #: it started at here; the operations committed here from position
        #: ``_validation_base`` on; txn -> its operations, from its yes
        #: vote here until it completes, aborts or dies.
        self._started: Optional[Dict[str, int]] = {} if at_commit else None
        self._validation_log: Optional[List[Operation]] = [] if at_commit else None
        self._voted: Optional[Dict[str, Tuple[Operation, ...]]] = {} if at_commit else None
        self._validation_base = self.validation_failures = 0
        manager = make_recovery_manager(adt, recovery, uip_strategy=uip_strategy)
        self.automaton = ObjectAutomaton(
            adt, manager.view, EmptyConflict() if at_commit else conflict, manager
        )
        #: the logging discipline over ``log``: forced intentions under
        #: deferred update, undo/redo records otherwise; ``None`` on a
        #: volatile object.
        self.wal: Optional[LogDiscipline] = None
        if log is not None and recovery.upper() == "DU":
            self.wal = RedoOnlyLog(adt, log=log)
        elif log is not None:
            self.wal = UndoRedoLog(adt, restart_policy=restart_policy, log=log)
        #: a forced response choice, set for one call by replication's
        #: mirror and catch-up replay; ``None`` lets the rng choose.
        self._response_chooser = None
        #: moves at every change to the lock table or the view — an
        #: operation executed, a commit, an abort, a restart — and is
        #: never reset.  A refusal is a function of those two halves, so
        #: it stands for as long as this number does: the scheduler parks
        #: a refused invocation on it instead of re-attempting each tick.
        self.epoch = 0
        #: multiversion committed store.  ``_committed_macro`` tracks the
        #: committed macro-state in commit order (advanced at each commit
        #: from the recovery manager's executed operations); the parallel
        #: version-chain lists record it at each global commit sequence
        #: number, so lock-free snapshot reads can resolve any CSN at or
        #: above the prune watermark.  Entry 0 is the initial state.
        self._committed_macro: MacroState = self.adt.initial_macro_state()
        self._version_csns: List[int] = [0]
        self._version_txns: List[Optional[str]] = [None]
        self._version_macros: List[MacroState] = [self._committed_macro]
        #: optional :class:`~repro.runtime.trace.TraceCollector`; set by
        #: ``TraceCollector.bind_system``.  Guarded at every emit site so
        #: the untraced path pays one ``is None`` test.
        self.trace = None

    @property
    def name(self) -> str:
        return self.adt.name

    @property
    def locks(self) -> LockManager:
        """The automaton's ``Conflict`` half."""
        return self.automaton.locks

    @property
    def recovery(self) -> RecoveryManager:
        """The automaton's ``View`` half."""
        return self.automaton.recovery

    def history(self) -> History:
        """The object-local event history: ``H|X`` of its system's ``H``
        (:class:`~repro.core.history.HistoryNotKept` if it keeps none)."""
        return self.automaton.history

    # -- operation execution -------------------------------------------------------

    def try_operation(
        self,
        txn: str,
        invocation: Invocation,
        rng: Optional[random.Random] = None,
        *,
        extra_blockers=None,
    ) -> OperationOutcome:
        """Attempt to execute ``invocation`` for ``txn``.

        The first attempt records the invocation event (the transaction
        is now *pending* here); re-attempts of a blocked invocation do
        not re-record it.  Returns

        * ``ok`` with the completed operation — a response chosen among
          the automaton's enabled ones and executed;
        * ``blocked`` with the conflicting holders — every legal
          response conflicts with another active transaction's held
          operation;
        * ``stuck`` — the recovery view enables no response at all
          (poisoned view under an under-constrained conflict relation).

        ``extra_blockers`` is an optional callable ``(txn, operation) ->
        holders`` consulted per candidate response in addition to this
        object's own lock manager; the replication layer passes it so a
        write is only chosen when it is free at *every* available copy,
        not just the one computing the response.
        """
        automaton = self.automaton
        pending = automaton.builder.pending_invocation(txn)
        if pending is None:
            automaton.invoke(txn, invocation)
            if self._started is not None:
                self._started.setdefault(
                    txn, self._validation_base + len(self._validation_log)
                )
            if self.trace is not None:
                self.trace.emit("op-invoke", txn, self.name, invocation)
        elif pending.invocation is not invocation and pending.invocation != invocation:
            raise InvalidTransactionState(
                "transaction %s is pending %s at %s, not %s"
                % (txn, pending.invocation, self.name, invocation)
            )
        responses = automaton.recovery.enabled_responses(txn, invocation)
        if not responses:
            return STUCK
        free, blocked = automaton.free_candidates(
            txn, invocation, responses, extra_blockers
        )
        if not free:
            if self.trace is not None:
                self._trace_lock_wait(txn, invocation, responses)
            return OperationOutcome("blocked", blockers=blocked)
        if self._response_chooser is not None:
            response, operation = self._response_chooser(free)
        elif rng is not None and len(free) > 1:
            response, operation = rng.choice(free)
        else:
            response, operation = free[0]
        automaton._execute(respond(response, self.name, txn), operation)
        self.epoch += 1
        if self.wal is not None:
            # Write-ahead in spirit: the paper-level automaton applies
            # state and log in one atomic step; the log record is what
            # survives.
            self.wal.on_execute(txn, operation)
        return OperationOutcome("ok", operation=operation)

    def _trace_lock_wait(self, txn, invocation, responses) -> None:
        """Attribute one blocked attempt to its conflict-table entries.

        Recomputes the conflicting holds per candidate response (work
        :meth:`try_operation` deliberately skips on the hot path) and
        emits one ``lock-wait`` event whose ``pairs`` are the distinct
        ``(new_class, held_class)`` conflict-relation entries, tagged
        with the holder.  Labels come from the ADT's operation classes,
        so the report speaks the paper's conflict-table language."""

        def label(operation: Operation) -> str:
            try:
                return self.adt.classify(operation)
            except Exception:
                return str(operation.invocation)

        pairs: List[Tuple[str, str, str]] = []
        seen: Set[Tuple[str, str, str]] = set()
        for _response, operation in self.automaton._candidates(invocation, responses):
            for holder, held in self.locks.conflicting_holds(txn, operation):
                row = (label(operation), label(held), holder)
                if row not in seen:
                    seen.add(row)
                    pairs.append(row)
        self.trace.emit("lock-wait", txn, self.name, tuple(pairs))

    # -- transaction completion -------------------------------------------------------

    def prepare(self, txn: str) -> bool:
        """Two-phase commit vote.  A transaction with a pending invocation
        cannot commit (well-formedness); a locking object has no other
        reason to refuse, because it enforced ``Conflict`` when each
        operation executed.  An object that enforces it at commit votes
        no here when :meth:`_validate` fails.

        With a log, a yes vote requests a flush of the transaction's log
        traffic (UIP operation records; DU intentions as a
        :class:`~repro.runtime.wal.PrepareRecord`) so the commit point
        can be completed at recovery no matter where a crash lands.
        Under group commit the flush may be deferred into a shared
        batch; :meth:`flushed` reports when it has landed."""
        vote = self.automaton.pending_invocation(txn) is None
        if vote and self._started is not None:
            vote = self._validate(txn)
        if vote and self.wal is not None:
            self.wal.on_prepare(txn, self.recovery.executed_of(txn))
        return vote

    def _validate(self, txn: str) -> bool:
        """Backward validation, first committer wins: no operation ``txn``
        executed here may conflict with one committed here since it
        started, nor with one of a yes vote here not yet completed —
        under group commit that transaction commits first."""
        mine = self.recovery.executed_of(txn)
        theirs = self._validation_log[self._started[txn] - self._validation_base:]
        for ops in self._voted.values():
            theirs.extend(ops)
        conflicts = self.conflict.conflicts
        if any(conflicts(op, other) for op in mine for other in theirs):
            self.validation_failures += 1
            return False
        self._voted[txn] = mine
        return True

    def _forget(self, txn: str) -> None:
        """``txn`` finished here: drop its start and its vote."""
        self._started.pop(txn, None)
        self._voted.pop(txn, None)

    def _log_commit(self, txn: str) -> None:
        """``txn`` committed here: its operations join the validation
        log, which drops the prefix no live transaction started before."""
        self._forget(txn)
        log = self._validation_log
        log.extend(self.recovery.executed_of(txn))
        keep = min(self._started.values(), default=self._validation_base + len(log))
        del log[: keep - self._validation_base]
        self._validation_base = keep

    def flushed(self, txn: str) -> bool:
        """Has ``txn``'s latest durability request — the prepare force,
        then the commit record's — reached stable storage?  Trivially
        yes on a volatile object."""
        return self.wal is None or self.wal.flushed(txn)

    def submit_commit(self, txn: str) -> None:
        """Write the durable commit point; acknowledgment is deferred.

        The commit record (or intentions record) is appended and its
        flush requested, but no commit *event* exists yet: if the batch
        is torn off by a crash, the transaction simply never committed
        here, and the crash protocol resolves it from whatever record
        actually reached stable storage — recovery completes, never
        retracts.  A volatile object has nothing to write.
        """
        if self.wal is not None:
            self.wal.on_commit(txn, self.recovery.executed_of(txn))

    def complete_commit(self, txn: str) -> None:
        """Acknowledge a commit whose durability has landed: release
        locks, apply the volatile completion, record the commit event."""
        if self.wal is not None:
            self.wal.on_complete(txn)
        # Log for validation and advance the committed macro-state
        # *before* the recovery manager discards the transaction's
        # executed-operation record.
        if self._started is not None:
            self._log_commit(txn)
        self._advance_committed(txn)
        self.automaton.commit(txn)
        self.epoch += 1

    def commit(self, txn: str) -> None:
        """Commit now — the one path for a commit that may not wait on
        the hold timer (direct object-level use, catch-up replay, an
        in-doubt commit finished at a healthy object): write the commit
        record unless the log already has one, force the log while the
        record's batch is held, then acknowledge."""
        wal = self.wal
        if wal is not None:
            if not wal.has_durable_commit(txn):
                self.submit_commit(txn)
            if not wal.flushed(txn):
                wal.log.force()
        self.complete_commit(txn)

    def abort(self, txn: str) -> None:
        logged = self.wal is not None and self.automaton.builder.has_events(txn)
        if self._started is not None:
            self._forget(txn)
        self.automaton.abort(txn)
        self.epoch += 1
        if logged:
            self.wal.on_abort(txn)

    # -- checkpoint, crash and restart (objects with a log) --------------------------

    def checkpoint(self) -> None:
        """Write a stable snapshot of the committed state and truncate the
        log before it; the log refuses (``RuntimeError``) while a record
        it holds may still be needed."""
        self.wal.checkpoint(self.committed_tip)

    def crash_kill(self, txn: str) -> None:
        """Record that ``txn`` died in a crash.

        Appends the abort *event* (the semantic outcome: the transaction
        takes effect nowhere) but writes **no** log record and performs
        no volatile undo — a real crash gives the system no chance to do
        either.  Restart must therefore treat the transaction as a
        loser purely from the absence of its commit record: the event
        goes into the history alone, and :meth:`crash_and_restart`
        rebuilds both halves.
        """
        events = self.automaton.builder
        # A crash can interrupt a volatile abort after its event was
        # recorded; don't abort twice.
        if not events.has_aborted(txn):
            events.append(abort(self.name, txn))
        if self._started is not None:
            self._forget(txn)  # a dead yes vote fails no later validator

    def crash_commit(self, txn: str) -> None:
        """Complete a commit interrupted by a crash.

        Called at recovery when the transaction's commit point (a
        durable commit record at *some* object it touched) was reached
        before the crash: ensure this object also carries a durable
        commit record and the commit event, so restart replays the
        transaction as a winner everywhere.  The prepare phase forced
        this object's operation records / intentions, so the replay has
        everything it needs.  Like :meth:`crash_kill`, the commit event
        goes into the history alone.
        """
        if not self.wal.has_durable_commit(txn):
            self.wal.recovery_commit(txn)
        events = self.automaton.builder
        if not events.has_committed(txn):
            events.append(commit(self.name, txn))
        if self._started is not None:
            self._log_commit(txn)
        # Fold the winner into the committed macro-state for the version
        # chain.  Idempotent across a crash that landed mid-completion:
        # if the volatile commit already ran here, the recovery manager
        # has dropped the transaction's executed record and this is a
        # no-op.
        self._advance_committed(txn)

    def crash_and_restart(self) -> None:
        """Lose all volatile state; rebuild from the stable log.

        The caller (normally
        :meth:`TransactionSystem._resolve_failure`) is responsible for
        appending abort events for in-flight transactions *before*
        invoking this, so the object history stays consistent.
        """
        self.epoch += 1
        restored = self.wal.restart()
        if self.trace is not None:
            self.trace.emit("recovery", self.name, len(self.wal.log))
        self.automaton.restart(restored)

    # -- multiversion committed store ---------------------------------------------

    def _advance_committed(self, txn: str) -> None:
        """Apply the transaction's executed operations to the committed
        macro-state.  Committed transactions are applied whole, in commit
        order — the serialization the dynamic-atomicity audits check —
        so the resulting chain agrees with the deferred-update base state
        and with the state a crash restart reconstructs from the log."""
        for operation in self.recovery.executed_of(txn):
            self._committed_macro = self.adt.step_macro(
                self._committed_macro, operation
            )

    @property
    def committed_tip(self) -> MacroState:
        """The committed macro-state after every commit so far."""
        return self._committed_macro

    @property
    def versions(self) -> Tuple[Tuple[int, Optional[str], MacroState], ...]:
        """The version chain: ``(csn, committing txn, macro-state)``,
        oldest first.  Entry ``(0, None, initial)`` anchors the chain
        until pruned past."""
        return tuple(
            zip(self._version_csns, self._version_txns, self._version_macros)
        )

    def install_version(self, csn: int, txn: Optional[str] = None) -> None:
        """Stamp the current committed macro-state with a global commit
        sequence number.  Only ever called after the commit became
        durable (a flushed commit record, or a commit record found
        durable during crash recovery), so chains are never retracted:
        a version, once installed, stays visible to snapshot readers."""
        if csn < self._version_csns[-1]:
            raise ValueError(
                "version CSNs must be monotone at %s: got %d after %d"
                % (self.name, csn, self._version_csns[-1])
            )
        if csn == self._version_csns[-1]:
            self._version_txns[-1] = txn
            self._version_macros[-1] = self._committed_macro
            return
        self._version_csns.append(csn)
        self._version_txns.append(txn)
        self._version_macros.append(self._committed_macro)

    def version_at(self, csn: int) -> MacroState:
        """The newest committed version at or below ``csn`` — the state a
        snapshot reader with that start CSN observes.  No locks are
        consulted; the chain only holds durably committed states."""
        index = bisect_right(self._version_csns, csn) - 1
        if index < 0:
            raise InvalidTransactionState(
                "snapshot at csn %d was pruned at %s (oldest retained: %d)"
                % (csn, self.name, self._version_csns[0])
            )
        return self._version_macros[index]

    def read_at(self, csn: int, invocation: Invocation) -> Optional[Operation]:
        """Resolve a read-only invocation against the version at ``csn``.

        Returns the completed operation with the same deterministic
        tie-break as :meth:`try_operation` (smallest response by
        ``repr``), or ``None`` when the snapshot enables no response."""
        responses = frozenset(
            [
                response
                for state in self.version_at(csn)
                for response, _nxt in self.adt.transitions(state, invocation)
            ]
        )
        if not responses:
            return None
        return self.automaton._candidates(invocation, responses)[0][1]

    def prune_versions(self, watermark: int) -> int:
        """Drop versions no active snapshot reader can still need: every
        entry older than the newest one at or below ``watermark`` (the
        minimum start CSN over active read-only transactions).  Returns
        the retained chain length."""
        index = bisect_right(self._version_csns, watermark) - 1
        if index > 0:
            del self._version_csns[:index]
            del self._version_txns[:index]
            del self._version_macros[:index]
        return len(self._version_csns)


class SystemClock:
    """A transaction system's one clock — end-of-tick phases elapsed,
    over every run on the system (a scheduler's own tick restarts at
    each run) — and the heap of ``(due, log position)`` its held
    group-commit batches book into.  An entry is live while that log's
    ``due`` is still that tick; one whose batch filled, was forced or
    died in a crash is stale and is popped when it reaches the head.
    The clock holds no log and no system, so a log's booking hook
    closes no reference cycle: a finished system is freed at once."""

    __slots__ = ("now", "dues")

    def __init__(self) -> None:
        self.now = 0
        self.dues: List[Tuple[int, int]] = []

    def book(self, position: int, max_hold: int) -> int:
        """Book a batch opened now at log ``position``: it is due once
        ``max_hold + 1`` more end-of-tick phases have elapsed."""
        due = self.now + max_hold + 1
        heappush(self.dues, (due, position))
        return due


@dataclass
class _PendingCommit:
    """Commit-pipeline state for one transaction (group commit makes the
    durable work asynchronous, so a commit may span several ticks)."""

    touched: Tuple[str, ...]
    phase: str  # "prepared" (waiting on prepare flushes) | "committing"


class TransactionSystem:
    """Several managed objects plus transaction bookkeeping, 2PC commit
    and failure (:meth:`crash`; one failure domain at a time in the
    placement subclasses), every form through :meth:`_resolve_failure`.

    ``history=False`` keeps no audit record — no ``H``, no read-only
    observations or snapshots — and makes :meth:`history`,
    :meth:`readonly_snapshot` and :meth:`readonly_observations` (and
    every object's ``history()``) raise
    :class:`~repro.core.history.HistoryNotKept`; its objects' recovery
    managers drop their response memo at quiescence.  What runs is the
    same.  The per-transaction bookkeeping of touched objects holds only
    unfinished transactions either way."""

    #: the :class:`~repro.runtime.trace.DomainTrace` that stamps object
    #: and log events with their failure domain; ``None`` leaves a flat
    #: system's events unstamped.
    domain_trace = None

    def __init__(self, objects: Sequence[ManagedObject], *, history: bool = True):
        self.objects: Dict[str, ManagedObject] = {}
        for obj in objects:
            if obj.name in self.objects:
                raise ValueError("duplicate object name %r" % obj.name)
            self.objects[obj.name] = obj
        #: unfinished transaction -> the objects it invoked at; dropped
        #: when the transaction finishes.
        self._touched: Dict[str, Set[str]] = {}
        #: txn -> "committed" | "aborted"; the double-finish guard.
        self._finished: Dict[str, str] = {}
        self._committing: Dict[str, _PendingCommit] = {}
        #: the one history ``H``, which every object's builder appends to
        #: (an object handed over with events brings its ``H|X``);
        #: ``None`` under ``history=False``.
        self._events: Optional[List[Event]] = [] if history else None
        for name, obj in self.objects.items():
            obj.automaton.builder.append_to(self._events, name)
            # Kept nothing else, the memo is what would grow: drop it
            # whenever the object quiesces.
            obj.recovery.drop_memo_at_quiescence = not history
        #: global commit sequence number.  Bumped once per durably
        #: completed commit and stamped across every touched object in
        #: the same synchronous step, so a snapshot CSN cuts the commit
        #: order consistently across all objects (and, under
        #: :class:`~repro.runtime.sharding.ShardedSystem`, all shards).
        self._csn = 0
        #: active read-only transactions: txn -> snapshot CSN.  These
        #: hold no locks and appear in no object history; their reads
        #: resolve against the version chains only.
        self._ro_active: Dict[str, int] = {}
        #: snapshot CSN and observations per read-only txn, kept after
        #: finish for audits; ``None`` under ``history=False``.
        self._ro_snapshots: Optional[Dict[str, int]] = {} if history else None
        self._ro_observations: Optional[
            Dict[str, List[Tuple[str, Operation]]]
        ] = {} if history else None
        #: active read-only txn -> the objects it read; dropped when the
        #: reader finishes.
        self._ro_touched: Dict[str, Set[str]] = {}
        #: optional trace collector (see :class:`ManagedObject.trace`).
        self.trace = None
        #: every stable log, in ``self.objects`` order.
        self._logs = tuple(
            obj.wal.log for obj in self.objects.values() if obj.wal is not None
        )
        self._clock = SystemClock()
        for position, log in enumerate(self._logs):
            log.book_batch = partial(self._clock.book, position, log.policy.max_hold)
            if log.held_batch_size():  # handed over holding a batch
                log.due = log.book_batch()
        #: object name -> failure domain, the objects that fail together.
        #: A flat system is the one domain 0; the placement subclasses
        #: fill it from ``shards=`` / ``sites=``.
        self.domain_of: Dict[str, int] = dict.fromkeys(self.objects, 0)
        #: failures of one domain alone, one counter per domain.
        self.domain_failures: List[int] = [0]
        #: whole-system crashes, which are no one domain's failure.
        self.crash_count = 0

    # -- introspection ------------------------------------------------------------

    def history(self) -> History:
        """The global event history ``H``, in true execution order; an
        object's ``history()`` is its projection ``H|X``.
        :class:`~repro.core.history.HistoryNotKept` under
        ``history=False``."""
        if self._events is None:
            raise HistoryNotKept("this system was built with history=False")
        return History(self._events, validate=False)

    def status(self, txn: str) -> str:
        return self._finished.get(txn, "active")

    def object(self, name: str) -> ManagedObject:
        obj = self.objects.get(name)
        if obj is None:
            raise UnknownObjectError(name)
        return obj

    def domain_objects(self, domain: int) -> List[str]:
        """The names of the objects in failure domain ``domain``, sorted."""
        return sorted(name for name, k in self.domain_of.items() if k == domain)

    # -- tracing -----------------------------------------------------------------

    def bind_trace(self, collector) -> None:
        """Attach ``collector`` to every emit site: the system itself
        (2PC phases, crashes — unstamped, they span domains), every
        managed object (lock-wait attribution) and every stable log
        (force engine).  With a :attr:`domain_trace`, each object and
        its log emit through one proxy stamping the object's domain."""
        self.trace = collector
        stamper = self.domain_trace
        for name, obj in self.objects.items():
            sink = collector
            if stamper is not None:
                sink = stamper(collector, self.domain_of[name])
            obj.trace = sink
            if obj.wal is not None:
                obj.wal.log.trace = sink
                obj.wal.log.trace_name = name

    # -- transaction API ---------------------------------------------------------

    def invoke(
        self,
        txn: str,
        obj_name: str,
        invocation: Invocation,
        rng: Optional[random.Random] = None,
    ) -> OperationOutcome:
        """Attempt one operation at ``obj_name``; its events land in ``H``."""
        self._require_active(txn)
        obj = self.object(obj_name)
        touched = self._touched.get(txn)
        if touched is None:
            touched = self._touched[txn] = set()
        touched.add(obj_name)
        return obj.try_operation(txn, invocation, rng)

    def epoch(self, obj_name: str) -> int:
        """Everything a refused :meth:`invoke` on ``obj_name`` depends
        on, as one monotone number: while it stands, the same attempt
        gets the same refusal with the same blockers."""
        return self.objects[obj_name].epoch

    def commit(self, txn: str) -> bool:
        """Two-phase commit across every object the transaction touched.

        Returns False (and aborts the transaction everywhere) if any
        object votes no: an invocation is still pending somewhere, or
        validation failed at an ``AtCommit`` object.  ``status(txn)`` tells
        that refusal (``"aborted"``) from the stall below (``"active"``).

        Under group commit the durable work is asynchronous: prepare
        votes and commit records ride shared log flushes, so the commit
        may not complete in one call.  While the pipeline is waiting on
        a held batch this returns False with the transaction still
        ``active`` — poll again (the scheduler does, every tick) until
        the batch flushes and the commit is acknowledged.  With the
        default batch-size-1 policy every flush is immediate and one
        call commits, exactly as before.
        """
        pending = self._committing.get(txn)
        if pending is None:
            self._require_active(txn)
            touched = tuple(sorted(self._touched.get(txn, ())))
            for name in touched:
                if not self.object(name).prepare(txn):
                    self.abort(txn)
                    return False
            pending = _PendingCommit(touched, "prepared")
            self._committing[txn] = pending
            if self.trace is not None:
                self.trace.emit("2pc-prepare", txn, touched)
        return self._advance_commit(txn, pending)

    def _advance_commit(self, txn: str, pending: _PendingCommit) -> bool:
        """Drive the commit pipeline as far as durability allows."""
        if pending.phase == "prepared":
            if not all(self.object(n).flushed(txn) for n in pending.touched):
                return False
            # Commit point first: the durable commit records are written
            # (and their flushes requested) at every object before any
            # commit *event* exists anywhere.
            for name in pending.touched:
                self.object(name).submit_commit(txn)
            pending.phase = "committing"
            if self.trace is not None:
                self.trace.emit("2pc-submit", txn)
        if not all(self.object(n).flushed(txn) for n in pending.touched):
            return False
        for name in pending.touched:
            self.object(name).complete_commit(txn)
        del self._committing[txn]
        self._finished[txn] = "committed"
        # The commit records are durable and every object acknowledged:
        # stamp the new committed state across all touched objects under
        # one CSN (this loop is synchronous, so no reader can observe a
        # partially installed cross-shard version).
        self._install_versions(txn, pending.touched)
        # Only now: ``ReplicatedSystem._install_versions`` reads it.
        self._touched.pop(txn, None)
        if self.trace is not None:
            self.trace.emit("2pc-complete", txn)
        return True

    def _install_versions(self, txn: str, names: Sequence[str]) -> int:
        """Advance the global CSN and install the committed version at
        every named object, pruning chains past the snapshot watermark
        (the oldest active read-only start; with no active readers,
        chains keep only the newest version)."""
        self._csn += 1
        watermark = min(self._ro_active.values(), default=self._csn)
        for name in names:
            obj = self.objects[name]
            obj.install_version(self._csn, txn)
            obj.prune_versions(watermark)
        return self._csn

    def _next_due(self) -> Optional[int]:
        """The earliest tick a held batch is due at (stale heads popped)."""
        dues, logs = self._clock.dues, self._logs
        while dues:
            due, position = dues[0]
            if logs[position].due == due:
                return due
            heappop(dues)
        return None

    def tick(self, n: int = 1) -> None:
        """``n`` end-of-tick phases elapse: advance the clock and force
        every held batch now due, in ``self.objects`` order.  ``n > 1``
        jumps dead ticks, so no batch may fall due inside the jump."""
        clock = self._clock
        due = self._next_due()
        if n > 1 and due is not None and due <= clock.now + n:
            raise ValueError(
                "tick(%d) would jump a batch due in %d" % (n, due - clock.now)
            )
        clock.now += n
        while due is not None and due <= clock.now:
            self._logs[heappop(clock.dues)[1]].force()
            due = self._next_due()

    def next_deadline(self) -> Optional[int]:
        """Ticks until the earliest held batch is due, or ``None`` when
        no log holds one — the durability feed of the wake calendar."""
        due = self._next_due()
        return None if due is None else due - self._clock.now

    def force_accounting(self) -> Tuple[int, int, int]:
        """Sum ``(forces, force_requests, forced_records)`` over every
        stable log in the system (zero for volatile-only objects)."""
        forces = requests = records = 0
        for log in self._logs:
            forces += log.forces
            requests += log.force_requests
            records += log.forced_records
        return forces, requests, records

    def force_accounting_by_domain(self) -> List[Dict[str, int]]:
        """``(forces, force_requests, forced_records)`` per failure
        domain, one row per domain keyed by the :attr:`domain_trace`
        field (``shard`` / ``site``; ``domain`` on a flat system)."""
        field = "domain" if self.domain_trace is None else self.domain_trace.field
        rows = [
            {field: k, "forces": 0, "force_requests": 0, "forced_records": 0}
            for k in range(len(self.domain_failures))
        ]
        for name, obj in self.objects.items():
            if obj.wal is None:
                continue
            log = obj.wal.log
            row = rows[self.domain_of[name]]
            row["forces"] += log.forces
            row["force_requests"] += log.force_requests
            row["forced_records"] += log.forced_records
        return rows

    def abort(self, txn: str) -> None:
        self._require_active(txn)
        if txn in self._ro_active:
            # Read-only transactions hold no locks and recorded no object
            # events: dropping the snapshot registration is the whole abort.
            del self._ro_active[txn]
            self._ro_touched.pop(txn, None)
            self._finished[txn] = "aborted"
            return
        self._committing.pop(txn, None)
        # Dropped only once every object aborted: a crash in between
        # must still find the transaction unfinished and touching them.
        for name in sorted(self._touched.get(txn, ())):
            self.object(name).abort(txn)
        self._finished[txn] = "aborted"
        self._touched.pop(txn, None)

    # -- failure -------------------------------------------------------------------

    def crash(self) -> Set[str]:
        """Whole-system crash: lose storage tails, resolve in-doubt
        commits, kill the rest, restart every object.

        :meth:`_resolve_failure` with every object failed — no healthy
        object is left to finish a commit, every commit pipeline dies
        and every active read-only reader with it — after which every
        object loses its volatile state and restarts from its stable
        log.

        Returns the set of transactions killed by the crash (resolved
        commits are *not* victims — their scripts finished).
        """
        failed = list(self.objects)
        victims = self._resolve_failure(failed, "crash")
        self.crash_count += 1
        for name in failed:
            self.objects[name].crash_and_restart()
        return victims

    def checkpoint(self, names: Optional[Sequence[str]] = None) -> None:
        """Checkpoint every object of ``names`` (default: all) with a
        non-empty stable log and no lock holders (UIP needs quiescence)."""
        for name in self.objects if names is None else names:
            obj = self.objects[name]
            if obj.wal is not None and not obj.locks.holders() and len(obj.wal.log):
                obj.checkpoint()

    def _resolve_failure(
        self, failed: Sequence[str], event: str, *domain: int
    ) -> Set[str]:
        """The objects ``failed`` crashed; decide every transaction they
        left in doubt.  Objects not named are healthy: their volatile
        state and their processes are intact.

        Each failed object restarts from its stable log, so one without
        a log is refused first: ``ValueError`` names every such object
        before any log crashes or any transaction is resolved.  Then,
        in order:

        1. commit pipelines that depend on a failed object's log cannot
           proceed: drop them, their transactions are resolved below
           purely from whatever records actually reached storage;
        2. every failed object's stable log loses its volatile tail, in
           the order given (a :class:`~repro.runtime.faults.FaultyStableLog`
           draws per crash, so the order is the caller's to keep) —
           including any *held group-commit batch*, whose records were
           appended but never physically flushed;
        3. read-only snapshot readers that observed a failed object are
           killed (their registration is volatile; no locks, no events);
           when nothing survived, every active reader is.  Readers
           confined to healthy objects continue — version chains only
           hold durably committed versions and are never retracted, so
           their snapshots remain valid;
        4. **in-doubt resolution** for every unfinished transaction that
           touched a failed object: committed iff its commit point was
           reached — a commit record *survives* at any object it
           touched, durable on a failed object's stable log or still
           held (volatile or durable) at a healthy one.  Resolution
           completes, never retracts: a resolved commit finishes
           everywhere (failed objects through the recovery path,
           healthy ones through their commit-now path, which forces a
           held batch before acknowledging) and installs its version
           under a fresh CSN.
           Everything else is killed everywhere: failed objects just
           record the abort event (no undo, no log record — a crash
           gives no chance for either), healthy objects perform a clean
           volatile abort.  One transaction is resolved at every object
           it touched before the next, so ``H`` shows its events together;
        5. the ``event`` trace record lists the failed domain's id (the
           ``domain`` values, none for a whole-system crash), the
           victims and the resolved commits.

        Transactions that never touched a failed object are untouched.
        The failed objects are *not* restarted here — the caller
        restarts them now or leaves them down.
        Returns the transactions killed.
        """
        self._require_logs(failed)
        names = set(failed)
        doomed = [
            txn
            for txn, pending in self._committing.items()
            if names.intersection(pending.touched)
        ]
        for txn in doomed:
            del self._committing[txn]
        for name in failed:
            self.objects[name].wal.log.crash()
        # Both maps hold unfinished transactions only: O(live) scans.
        candidates = [
            txn for txn, touched in self._touched.items() if touched & names
        ]
        victims: Set[str] = set()
        if len(names) == len(self.objects):
            readers = list(self._ro_active)
        else:
            readers = [
                txn
                for txn, observed in self._ro_touched.items()
                if observed & names
            ]
        for txn in sorted(readers):
            del self._ro_active[txn]
            self._ro_touched.pop(txn, None)
            self._finished[txn] = "aborted"
            victims.add(txn)
        resolved: List[str] = []
        for txn in sorted(candidates):
            touched = sorted(self._touched[txn])
            reached_commit_point = any(
                self.objects[name].wal.has_durable_commit(txn)
                for name in touched
            )
            if reached_commit_point:
                for name in touched:
                    if name in names:
                        self.objects[name].crash_commit(txn)
                    else:
                        self.objects[name].commit(txn)
                self._finished[txn] = "committed"
                resolved.append(txn)
                # Durable everywhere it touched: stamp the version under
                # a fresh CSN, as the normal completion would have.
                self._install_versions(txn, touched)
                del self._touched[txn]
            else:
                for name in touched:
                    if name in names:
                        self.objects[name].crash_kill(txn)
                    else:
                        self.objects[name].abort(txn)
                self._finished[txn] = "aborted"
                victims.add(txn)
                del self._touched[txn]
                self._drop_txn(txn)
        if self.trace is not None:
            self.trace.emit(event, *domain, sorted(victims), resolved)
        return victims

    def _require_logs(self, failed: Sequence[str]) -> None:
        """``ValueError`` naming every object of ``failed`` with no stable
        log to restart from."""
        volatile = [name for name in failed if self.objects[name].wal is None]
        if volatile:
            raise ValueError(
                "a failed object restarts from its stable log; none at %s"
                % ", ".join(volatile)
            )

    def _drop_txn(self, txn: str) -> None:
        """Placement bookkeeping for a transaction a failure killed
        (nothing to forget in a flat system)."""

    # -- read-only snapshot transactions ------------------------------------------
    #
    # A read-only transaction never enters the locking protocol: it takes
    # a snapshot CSN at start and resolves every read against the version
    # chains — committed, durable states only.  It serializes at its
    # snapshot point (all writers with CSN <= snapshot before it, all
    # later writers after), so it needs no entries in any LockManager and
    # no NFC/NRBC consultation, and it can never block, deadlock, or be
    # aborted by a writer.  Its reads are audited separately (snapshot
    # consistency) rather than through the object histories.

    def begin_readonly(self, txn: str) -> int:
        """Start a read-only transaction; returns its snapshot CSN."""
        self._require_active(txn)
        if txn in self._touched:
            raise InvalidTransactionState(
                "transaction %s already executed update-path operations; "
                "it cannot become read-only" % txn
            )
        csn = self._ro_active.get(txn)
        if csn is None:
            csn = self._csn
            self._ro_active[txn] = csn
            if self._ro_snapshots is not None:
                self._ro_snapshots[txn] = csn
        return csn

    def snapshot_read(
        self, txn: str, obj_name: str, invocation: Invocation
    ) -> OperationOutcome:
        """One lock-free read against the transaction's snapshot.

        Begins the transaction on first use.  Never returns ``blocked``;
        ``stuck`` only when the snapshot enables no response (possible
        under deliberately under-constrained negative-control relations,
        where the committed state itself can be poisoned)."""
        self._require_active(txn)
        csn = self.begin_readonly(txn)
        obj = self.object(obj_name)
        operation = obj.read_at(csn, invocation)
        if operation is None:
            return STUCK
        self._observe(txn, obj_name, operation)
        if self.trace is not None:
            self.trace.emit("snapshot-read", txn, obj_name, invocation, csn)
        return OperationOutcome("ok", operation=operation)

    def finish_readonly(self, txn: str) -> None:
        """Commit a read-only transaction.  Nothing to make durable and
        no locks to release — it leaves the active-snapshot set (raising
        the prune watermark) and is recorded committed."""
        self._require_active(txn)
        self._ro_active.pop(txn, None)
        self._ro_touched.pop(txn, None)
        self._finished[txn] = "committed"

    def _observe(self, txn: str, name: str, operation: Operation) -> None:
        """Record that reader ``txn`` read ``operation`` at object ``name``."""
        self._ro_touched.setdefault(txn, set()).add(name)
        if self._ro_observations is not None:
            self._ro_observations.setdefault(txn, []).append((name, operation))

    def readonly_snapshot(self, txn: str) -> Optional[int]:
        """The snapshot CSN a read-only txn started at (None if unknown);
        :class:`~repro.core.history.HistoryNotKept` under
        ``history=False``."""
        if self._ro_snapshots is None:
            raise HistoryNotKept("this system was built with history=False")
        return self._ro_snapshots.get(txn)

    def readonly_observations(
        self, txn: str
    ) -> Tuple[Tuple[str, Operation], ...]:
        """Every ``(object, operation)`` the read-only txn observed, in
        order — kept after finish so audits can check snapshot
        consistency against the version chains;
        :class:`~repro.core.history.HistoryNotKept` under
        ``history=False``."""
        if self._ro_observations is None:
            raise HistoryNotKept("this system was built with history=False")
        return tuple(self._ro_observations.get(txn, ()))

    def _require_active(self, txn: str) -> None:
        if txn in self._finished:
            raise InvalidTransactionState(
                "transaction %s already %s" % (txn, self._finished[txn])
            )
