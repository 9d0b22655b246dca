"""Crash recovery: stable logs, checkpoints, crash injection and restart.

The paper analyzes recovery from transaction *aborts* and explicitly
defers crash recovery, noting that "crash recovery mechanisms are
frequently similar to abort recovery mechanisms" (Section 1).  This
module builds that deferred piece for both recovery families, on the
simulated storage hierarchy the rest of the runtime uses:

* **volatile state** — the recovery manager's materialized macro-state
  and lock tables; lost at a crash;
* **stable log** — an append-only record list that survives crashes;
* **checkpoints** — optional stable snapshots enabling log truncation.

Logging disciplines, one per recovery method:

* :class:`UndoRedoLog` (update-in-place) — write-ahead: every operation
  is logged *before* it is applied to the current state; commit and
  abort append their own records.  Restart offers two equivalent
  policies, both checked against the abstract views in the tests:

  - ``"replay-winners"`` — rebuild from the last checkpoint by applying
    only committed transactions' operations, in execution order (this
    *is* the UIP view of the post-crash history);
  - ``"redo-undo"`` — ARIES-flavored: repeat history (apply everything),
    then undo loser transactions' operations in reverse log order with
    the ADT's logical undo.  Requires ``supports_logical_undo``.

* :class:`RedoOnlyLog` (deferred update) — intentions lists live in
  volatile memory; commit atomically forces one record carrying the
  whole intentions list.  Restart replays committed intentions in
  commit order — the DU view of the post-crash history.  Losers need no
  log I/O at all, which is the classic DU trade: cheap aborts and
  crashes, more expensive commits.

Crashing is modeled at the object level by a
:class:`~repro.runtime.system.ManagedObject` built with a stable log
(which builds the discipline its recovery method implies) and at the
system level by :meth:`~repro.runtime.system.TransactionSystem.crash`; a
crash aborts every in-flight transaction (their abort events make the
post-crash history well formed and auditable by the core checkers).

**Group commit** (:class:`GroupCommitPolicy`): the FORCE discipline
above costs one physical flush per prepare and per commit.  The stable
log therefore separates the durability *request*
(:meth:`StableLog.request_force`, which returns a ticket) from the
physical flush (batch full, hold-timer expiry, or an explicit
:meth:`StableLog.force`), letting concurrent transactions share one
flush.  Correctness is preserved by the acknowledgment rule: a commit
event may only be emitted once the ticket of its commit record's batch
is satisfied — commit-point-first ordering with the commit point simply
riding a shared flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..adts.base import ADT
from ..core.events import Operation

MacroState = FrozenSet


@dataclass(frozen=True)
class GroupCommitPolicy:
    """When do ``force()`` requests reach the platter?

    * ``batch_size`` — a physical flush fires as soon as this many force
      requests have coalesced into the held batch;
    * ``max_hold`` — a short batch flushes anyway once this many
      scheduler ticks have passed since the first request joined it
      (``0`` = flush on the next tick boundary), so a lone committer is
      never parked indefinitely waiting for company.

    ``batch_size=1`` flushes every request immediately and reproduces
    the classic one-force-per-commit discipline byte for byte: the same
    physical flushes at the same interaction points, and appends stay
    durable-on-append in the base log.  Any larger batch size makes
    durability *asynchronous* relative to the request: the caller gets a
    ticket (see :meth:`StableLog.request_force`) and must not
    acknowledge its commit until the ticket's batch has flushed.
    """

    batch_size: int = 1
    max_hold: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_hold < 0:
            raise ValueError("max_hold must be >= 0")

    @property
    def is_batching(self) -> bool:
        """True when force requests may be held (durability is deferred)."""
        return self.batch_size > 1


@dataclass(frozen=True)
class LogRecord:
    """Base class for stable-log records."""

    lsn: int


@dataclass(frozen=True)
class OperationRecord(LogRecord):
    """UIP write-ahead record: ``txn`` executed ``operation``."""

    txn: str = ""
    operation: Operation = None


@dataclass(frozen=True)
class CommitRecord(LogRecord):
    """The transaction committed (forced at commit time)."""

    txn: str = ""


@dataclass(frozen=True)
class AbortRecord(LogRecord):
    """The transaction aborted (its effects were undone in volatile state)."""

    txn: str = ""


@dataclass(frozen=True)
class IntentionsRecord(LogRecord):
    """DU commit record: the transaction's entire intentions list."""

    txn: str = ""
    operations: Tuple[Operation, ...] = ()


#: The record types that mark a commit point, in either logging
#: discipline (:class:`UndoRedoLog` never writes an intentions record).
COMMIT_MARKERS = (CommitRecord, IntentionsRecord)


@dataclass(frozen=True)
class PrepareRecord(LogRecord):
    """DU prepare record: the intentions list, forced at prepare time.

    Written by the two-phase commit path so the transaction's effects
    are durable *before* any commit record exists anywhere — the commit
    point can then be completed at recovery even if the crash interrupts
    the commit phase.  A :class:`CommitRecord` seals it; a dangling
    prepare (no commit record) is presumed aborted at restart.
    """

    txn: str = ""
    operations: Tuple[Operation, ...] = ()


@dataclass(frozen=True)
class CheckpointRecord(LogRecord):
    """A stable snapshot of the object's macro-state.

    For UIP the snapshot must only contain *committed* effects (taken
    when no transaction is active), so restart never needs log records
    older than the last checkpoint.
    """

    macro: MacroState = frozenset()


class StableLog:
    """An append-only, crash-surviving record list with truncation.

    Durability is requested through the **group-commit engine**: callers
    that need the buffered tail on stable storage call
    :meth:`request_force` and receive a *ticket*; the physical flush
    happens when the held batch reaches ``policy.batch_size`` requests
    or when it falls due, whichever comes first: a batch opened while
    the owning system's clock reads ``c`` records in :attr:`due` that
    it is due at tick ``c + max_hold + 1``, and the system forces it
    then.  :meth:`flushed` answers whether a
    ticket's batch has completed — only then may the requester
    acknowledge whatever the flush was protecting.  With the default
    policy every request flushes immediately, which is exactly the old
    one-``force()``-per-commit behavior.
    """

    def __init__(self, *, policy: GroupCommitPolicy = None) -> None:
        self._records: List[LogRecord] = []
        self._next_lsn = 0
        self.policy = policy if policy is not None else GroupCommitPolicy()
        self.forces = 0  # physical flushes (the cost-model headline)
        self.force_requests = 0  # logical durability requests
        self.forced_records = 0  # records newly covered by a physical flush
        self._flushed = 0  # records[:_flushed] covered by a physical flush
        self._pending_forces = 0  # requests waiting in the held batch
        self._flush_seq = 0  # completed physical flushes (the ticket clock)
        #: optional trace collector + the object name to stamp events
        #: with (set by ``TraceCollector.bind_system``).
        self.trace = None
        self.trace_name = ""
        #: the tick, on the owning system's clock, the held batch is
        #: due at; ``None`` while no batch is held or no system owns it.
        self.due: Optional[int] = None
        #: set by the owning transaction system: ``book_batch()`` books a
        #: batch opened now and returns the tick it is due at.
        self.book_batch = None
        self._last_batch = 0  # requests served by the in-flight flush

    def append(self, make_record) -> LogRecord:
        """Append ``make_record(lsn)``; returns the record."""
        record = make_record(self._next_lsn)
        self._records.append(record)
        self._next_lsn += 1
        return record

    # -- group commit ---------------------------------------------------------

    def request_force(self) -> int:
        """Join the held batch; returns the ticket its flush will satisfy.

        The ticket is satisfied (:meth:`flushed`) once the batch's
        physical flush completes — which may be immediately (the batch
        filled), at the tick it is due, or via an explicit
        :meth:`force`.  Callers must not acknowledge a commit
        whose ticket is still unsatisfied.
        """
        self.force_requests += 1
        self._pending_forces += 1
        ticket = self._flush_seq + 1
        # Emit before any flush: a full batch forces immediately, and
        # under fault injection that flush may crash the process — the
        # request still happened and must reconcile.
        if self.trace is not None:
            self.trace.emit("force-request", self.trace_name, ticket)
        if self._pending_forces >= self.policy.batch_size:
            self.force()
        elif self._pending_forces == 1 and self.book_batch is not None:
            self.due = self.book_batch()
        return ticket

    def flushed(self, ticket: int) -> bool:
        """Has the physical flush satisfying ``ticket`` completed?"""
        return ticket <= self._flush_seq

    def held_batch_size(self) -> int:
        """Force requests currently waiting in the held batch."""
        return self._pending_forces

    def force(self) -> None:
        """A synchronous physical flush, absorbing any held batch.

        The flush sequence number advances only after the physical flush
        returns: a flush torn by a crash satisfies **no** tickets, so no
        commit riding the batch is ever acknowledged ahead of its
        durability.
        """
        self._last_batch = self._pending_forces
        self._pending_forces = 0
        self.due = None
        self._physical_force()
        self._flush_seq += 1

    def _physical_force(self) -> None:
        """One device flush (the base log is in-memory; we only count)."""
        newly = self._persist(len(self._records))
        self.forces += 1
        if self.trace is not None:
            self.trace.emit("force", self.trace_name, self._last_batch, newly)

    def _persist(self, upto: int) -> int:
        """Move the flush cursor to ``records[:upto]``; returns how many
        records it newly covers."""
        newly = upto - self._flushed
        self.forced_records += newly
        self._flushed = upto
        return newly

    # -- storage --------------------------------------------------------------

    def records(self) -> Tuple[LogRecord, ...]:
        return tuple(self._records)

    def truncate_before(self, lsn: int) -> int:
        """Drop records with LSN < ``lsn``; returns how many were dropped."""
        kept = [r for r in self._records if r.lsn >= lsn]
        dropped = len(self._records) - len(kept)
        self._records = kept
        self._flushed = max(0, self._flushed - dropped)
        return dropped

    def crash(self) -> int:
        """Lose any volatile buffer; returns records lost.

        The base log is durable-on-append under the default policy, so a
        crash loses nothing.  When group commit holds batches
        (``policy.is_batching``), records past the last physical flush
        are the volatile tail and die with the process — exactly the
        acknowledgment-vs-durability gap the ticket protocol exists to
        police.  :class:`~repro.runtime.faults.FaultyStableLog` models
        the full volatile tail and overrides this.
        """
        self._pending_forces = 0
        self.due = None
        if not self.policy.is_batching:
            lost = 0
        else:
            lost = len(self._records) - self._flushed
            self._records = self._records[: self._flushed]
        if self.trace is not None:
            self.trace.emit("log-crash", self.trace_name, lost)
        return lost

    def recovery_append(self, make_record) -> LogRecord:
        """Append durably during recovery (fault injection does not apply)."""
        record = self.append(make_record)
        self._flushed = len(self._records)
        return record

    def __len__(self) -> int:
        return len(self._records)


class LogDiscipline:
    """What both logging disciplines share: the commit-point rule
    (:data:`COMMIT_MARKERS`), the per-transaction group-commit tickets
    and the checkpoint.  Restart is each discipline's own: redo-only
    restart reads the whole log, while undo/redo restart replays only
    the tail after the last checkpoint.  A checkpoint truncates the log
    before itself, so it is refused while a record there may still be
    needed: while any transaction that wrote to this log has not yet
    completed."""

    def __init__(self, adt: ADT, *, log: Optional[StableLog] = None):
        self.adt = adt
        self.log = log if log is not None else StableLog()
        #: every transaction that has written a record to this log and
        #: not yet completed (acknowledged commit, abort or restart) ->
        #: the group-commit ticket of its latest durability request —
        #: the prepare force, then the commit record's (0 before either).
        self._tickets: Dict[str, int] = {}

    def flushed(self, txn: str) -> bool:
        """Has the flush of ``txn``'s latest durability request
        completed?"""
        return self.log.flushed(self._tickets.get(txn, 0))

    def on_complete(self, txn: str) -> None:
        """The commit is acknowledged: ``txn`` needs nothing more here."""
        self._tickets.pop(txn, None)

    def commit_lsn(self, txn: str) -> Optional[int]:
        """The LSN of the transaction's commit-point record, or None.
        The multiversion store's visibility rule anchors here: a version
        is installed only once this record is flushed, so the
        snapshot-visibility audits cross-check every installed version
        against it.  Scans the log in place, newest first: no copy."""
        for record in reversed(self.log._records):
            if isinstance(record, COMMIT_MARKERS) and record.txn == txn:
                return record.lsn
        return None

    def has_durable_commit(self, txn: str) -> bool:
        """Is a commit-point record for ``txn`` in the log?  After
        :meth:`StableLog.crash` that means on stable storage; on a live
        log the record may still sit in a held group-commit batch."""
        return self.commit_lsn(txn) is not None

    def recovery_commit(self, txn: str) -> None:
        """Complete a commit whose commit point was reached elsewhere
        (under DU, seal the durable prepare)."""
        self.log.recovery_append(lambda lsn: CommitRecord(lsn, txn=txn))

    def checkpoint(self, committed: MacroState) -> None:
        """Write a snapshot of committed state and truncate the log.
        Refused while a transaction that wrote here has not completed:
        its records — UIP operation records, a DU prepare or a commit
        record still in a held batch — would be cut from under a later
        commit or abort, and the snapshot would miss its effects."""
        if self._tickets:
            raise RuntimeError(
                "checkpoint refused while transactions that wrote to the "
                "log are unfinished (operation records, an unsealed prepare "
                "or a held commit): %s" % sorted(self._tickets)
            )
        record = self.log.append(
            lambda lsn: CheckpointRecord(lsn, macro=committed)
        )
        self.log.force()
        self.log.truncate_before(record.lsn)


class UndoRedoLog(LogDiscipline):
    """Write-ahead logging for update-in-place recovery."""

    def __init__(
        self,
        adt: ADT,
        *,
        restart_policy: str = "replay-winners",
        log: StableLog = None,
    ):
        if restart_policy not in ("replay-winners", "redo-undo"):
            raise ValueError("unknown restart policy %r" % restart_policy)
        if restart_policy == "redo-undo" and not adt.supports_logical_undo:
            raise ValueError(
                "%s does not support logical undo; use replay-winners"
                % type(adt).__name__
            )
        super().__init__(adt, log=log)
        self.restart_policy = restart_policy

    # -- normal operation ----------------------------------------------------

    def on_execute(self, txn: str, operation: Operation) -> None:
        """WAL: the operation record precedes the volatile state update."""
        self.log.append(
            lambda lsn: OperationRecord(lsn, txn=txn, operation=operation)
        )
        self._tickets.setdefault(txn, 0)

    def on_prepare(self, txn: str, executed: Sequence[Operation]) -> None:
        """2PC vote: request durability for the transaction's operation
        records so they are on stable storage before any object writes
        its commit record (``executed`` is already there, record by
        record: ignored).  The vote is only *usable* once
        :meth:`flushed` says so."""
        self._tickets[txn] = self.log.request_force()

    def on_commit(self, txn: str, executed: Sequence[Operation]) -> None:
        """Append the commit record and request its flush.  Its ticket
        gates the commit acknowledgment: under group commit the record
        may sit in a held batch, and the commit event must wait for the
        batch's physical flush."""
        self.log.append(lambda lsn: CommitRecord(lsn, txn=txn))
        self._tickets[txn] = self.log.request_force()

    def on_abort(self, txn: str) -> None:
        self.log.append(lambda lsn: AbortRecord(lsn, txn=txn))
        self._tickets.pop(txn, None)

    # -- restart ----------------------------------------------------------------

    def restart(self) -> MacroState:
        """Rebuild the committed state from stable storage.

        Ends by durably checkpointing the restored state (when any
        records needed replaying): a crash leaves loser transactions'
        operation records behind with no abort record, and a *later*
        restart repeating that history would re-apply dead effects into
        a log whose post-recovery records assume the committed state —
        the recovery checkpoint seals them off, playing the role of
        ARIES compensation records.
        """
        self._tickets.clear()  # volatile bookkeeping died with the process
        macro = self._replay()
        if self._tail_length():
            self.log.recovery_append(
                lambda lsn: CheckpointRecord(lsn, macro=macro)
            )
        return macro

    def _tail_length(self) -> int:
        """Records after the last checkpoint."""
        records = self.log.records()
        start = 0
        for i, record in enumerate(records):
            if isinstance(record, CheckpointRecord):
                start = i + 1
        return len(records) - start

    def _replay(self) -> MacroState:
        records = self.log.records()
        start_macro = self.adt.initial_macro_state()
        start_index = 0
        for i, record in enumerate(records):
            if isinstance(record, CheckpointRecord):
                start_macro = record.macro
                start_index = i + 1
        tail = records[start_index:]
        committed: Set[str] = {
            r.txn for r in tail if isinstance(r, CommitRecord)
        }
        aborted: Set[str] = {r.txn for r in tail if isinstance(r, AbortRecord)}
        if self.restart_policy == "replay-winners":
            macro = start_macro
            for record in tail:
                if (
                    isinstance(record, OperationRecord)
                    and record.txn in committed
                ):
                    macro = self.adt.step_macro(macro, record.operation)
            return macro
        # redo-undo: repeat history, then undo losers in reverse order.
        # Losers are transactions with neither a commit nor an abort
        # record (in flight at the crash); aborted transactions are
        # compensated at their abort record, repeating what the
        # pre-crash system did in volatile state.
        macro = start_macro
        loser_ops: List[Operation] = []
        for record in tail:
            if isinstance(record, OperationRecord):
                macro = self.adt.step_macro(macro, record.operation)
                if record.txn not in committed and record.txn not in aborted:
                    loser_ops.append(record.operation)
            elif isinstance(record, AbortRecord):
                ops = [
                    r.operation
                    for r in tail
                    if isinstance(r, OperationRecord) and r.txn == record.txn
                ]
                for operation in reversed(ops):
                    macro = self._undo_macro(macro, operation)
        for operation in reversed(loser_ops):
            macro = self._undo_macro(macro, operation)
        return macro

    def _undo_macro(self, macro: MacroState, operation: Operation) -> MacroState:
        return frozenset(self.adt.undo(state, operation) for state in macro)


class RedoOnlyLog(LogDiscipline):
    """Redo-only logging for deferred-update recovery.

    Two commit shapes coexist:

    * **single-shot** (an object committing outside two-phase commit):
      one forced :class:`IntentionsRecord` carries the whole intentions
      list — the classic DU commit;
    * **prepared** (the 2PC path): prepare forces a
      :class:`PrepareRecord` with the intentions, commit forces a small
      :class:`CommitRecord` sealing it.  Restart replays only sealed
      prepares, in commit-record order; dangling prepares are presumed
      aborted.
    """

    def on_execute(self, txn: str, operation: Operation) -> None:
        """Intentions are volatile until commit: no log traffic."""

    def on_prepare(self, txn: str, executed: Sequence[Operation]) -> None:
        """2PC vote: persist the intentions list — what ``txn`` executed —
        before the commit point; its flush ticket gates the vote's
        durability."""
        self.log.append(
            lambda lsn: PrepareRecord(lsn, txn=txn, operations=tuple(executed))
        )
        self._tickets[txn] = self.log.request_force()

    def on_commit(self, txn: str, executed: Sequence[Operation]) -> None:
        """Append the commit-point record and request its flush; its
        ticket gates the commit acknowledgment.  A transaction holding a
        ticket here has a prepare record (nothing else writes one before
        the commit), which a small commit record seals."""
        if txn in self._tickets:
            self.log.append(lambda lsn: CommitRecord(lsn, txn=txn))
        else:
            self.log.append(
                lambda lsn: IntentionsRecord(
                    lsn, txn=txn, operations=tuple(executed)
                )
            )
        self._tickets[txn] = self.log.request_force()

    def on_abort(self, txn: str) -> None:
        """Nothing written: the volatile intentions list simply
        disappears, and a dangling prepare is presumed aborted."""
        self._tickets.pop(txn, None)

    def restart(self) -> MacroState:
        self._tickets.clear()  # volatile bookkeeping died with the process
        macro = self.adt.initial_macro_state()
        prepared: dict = {}
        for record in self.log.records():
            if isinstance(record, CheckpointRecord):
                macro = record.macro
            elif isinstance(record, PrepareRecord):
                prepared[record.txn] = record.operations
            elif isinstance(record, IntentionsRecord):
                for operation in record.operations:
                    macro = self.adt.step_macro(macro, operation)
            elif isinstance(record, CommitRecord):
                for operation in prepared.pop(record.txn, ()):
                    macro = self.adt.step_macro(macro, operation)
        return macro
