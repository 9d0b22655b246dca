"""Durable objects and crash-capable systems.

:class:`DurableObject` is a :class:`~repro.runtime.system.ManagedObject`
whose recovery manager is shadowed by a stable log
(:mod:`repro.runtime.wal`): operations, commits and aborts reach the log
under the discipline matching the recovery method, so the object can be
*crashed* (volatile state and lock tables lost, in-flight transactions
killed) and *restarted* from stable storage.

:class:`CrashableSystem` lifts crashing to a multi-object
:class:`~repro.runtime.system.TransactionSystem`: a crash aborts every
active transaction (appending their abort events keeps the global
history well formed, so the core checkers can audit executions that
span crashes) and restarts every object, after which new transactions
see exactly the committed state.

The central invariant, tested across ADTs, crash points and logging
policies: *restart reproduces the abstract view of the post-crash
history* —

    restart() == states_after(View(H_post_crash, fresh_txn))

where ``H_post_crash`` is the pre-crash history with every in-flight
transaction aborted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..adts.base import ADT
from ..core.conflict import ConflictRelation
from ..core.events import Invocation, Operation
from .lock_manager import LockManager
from .recovery import DeferredUpdateManager, UpdateInPlaceManager
from .system import ManagedObject, TransactionSystem
from .wal import RedoOnlyLog, UndoRedoLog


class DurableObject(ManagedObject):
    """A managed object with a stable log, crash() and restart()."""

    def __init__(
        self,
        adt: ADT,
        conflict: ConflictRelation,
        recovery: str = "UIP",
        *,
        uip_strategy: str = "auto",
        restart_policy: str = "replay-winners",
        log_factory=None,
    ):
        super().__init__(adt, conflict, recovery, uip_strategy=uip_strategy)
        self._recovery_method = recovery.upper()
        log = log_factory() if log_factory is not None else None
        if self._recovery_method == "UIP":
            self.wal = UndoRedoLog(adt, restart_policy=restart_policy, log=log)
        else:
            self.wal = RedoOnlyLog(adt, log=log)
        self.crashes = 0
        #: per-transaction group-commit ticket of its latest durability
        #: request (prepare force, then commit-record force).
        self._force_tickets: Dict[str, int] = {}

    # -- logging hooks wrapped around the volatile path --------------------------

    def try_operation(self, txn, invocation, rng=None, *, extra_blockers=None):
        outcome = super().try_operation(
            txn, invocation, rng, extra_blockers=extra_blockers
        )
        if outcome.ok:
            # Write-ahead in spirit: the paper-level automaton applies
            # state and log in one atomic step; the log record is what
            # survives.
            self.wal.on_execute(txn, outcome.operation)
        return outcome

    def prepare(self, txn: str) -> bool:
        """2PC vote, made durable: a yes vote requests a flush of the
        transaction's log traffic (UIP operation records; DU intentions
        as a :class:`~repro.runtime.wal.PrepareRecord`) so the commit
        point can be completed at recovery no matter where a crash
        lands.  Under group commit the flush may be deferred into a
        shared batch; :meth:`prepare_ready` reports when the vote's
        durability has actually landed."""
        vote = super().prepare(txn)
        if vote:
            if isinstance(self.wal, RedoOnlyLog):
                ticket = self.wal.on_prepare(txn, self.recovery.intentions_of(txn))
            else:
                ticket = self.wal.on_prepare(txn)
            self._force_tickets[txn] = ticket
        return vote

    def prepare_ready(self, txn: str) -> bool:
        return self.wal.log.flushed(self._force_tickets.get(txn, 0))

    def submit_commit(self, txn: str) -> None:
        """Write the durable commit point; acknowledgment is deferred.

        The commit record (or intentions record) is appended and its
        flush requested, but no commit *event* exists yet: if the batch
        is torn off by a crash, the transaction simply never committed
        here, and the crash protocol resolves it from whatever record
        actually reached stable storage — recovery completes, never
        retracts.
        """
        if isinstance(self.wal, RedoOnlyLog):
            ticket = self.wal.on_commit(txn, self.recovery.intentions_of(txn))
        else:
            ticket = self.wal.on_commit(txn)
        self._force_tickets[txn] = ticket

    def commit_ready(self, txn: str) -> bool:
        return self.wal.log.flushed(self._force_tickets.get(txn, 0))

    def complete_commit(self, txn: str) -> None:
        """Acknowledge a commit whose record's batch has flushed: release
        locks, apply the volatile completion, record the commit event."""
        self._force_tickets.pop(txn, None)
        ManagedObject.commit(self, txn)

    def commit(self, txn: str) -> None:
        """Synchronous commit for direct object-level use: submit the
        durable commit point and, if its batch is still held, force the
        log so the acknowledgment-before-durability rule is preserved."""
        self.submit_commit(txn)
        if not self.commit_ready(txn):
            self.wal.log.force()
        self.complete_commit(txn)

    def tick(self) -> None:
        """Scheduler tick: drive the log's group-commit hold timer."""
        self.wal.log.tick()

    def next_deadline(self) -> Optional[int]:
        """Ticks until this object's held batch flushes (``None`` when
        the log holds no batch) — the log's hold timer is this object's
        only tick-driven deadline."""
        return self.wal.log.next_deadline()

    def advance_ticks(self, ticks: int) -> None:
        """Advance the log's hold timer ``ticks`` steps at once (valid
        only strictly short of :meth:`next_deadline`)."""
        self.wal.log.advance(ticks)

    def abort(self, txn: str) -> None:
        had_events = txn in {e.txn for e in self._events}
        super().abort(txn)
        if had_events:
            self.wal.on_abort(txn)

    # -- checkpointing --------------------------------------------------------------

    def committed_macro(self):
        """The committed state (what a checkpoint must capture)."""
        if isinstance(self.recovery, DeferredUpdateManager):
            return self.recovery.base_macro
        # UIP: only safe to read as committed when nothing is active.
        return self.recovery.current_macro

    def checkpoint(self) -> None:
        """Write a stable snapshot; requires a quiescent object under UIP."""
        if isinstance(self.wal, UndoRedoLog) and self.locks.holders():
            raise RuntimeError(
                "UIP checkpoint requires quiescence (active: %s)"
                % sorted(self.locks.holders())
            )
        self.wal.checkpoint(self.committed_macro())

    # -- crash / restart --------------------------------------------------------------

    def in_flight(self) -> Set[str]:
        """Transactions with volatile effects or pending invocations here."""
        return set(self.locks.holders()) | set(self._pending)

    def crash_kill(self, txn: str) -> None:
        """Record that ``txn`` died in a crash.

        Appends the abort *event* (the semantic outcome: the transaction
        takes effect nowhere) but writes **no** log record and performs
        no volatile undo — a real crash gives the system no chance to do
        either.  Restart must therefore treat the transaction as a
        loser purely from the absence of its commit record.
        """
        from ..core.events import abort as abort_event

        self._pending.pop(txn, None)
        # A crash can interrupt a volatile abort after its event was
        # recorded; don't abort twice.
        if not any(e.txn == txn and e.is_abort for e in self._events):
            self._events.append(abort_event(self.name, txn))

    def crash_commit(self, txn: str) -> None:
        """Complete a commit interrupted by a crash.

        Called at recovery when the transaction's commit point (a
        durable commit record at *some* object it touched) was reached
        before the crash: ensure this object also carries a durable
        commit record and the commit event, so restart replays the
        transaction as a winner everywhere.  The prepare phase forced
        this object's operation records / intentions, so the replay has
        everything it needs.
        """
        from ..core.events import commit as commit_event

        if not self.wal.has_durable_commit(txn):
            self.wal.recovery_commit(txn)
        has_commit_event = any(
            e.txn == txn and e.is_commit for e in self._events
        )
        if not has_commit_event:
            self._events.append(commit_event(self.name, txn))
        self._pending.pop(txn, None)
        # Fold the winner into the committed macro-state for the version
        # chain.  Idempotent across a crash that landed mid-completion:
        # if the volatile commit already ran here, the recovery manager
        # has dropped the transaction's executed record and this is a
        # no-op.
        self._advance_committed(txn)

    def crash_and_restart(self) -> None:
        """Lose all volatile state; rebuild from the stable log.

        The caller (normally :class:`CrashableSystem`) is responsible
        for appending abort events for in-flight transactions *before*
        invoking this, so the object history stays consistent.
        """
        self.crashes += 1
        restored = self.wal.restart()
        if self.trace is not None:
            self.trace.emit(
                "recovery", obj=self.name, records=len(self.wal.log)
            )
        self.locks = LockManager(self.conflict)
        self._pending = {}
        self._force_tickets = {}  # group-commit tickets died with the process
        if self._recovery_method == "UIP":
            manager = UpdateInPlaceManager(
                self.adt,
                strategy=self.recovery.strategy,
            )
            manager.rebase(restored)
            self.recovery = manager
        else:
            manager = DeferredUpdateManager(self.adt)
            manager._base = restored
            self.recovery = manager


class CrashableSystem(TransactionSystem):
    """A transaction system whose objects can all crash at once."""

    def __init__(self, objects: Sequence[DurableObject]):
        super().__init__(objects)
        self.crash_count = 0

    def crash(self) -> Set[str]:
        """Whole-system crash: lose storage tails, resolve in-doubt
        commits, kill the rest, restart every object.

        The crash protocol, in order:

        1. mirror any object-local events the interrupted call never
           reported into the global history (the crash may have unwound
           ``invoke``/``commit`` mid-flight);
        2. every stable log loses its volatile tail — including any
           *held group-commit batch*, whose records were appended but
           never physically flushed (no-op for the base
           durable-on-append log without batching;
           :class:`~repro.runtime.faults.FaultyStableLog` drops
           unforced records per the fault that fired);
        3. **in-doubt resolution**: a transaction interrupted during the
           commit protocol is committed iff its commit point — a durable
           commit record at at least one object it touched — was
           reached; if so, the commit is *completed* at its remaining
           objects (durable commit record + commit event), never
           retracted where it already happened;
        4. every other in-flight transaction is killed: no undo, no log
           records, just the abort events that keep the bookkeeping
           history well formed and auditable; active read-only snapshot
           transactions (volatile registrations, no locks, no events)
           are killed too;
        5. every object loses its volatile state and restarts from its
           stable log.

        Returns the set of transactions killed by the crash (resolved
        commits are *not* victims — their scripts finished).
        """
        self.crash_count += 1
        self._sync_events()
        # Commit pipelines die with the process: a transaction that was
        # waiting on a held batch is resolved below purely from whatever
        # records its batch actually flushed.
        self._committing.clear()
        for obj in self.objects.values():
            obj.wal.log.crash()
        victims: Set[str] = set()
        # Active snapshot readers die with the process: their snapshot
        # registration is volatile state.  The version chains themselves
        # only hold durably committed versions, so nothing is retracted
        # — restarted readers simply take a fresh snapshot.
        for txn in sorted(self._ro_active):
            del self._ro_active[txn]
            self._finished[txn] = "aborted"
            victims.add(txn)
        candidates = [
            txn for txn in self._touched if txn not in self._finished
        ]
        resolved: List[str] = []
        for txn in sorted(candidates):
            touched = sorted(self._touched[txn])
            reached_commit_point = any(
                self.objects[name].wal.has_durable_commit(txn)
                for name in touched
            )
            if reached_commit_point:
                for name in touched:
                    self.objects[name].crash_commit(txn)
                self._finished[txn] = "committed"
                resolved.append(txn)
                # The commit is durable everywhere it touched: give it a
                # CSN and install its version, exactly as a normal
                # completion would have.
                self._install_versions(txn, touched)
            else:
                for name in touched:
                    self.objects[name].crash_kill(txn)
                self._finished[txn] = "aborted"
                victims.add(txn)
        self._sync_events()
        if self.trace is not None:
            self.trace.emit(
                "crash", victims=sorted(victims), resolved=resolved
            )
        for obj in self.objects.values():
            obj.crash_and_restart()
        return victims


def run_with_crashes(
    system: CrashableSystem,
    scripts,
    *,
    seed: int = 0,
    crash_every: int = 10,
    label: str = "",
    max_restarts: int = 50,
    max_ticks: int = 100_000,
):
    """Drive scripts through a scheduler, crashing the system periodically.

    A thin specialization of :class:`~repro.runtime.scheduler.Scheduler`:
    after every ``crash_every`` ticks the whole system crashes; script
    instances whose transaction died restart as fresh transactions, like
    deadlock victims.  Returns ``(metrics, crashes)``.
    """
    from .scheduler import Scheduler, periodic_wake

    crashes = 0

    def crash_on_schedule(tick: int) -> bool:
        nonlocal crashes
        if crash_every and tick % crash_every == 0:
            victims = system.crash()
            crashes += 1
            scheduler.handle_crash(victims, tick)
            return True
        return False

    crash_on_schedule.next_wake = periodic_wake(crash_every)

    scheduler = Scheduler(
        system,
        scripts,
        seed=seed,
        label=label,
        max_restarts=max_restarts,
        max_ticks=max_ticks,
        on_tick=crash_on_schedule,
    )
    metrics = scheduler.run()
    return metrics, crashes
