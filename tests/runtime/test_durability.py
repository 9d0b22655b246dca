"""Tests for crash recovery: stable logs, restart policies, crash injection.

Central invariant: restart reproduces the abstract view of the
post-crash history (all in-flight transactions aborted).
"""

import functools
import random

import pytest

from repro.adts import BankAccount, SemiQueue, SetADT
from repro.core.atomicity import is_dynamic_atomic
from repro.core.events import inv
from repro.core.views import DU, UIP
from repro.runtime.durability import build_durable_object
from repro.runtime.faults import FaultPlan, FaultyStableLog
from repro.runtime.scheduler import CRASH, Fault, Scheduler, TransactionScript
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.trace import TraceCollector
from repro.runtime.wal import (
    CheckpointRecord,
    CommitRecord,
    GroupCommitPolicy,
    IntentionsRecord,
    LogDiscipline,
    OperationRecord,
    RedoOnlyLog,
    StableLog,
    UndoRedoLog,
)


class TestStableLog:
    def test_lsns_monotonic(self):
        log = StableLog()
        r1 = log.append(lambda lsn: CommitRecord(lsn, txn="A"))
        r2 = log.append(lambda lsn: CommitRecord(lsn, txn="B"))
        assert r2.lsn == r1.lsn + 1

    def test_truncate(self):
        log = StableLog()
        for t in "ABC":
            log.append(lambda lsn, t=t: CommitRecord(lsn, txn=t))
        dropped = log.truncate_before(2)
        assert dropped == 2
        assert [r.txn for r in log.records()] == ["C"]

    def test_force_counted(self):
        log = StableLog()
        log.force()
        log.force()
        assert log.forces == 2

    @pytest.mark.parametrize(
        "make_log",
        [StableLog, functools.partial(FaultyStableLog, FaultPlan())],
        ids=["StableLog", "FaultyStableLog"],
    )
    def test_a_checkpoint_moves_the_flush_cursor_with_the_records(self, make_log):
        """Truncation drops flushed records, so the flush cursor moves
        back by as many: a record held after the checkpoint is the one
        volatile record a crash loses."""
        log = make_log(policy=GroupCommitPolicy(4, 2))
        for t in "ABCDE":
            log.append(lambda lsn, t=t: CommitRecord(lsn, txn=t))
        LogDiscipline(BankAccount("BA"), log=log).checkpoint(frozenset({0}))
        log.append(lambda lsn: CommitRecord(lsn, txn="F"))
        log.request_force()
        assert log.held_batch_size() == 1
        assert log.crash() == 1
        assert [type(r) for r in log.records()] == [CheckpointRecord]


class TestUndoRedoLogRestart:
    def make_ba_log(self, policy):
        ba = BankAccount()
        wal = UndoRedoLog(ba, restart_policy=policy)
        return ba, wal

    @pytest.mark.parametrize("policy", ["replay-winners", "redo-undo"])
    def test_committed_survive(self, policy):
        ba, wal = self.make_ba_log(policy)
        wal.on_execute("A", ba.deposit(5))
        wal.on_commit("A", ())
        assert wal.restart() == frozenset({5})

    @pytest.mark.parametrize("policy", ["replay-winners", "redo-undo"])
    def test_in_flight_lost(self, policy):
        ba, wal = self.make_ba_log(policy)
        wal.on_execute("A", ba.deposit(5))
        wal.on_commit("A", ())
        wal.on_execute("B", ba.withdraw_ok(3))  # crash before B commits
        assert wal.restart() == frozenset({5})

    @pytest.mark.parametrize("policy", ["replay-winners", "redo-undo"])
    def test_aborted_excluded(self, policy):
        ba, wal = self.make_ba_log(policy)
        wal.on_execute("A", ba.deposit(5))
        wal.on_abort("A")
        wal.on_execute("B", ba.deposit(2))
        wal.on_commit("B", ())
        assert wal.restart() == frozenset({2})

    @pytest.mark.parametrize("policy", ["replay-winners", "redo-undo"])
    def test_interleaved_winner_and_loser(self, policy):
        ba, wal = self.make_ba_log(policy)
        wal.on_execute("A", ba.deposit(5))
        wal.on_execute("B", ba.deposit(3))
        wal.on_commit("A", ())
        # B in flight at crash.
        assert wal.restart() == frozenset({5})

    def test_redo_undo_requires_logical_undo(self):
        with pytest.raises(ValueError):
            UndoRedoLog(SetADT(), restart_policy="redo-undo")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            UndoRedoLog(BankAccount(), restart_policy="magic")

    @pytest.mark.parametrize("seed", range(5))
    def test_policies_agree(self, seed):
        """Random legal logging schedules: both restart policies agree."""
        rng = random.Random(seed)
        ba = BankAccount()
        a = UndoRedoLog(ba, restart_policy="replay-winners")
        b = UndoRedoLog(ba, restart_policy="redo-undo")
        finished = set()
        for i in range(30):
            candidates = [t for t in ("T0", "T1", "T2", "T3") if t not in finished]
            if not candidates:
                break
            txn = rng.choice(candidates)
            action = rng.random()
            if action < 0.6:
                operation = ba.deposit(rng.choice([1, 2]))
                for wal in (a, b):
                    wal.on_execute(txn, operation)
            elif action < 0.8:
                for wal in (a, b):
                    wal.on_commit(txn, ())
                finished.add(txn)
            else:
                for wal in (a, b):
                    wal.on_abort(txn)
                finished.add(txn)
        assert a.restart() == b.restart()

    def test_checkpoint_truncates_and_restores(self):
        ba = BankAccount()
        wal = UndoRedoLog(ba)
        wal.on_execute("A", ba.deposit(5))
        wal.on_commit("A", ())
        wal.on_complete("A")  # acknowledged: the log no longer needs A's records
        wal.checkpoint(frozenset({5}))
        assert len(wal.log) == 1  # just the checkpoint
        wal.on_execute("B", ba.deposit(1))
        wal.on_commit("B", ())
        assert wal.restart() == frozenset({6})

    def test_restart_idempotent(self):
        ba = BankAccount()
        wal = UndoRedoLog(ba)
        wal.on_execute("A", ba.deposit(5))
        wal.on_commit("A", ())
        assert wal.restart() == wal.restart()


class TestRedoOnlyLogRestart:
    def test_commit_forces_intentions(self):
        ba = BankAccount()
        wal = RedoOnlyLog(ba)
        wal.on_execute("A", ba.deposit(5))  # no log traffic
        assert len(wal.log) == 0
        wal.on_commit("A", (ba.deposit(5),))
        assert len(wal.log) == 1
        assert wal.restart() == frozenset({5})

    def test_commit_order_replay(self):
        ba = BankAccount()
        wal = RedoOnlyLog(ba)
        wal.on_commit("B", (ba.deposit(2),))
        wal.on_commit("A", (ba.withdraw_ok(1),))
        assert wal.restart() == frozenset({1})

    def test_aborts_free(self):
        ba = BankAccount()
        wal = RedoOnlyLog(ba)
        wal.on_abort("A")
        assert len(wal.log) == 0

    def test_checkpoint(self):
        ba = BankAccount()
        wal = RedoOnlyLog(ba)
        wal.on_commit("A", (ba.deposit(5),))
        wal.on_complete("A")
        wal.checkpoint(frozenset({5}))
        wal.on_commit("B", (ba.deposit(2),))
        assert wal.restart() == frozenset({7})


class TestDurableObject:
    def test_crash_restores_committed_state(self):
        ba = BankAccount("BA")
        obj = ManagedObject(ba, ba.nrbc_conflict(), "UIP", log=StableLog())
        obj.try_operation("A", inv("deposit", 5))
        obj.commit("A")
        obj.try_operation("B", inv("deposit", 3))  # in flight
        obj.crash_kill("B")
        obj.crash_and_restart()
        assert obj.recovery.macro("PROBE") == frozenset({5})

    def test_restart_matches_abstract_view(self):
        """restart() == states_after(View(H_post_crash, fresh))."""
        ba = BankAccount("BA")
        for recovery, view in (("UIP", UIP), ("DU", DU)):
            obj = ManagedObject(
                ba,
                ba.nrbc_conflict() if recovery == "UIP" else ba.nfc_conflict(),
                recovery,
                log=StableLog(),
            )
            obj.try_operation("A", inv("deposit", 5))
            obj.commit("A")
            obj.try_operation("B", inv("withdraw", 2))
            obj.crash_kill("B")
            h = obj.history()
            obj.crash_and_restart()
            expected = ba.states_after(view(h, "PROBE"))
            assert obj.recovery.macro("PROBE") == expected, recovery

    def test_uip_replay_after_restart_handles_aborts(self):
        """The post-restart manager must replay from the restored base."""
        ba = BankAccount("BA")
        obj = ManagedObject(ba, ba.nrbc_conflict(), "UIP", uip_strategy="replay", log=StableLog())
        obj.try_operation("A", inv("deposit", 5))
        obj.commit("A")
        obj.crash_and_restart()
        obj.try_operation("B", inv("deposit", 2))
        obj.abort("B")  # replay-based undo after a restart
        assert obj.recovery.macro("PROBE") == frozenset({5})

    def test_checkpoint_requires_quiescence_under_uip(self):
        ba = BankAccount("BA")
        obj = ManagedObject(ba, ba.nrbc_conflict(), "UIP", log=StableLog())
        obj.try_operation("A", inv("deposit", 5))
        with pytest.raises(RuntimeError):
            obj.checkpoint()
        obj.commit("A")
        obj.checkpoint()
        obj.crash_and_restart()
        assert obj.recovery.macro("PROBE") == frozenset({5})

    def test_du_checkpoint_with_active_intentions(self):
        ba = BankAccount("BA")
        obj = ManagedObject(ba, ba.nfc_conflict(), "DU", log=StableLog())
        obj.try_operation("A", inv("deposit", 5))  # active intentions
        obj.checkpoint()  # base is committed-only: fine
        obj.crash_and_restart()
        assert obj.recovery.macro("PROBE") == frozenset({0})

    def test_du_checkpoint_refused_while_a_prepare_is_unsealed(self):
        """A checkpoint between prepare and commit would truncate the
        prepare record the commit record seals: the commit would be
        lost at restart.  It is refused until the prepare is sealed."""
        obj = build_durable_object("bank", None, "DU", 1, 0, StableLog)
        assert obj.try_operation("A", inv("deposit", 5)).ok
        assert obj.prepare("A")
        with pytest.raises(RuntimeError, match="unsealed prepare"):
            obj.checkpoint()
        obj.submit_commit("A")
        obj.complete_commit("A")
        obj.checkpoint()
        obj.crash_and_restart()
        assert obj.recovery.macro("PROBE") == frozenset({5})

    def test_du_checkpoint_refused_while_a_commit_is_held(self):
        """A commit record waiting in a held group-commit batch is still
        needed: a checkpoint then would truncate the prepare and commit
        records and snapshot a base without the commit, and a crash after
        the acknowledgment would restore the state before it."""
        obj = build_durable_object("bank", None, "DU", 4, 2, StableLog)
        assert obj.try_operation("A", inv("deposit", 5)).ok
        assert obj.prepare("A")
        obj.wal.log.force()
        obj.submit_commit("A")
        assert not obj.flushed("A")
        with pytest.raises(RuntimeError):
            obj.checkpoint()
        obj.wal.log.force()
        obj.complete_commit("A")
        obj.checkpoint()
        obj.crash_and_restart()
        assert obj.recovery.macro("PROBE") == frozenset({5})


class TestCrashableSystem:
    def make_system(self, recovery="UIP"):
        ba = BankAccount("BA", opening=10)
        conflict = ba.nrbc_conflict() if recovery == "UIP" else ba.nfc_conflict()
        return ba, TransactionSystem([ManagedObject(ba, conflict, recovery, log=StableLog())])

    def test_an_object_without_a_log_is_refused(self):
        """Restart rebuilds an object from its log: a system with a
        volatile object builds and runs, and a crash names every object
        it could not restart before any log crashes or any transaction
        is resolved."""
        logged, volatile = BankAccount("LOGGED"), BankAccount("VOLATILE")
        system = TransactionSystem([
            ManagedObject(logged, logged.nrbc_conflict(), "UIP", log=StableLog()),
            ManagedObject(volatile, volatile.nrbc_conflict(), "UIP"),
        ])
        trace = TraceCollector()
        trace.bind_system(system)
        assert system.invoke("T1", "LOGGED", inv("deposit", 5)).ok
        with pytest.raises(ValueError, match="VOLATILE") as refused:
            system.crash()
        assert "LOGGED" not in str(refused.value)
        assert system.status("T1") == "active"
        assert system.commit("T1")
        assert system.status("T1") == "committed"
        assert not [e for e in trace.events if e["kind"] == "log-crash"]

    def test_crash_kills_active(self):
        ba, system = self.make_system()
        system.invoke("A", "BA", inv("deposit", 5))
        victims = system.crash()
        assert victims == {"A"}
        assert system.status("A") == "aborted"

    def test_committed_survive_system_crash(self):
        ba, system = self.make_system()
        system.invoke("A", "BA", inv("deposit", 5))
        system.commit("A")
        system.invoke("B", "BA", inv("withdraw", 3))
        system.crash()
        outcome = system.invoke("C", "BA", inv("balance"))
        assert outcome.operation == ba.balance(15)

    def test_history_across_crash_dynamic_atomic(self):
        ba, system = self.make_system()
        system.invoke("A", "BA", inv("deposit", 5))
        system.commit("A")
        system.invoke("B", "BA", inv("withdraw", 3))
        system.crash()
        system.invoke("C", "BA", inv("balance"))
        system.commit("C")
        assert is_dynamic_atomic(system.history(), ba)

    @pytest.mark.parametrize("recovery", ["UIP", "DU"])
    @pytest.mark.parametrize("seed", range(3))
    def test_run_with_periodic_crashes(self, recovery, seed):
        ba, system = self.make_system(recovery)
        rng = random.Random(seed)
        scripts = [
            TransactionScript(
                "T%d" % i,
                tuple(
                    ("BA", inv(rng.choice(["deposit", "withdraw"]), rng.choice([1, 2])))
                    for _ in range(2)
                ),
            )
            for i in range(6)
        ]
        metrics = Scheduler(
            system, scripts, seed=seed, max_restarts=50,
            faults=[Fault(CRASH, every=4)],
        ).run()
        assert metrics.committed >= 1
        assert system.crash_count >= 1
        assert metrics.ticks // 4 == system.crash_count
        assert is_dynamic_atomic(system.history(), ba)
