"""Unit tests for ManagedObject and TransactionSystem."""

import pytest

from repro.adts import BankAccount, Register
from repro.core.events import inv
from repro.runtime.errors import InvalidTransactionState, UnknownObjectError
from repro.runtime.system import ManagedObject, TransactionSystem


def make_ba_object(recovery="UIP"):
    ba = BankAccount("BA")
    return ba, ManagedObject(ba, ba.nrbc_conflict() if recovery == "UIP" else ba.nfc_conflict(), recovery)


class TestManagedObject:
    def test_ok_outcome(self):
        ba, obj = make_ba_object()
        outcome = obj.try_operation("A", inv("deposit", 5))
        assert outcome.ok
        assert outcome.operation == ba.deposit(5)

    def test_response_follows_view(self):
        ba, obj = make_ba_object()
        obj.try_operation("A", inv("deposit", 5))
        outcome = obj.try_operation("A", inv("withdraw", 3))
        assert outcome.operation == ba.withdraw_ok(3)

    def test_blocked_outcome(self):
        ba, obj = make_ba_object()
        obj.try_operation("A", inv("balance"))
        outcome = obj.try_operation("B", inv("deposit", 1))
        assert outcome.status == "blocked"
        assert outcome.blockers == {"A"}

    def test_blocked_retry_succeeds_after_commit(self):
        ba, obj = make_ba_object()
        obj.try_operation("A", inv("balance"))
        obj.try_operation("B", inv("deposit", 1))
        obj.commit("A")
        outcome = obj.try_operation("B", inv("deposit", 1))
        assert outcome.ok

    def test_pending_invocation_consistency(self):
        ba, obj = make_ba_object()
        obj.try_operation("A", inv("balance"))
        obj.try_operation("B", inv("deposit", 1))  # blocked: B pending
        with pytest.raises(InvalidTransactionState):
            obj.try_operation("B", inv("deposit", 2))  # different invocation

    def test_abort_undoes_effects(self):
        ba, obj = make_ba_object()
        obj.try_operation("A", inv("deposit", 5))
        obj.abort("A")
        outcome = obj.try_operation("B", inv("balance"))
        assert outcome.operation == ba.balance(0)

    def test_prepare_vetoes_pending(self):
        ba, obj = make_ba_object()
        obj.try_operation("A", inv("balance"))
        obj.try_operation("B", inv("deposit", 1))  # B now pending (blocked)
        assert not obj.prepare("B")
        assert obj.prepare("A")

    def test_history_records_events(self):
        ba, obj = make_ba_object()
        obj.try_operation("A", inv("deposit", 5))
        obj.commit("A")
        h = obj.history()
        assert h.committed() == {"A"}
        assert h.opseq() == (ba.deposit(5),)

    def test_blocked_attempt_recorded_once(self):
        ba, obj = make_ba_object()
        obj.try_operation("A", inv("balance"))
        obj.try_operation("B", inv("deposit", 1))
        obj.try_operation("B", inv("deposit", 1))  # retry: no new event
        invocations = [e for e in obj.history() if e.is_invocation and e.txn == "B"]
        assert len(invocations) == 1

    def test_du_recovery_private_views(self):
        # EmptyConflict isolates the recovery semantics from locking:
        # under DU, B's balance read does not see A's active deposit.
        from repro.core.conflict import EmptyConflict

        ba = BankAccount("BA")
        obj = ManagedObject(ba, EmptyConflict(), "DU")
        obj.try_operation("A", inv("deposit", 5))
        outcome = obj.try_operation("B", inv("balance"))
        assert outcome.operation == ba.balance(0)  # A's deposit invisible


class TestTransactionSystem:
    def make_system(self):
        a1 = BankAccount("ACC1", opening=10)
        a2 = BankAccount("ACC2", opening=10)
        return TransactionSystem(
            [
                ManagedObject(a1, a1.nrbc_conflict(), "UIP"),
                ManagedObject(a2, a2.nrbc_conflict(), "UIP"),
            ]
        )

    def test_duplicate_names_rejected(self):
        ba = BankAccount("BA")
        with pytest.raises(ValueError):
            TransactionSystem(
                [
                    ManagedObject(ba, ba.nrbc_conflict(), "UIP"),
                    ManagedObject(BankAccount("BA"), ba.nrbc_conflict(), "UIP"),
                ]
            )

    def test_unknown_object(self):
        system = self.make_system()
        with pytest.raises(UnknownObjectError):
            system.invoke("A", "NOPE", inv("deposit", 1))

    def test_multi_object_transfer_commits(self):
        system = self.make_system()
        assert system.invoke("A", "ACC1", inv("withdraw", 3)).ok
        assert system.invoke("A", "ACC2", inv("deposit", 3)).ok
        assert system.commit("A")
        assert system.status("A") == "committed"
        h = system.history()
        assert {e.obj for e in h if e.is_commit} == {"ACC1", "ACC2"}

    def test_abort_touches_all_objects(self):
        system = self.make_system()
        system.invoke("A", "ACC1", inv("withdraw", 3))
        system.invoke("A", "ACC2", inv("deposit", 3))
        system.abort("A")
        assert system.status("A") == "aborted"
        h = system.history()
        assert {e.obj for e in h if e.is_abort} == {"ACC1", "ACC2"}

    def test_finished_transactions_frozen(self):
        system = self.make_system()
        system.invoke("A", "ACC1", inv("deposit", 1))
        system.commit("A")
        with pytest.raises(InvalidTransactionState):
            system.invoke("A", "ACC1", inv("deposit", 1))
        with pytest.raises(InvalidTransactionState):
            system.commit("A")

    def test_global_history_well_formed(self):
        system = self.make_system()
        system.invoke("A", "ACC1", inv("withdraw", 3))
        system.invoke("B", "ACC2", inv("deposit", 1))
        system.invoke("A", "ACC2", inv("deposit", 3))
        system.commit("B")
        system.commit("A")
        from repro.core.history import History

        History(system.history().events)  # validates

    def test_commit_vetoed_with_pending(self):
        """A blocked (pending) transaction cannot commit: 2PC aborts it."""
        ba = BankAccount("BA")
        system = TransactionSystem([ManagedObject(ba, ba.nrbc_conflict(), "UIP")])
        system.invoke("A", "BA", inv("balance"))
        system.invoke("B", "BA", inv("deposit", 1))  # blocked, pending
        assert not system.commit("B")
        assert system.status("B") == "aborted"

    def test_commit_with_no_touched_objects(self):
        system = self.make_system()
        assert system.commit("A")  # trivially commits; no events recorded
        assert system.status("A") == "committed"
