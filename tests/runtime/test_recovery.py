"""Unit tests for the concrete recovery managers."""

import pytest

from repro.adts import BankAccount, SemiQueue, SetADT
from repro.runtime.recovery import (
    DeferredUpdateManager,
    UpdateInPlaceManager,
    make_recovery_manager,
)


@pytest.fixture
def ba():
    return BankAccount()


class TestFactory:
    def test_uip(self, ba):
        assert isinstance(make_recovery_manager(ba, "UIP"), UpdateInPlaceManager)

    def test_du(self, ba):
        assert isinstance(make_recovery_manager(ba, "du"), DeferredUpdateManager)

    def test_unknown(self, ba):
        with pytest.raises(ValueError):
            make_recovery_manager(ba, "WAL")

    def test_auto_strategy_prefers_logical(self, ba):
        manager = UpdateInPlaceManager(ba)
        assert manager.strategy == "logical"

    def test_auto_strategy_falls_back_to_replay(self):
        s = SetADT()
        manager = UpdateInPlaceManager(s)
        assert manager.strategy == "replay"

    def test_logical_rejected_without_support(self):
        with pytest.raises(ValueError):
            UpdateInPlaceManager(SetADT(), strategy="logical")

    def test_bad_strategy(self, ba):
        with pytest.raises(ValueError):
            UpdateInPlaceManager(ba, strategy="magic")


class TestUpdateInPlace:
    def test_execute_updates_current(self, ba):
        m = UpdateInPlaceManager(ba)
        m.on_execute("A", ba.deposit(5))
        assert m.current_macro == frozenset({5})

    def test_everyone_sees_current(self, ba):
        m = UpdateInPlaceManager(ba)
        m.on_execute("A", ba.deposit(5))
        assert m.macro("B") == frozenset({5})

    def test_commit_is_free(self, ba):
        m = UpdateInPlaceManager(ba)
        m.on_execute("A", ba.deposit(5))
        m.on_commit("A")
        assert m.current_macro == frozenset({5})

    def test_logical_abort_undoes_in_reverse(self, ba):
        m = UpdateInPlaceManager(ba, strategy="logical")
        m.on_execute("A", ba.deposit(5))
        m.on_execute("A", ba.withdraw_ok(2))
        m.on_abort("A")
        assert m.current_macro == frozenset({0})

    def test_logical_abort_with_interleaved_survivor(self, ba):
        m = UpdateInPlaceManager(ba, strategy="logical")
        m.on_execute("A", ba.deposit(5))
        m.on_execute("B", ba.deposit(3))
        m.on_abort("A")
        assert m.current_macro == frozenset({3})

    def test_replay_abort(self, ba):
        m = UpdateInPlaceManager(ba, strategy="replay")
        m.on_execute("A", ba.deposit(5))
        m.on_execute("B", ba.deposit(3))
        m.on_abort("A")
        assert m.current_macro == frozenset({3})

    def test_replay_preserves_execution_order(self):
        s = SetADT(domain=("a", "b"))
        m = UpdateInPlaceManager(s, strategy="replay")
        m.on_execute("A", s.insert("a"))
        m.on_execute("B", s.insert("b"))
        m.on_execute("B", s.delete("a"))
        m.on_abort("A")
        assert m.current_macro == frozenset({frozenset({"b"})})

    def test_logical_undo_keeps_no_execution_log(self, ba):
        """The execution-order log is replay's alone.  Counted: after N
        committed operations and one abort, nothing a logical manager
        holds has grown with N (it used to append every operation and
        rebuild the list per abort, reading it never); replay holds
        exactly the N survivors, and both land in the same state."""
        n = 50

        def held(manager):
            sizes = [0]
            for value in vars(manager).values():
                if isinstance(value, (list, dict, set)):
                    sizes.append(len(value))
                    if isinstance(value, dict):
                        sizes.extend(len(v) for v in value.values() if isinstance(v, list))
            return max(sizes)

        managers = {s: UpdateInPlaceManager(ba, strategy=s) for s in ("logical", "replay")}
        for manager in managers.values():
            for i in range(n):
                manager.on_execute("T%d" % i, ba.deposit(1))
                manager.on_commit("T%d" % i)
            manager.on_execute("LOSER", ba.deposit(7))
            manager.on_abort("LOSER")
            assert manager.current_macro == frozenset({n})
        assert held(managers["logical"]) == 0
        assert held(managers["replay"]) == n

    def test_abort_unknown_txn_noop(self, ba):
        m = UpdateInPlaceManager(ba)
        m.on_abort("ghost")
        assert m.current_macro == frozenset({0})

    def test_enabled_responses_from_current(self, ba):
        m = UpdateInPlaceManager(ba)
        m.on_execute("A", ba.deposit(2))
        assert m.enabled_responses("B", ba.withdraw_ok(1).invocation) == {"ok"}

    def test_nondeterministic_logical_undo(self):
        sq = SemiQueue(domain=("a", "b"))
        m = UpdateInPlaceManager(sq, strategy="logical")
        m.on_execute("A", sq.enq("a"))
        m.on_execute("B", sq.enq("b"))
        m.on_execute("A", sq.deq("b"))
        m.on_abort("A")
        assert m.current_macro == frozenset({("b",)})


class TestDeferredUpdate:
    def test_private_workspace_isolation(self, ba):
        m = DeferredUpdateManager(ba)
        m.on_execute("A", ba.deposit(5))
        assert m.macro("A") == frozenset({5})
        assert m.macro("B") == frozenset({0})  # invisible to B

    def test_commit_publishes(self, ba):
        m = DeferredUpdateManager(ba)
        m.on_execute("A", ba.deposit(5))
        m.on_commit("A")
        assert m.base_macro == frozenset({5})
        assert m.macro("B") == frozenset({5})

    def test_abort_discards_intentions(self, ba):
        m = DeferredUpdateManager(ba)
        m.on_execute("A", ba.deposit(5))
        m.on_abort("A")
        assert m.macro("A") == frozenset({0})
        assert m.base_macro == frozenset({0})

    def test_commit_order_matters(self, ba):
        m = DeferredUpdateManager(ba)
        m.on_execute("A", ba.deposit(2))
        m.on_execute("B", ba.withdraw_no(1))  # legal in B's private view (0 < 1)
        m.on_commit("B")
        m.on_commit("A")
        assert m.base_macro == frozenset({2})

    def test_intentions_of(self, ba):
        m = DeferredUpdateManager(ba)
        m.on_execute("A", ba.deposit(5))
        m.on_execute("A", ba.withdraw_ok(2))
        assert m.intentions_of("A") == (ba.deposit(5), ba.withdraw_ok(2))

    def test_poisoned_view_enables_nothing(self, ba):
        """Two private withdrawals of the whole balance: after B commits,
        C's intentions no longer replay against the base — the abstract
        semantics leaves C with an empty macro and no enabled responses."""
        m = DeferredUpdateManager(ba)
        m.on_execute("A", ba.deposit(2))
        m.on_commit("A")
        m.on_execute("B", ba.withdraw_ok(2))
        m.on_execute("C", ba.withdraw_ok(2))
        m.on_commit("B")
        assert m.macro("C") == frozenset()
        assert m.enabled_responses("C", ba.balance(0).invocation) == frozenset()

    def test_cache_invalidation_on_commit(self, ba):
        m = DeferredUpdateManager(ba)
        m.on_execute("A", ba.deposit(5))
        assert m.macro("B") == frozenset({0})  # prime B's cache
        m.on_commit("A")
        assert m.macro("B") == frozenset({5})  # cache invalidated
