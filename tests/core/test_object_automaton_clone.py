"""Tests for ObjectAutomaton.clone (the exploration-branching primitive)."""

import pytest

from repro.adts import BankAccount
from repro.core.events import inv
from repro.core.object_automaton import ObjectAutomaton
from repro.core.recovery import ViewRecoveryManager
from repro.core.views import UIP
from repro.reference import opaque_view


@pytest.fixture
def automaton():
    ba = BankAccount(domain=(1, 2))
    a = ObjectAutomaton(ba, UIP, ba.nrbc_conflict())
    a.invoke("A", inv("deposit", 2))
    a.respond("A", "ok")
    return ba, a


class TestClone:
    def test_clone_preserves_history(self, automaton):
        _ba, a = automaton
        twin = a.clone()
        assert twin.history == a.history

    def test_clone_preserves_locks(self, automaton):
        ba, a = automaton
        twin = a.clone()
        assert twin.operations_of("A") == a.operations_of("A")
        # The clone enforces the same conflicts.
        twin.invoke("B", inv("withdraw", 1))
        assert twin.enabled_responses("B") == frozenset()  # (w-ok, dep) blocked

    def test_clone_is_independent(self, automaton):
        _ba, a = automaton
        twin = a.clone()
        twin.commit("A")
        assert "A" in a.active_transactions()
        assert "A" not in twin.active_transactions()
        assert len(twin.history) == len(a.history) + 1

    def test_clone_preserves_pending(self, automaton):
        _ba, a = automaton
        a.invoke("B", inv("deposit", 1))  # deposits don't conflict
        twin = a.clone()
        assert twin.pending_invocation("B") == inv("deposit", 1)
        twin.respond("B", "ok")
        assert a.pending_invocation("B") == inv("deposit", 1)  # original untouched

    def test_deep_branching(self, automaton):
        ba, a = automaton
        a.commit("A")
        branches = []
        for amount in (1, 2):
            twin = a.clone()
            twin.invoke("B", inv("withdraw", amount))
            twin.respond("B", "ok")
            branches.append(twin)
        states = [
            ba.states_after(t.history.opseq()) for t in branches
        ]
        assert states == [frozenset({1}), frozenset({0})]

    def test_clone_cursors_are_deep_copies(self, automaton):
        """Aborting in the original must not disturb the twin's cursors.

        Regression for shallow cursor sharing: an abort rebuilds cursor
        state in place, so a shared cursor would drop the twin's view of
        A's deposit and wrongly disable withdraw(2) below.
        """
        ba, a = automaton  # A has deposited 2 and is still active
        twin = a.clone()
        a.abort("A")  # rebuild path: UIP filters A's ops out of the view
        twin.invoke("B", inv("withdraw", 2))
        # Under UIP the twin still sees A's deposit, so "ok" is legal
        # (though blocked by the NRBC conflict with the active deposit).
        assert twin.blocked_responses("B") == frozenset({"ok"})
        # And the twin's answers equal a fresh recompute of its history.
        replay = ObjectAutomaton(ba, opaque_view(UIP), ba.nrbc_conflict())
        for event in twin.history:
            replay.step(event)
        for txn in ("A", "B"):
            assert twin.enabled_responses(txn) == replay.enabled_responses(txn)
            assert twin.blocked_responses(txn) == replay.blocked_responses(txn)

    def test_clone_of_recompute_automaton(self):
        """An automaton over a view with no incremental manager forks its
        recompute manager like any other."""
        ba = BankAccount(domain=(1, 2))
        a = ObjectAutomaton(ba, opaque_view(UIP), ba.nrbc_conflict())
        a.invoke("A", inv("deposit", 1))
        a.respond("A", "ok")
        twin = a.clone()
        twin.commit("A")
        assert "A" in a.active_transactions()
        assert isinstance(twin.recovery, ViewRecoveryManager)
        assert twin.recovery is not a.recovery
        assert twin.locks is not a.locks
        assert twin.history != a.history
