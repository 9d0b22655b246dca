"""Unit tests for the recovery managers ``View.cursor`` hands out.

The invariant itself — macro-state and response sets equal to the
from-scratch view after every event — is ``tests/view_harness.py``; the
randomized matrix over ADT × view × strategy that drives it is
``tests/runtime/test_recovery_equivalence.py``.
"""

import pytest

from repro.adts import BankAccount
from repro.core.events import abort, commit, inv, invoke, respond
from repro.core.history import HistoryBuilder
from repro.core.recovery import (
    DeferredUpdateManager,
    StrictUpdateInPlaceManager,
    UpdateInPlaceManager,
    ViewRecoveryManager,
    cursor_for_view,
)
from repro.core.serial_spec import LanguageSpec
from repro.core.views import DU, SUIP, UIP, View
from repro.reference import CheckedViewCursor, ViewCursorMismatch, checked_view

from ..view_harness import PROBE, check_against_scratch, drive_and_compare

BA = BankAccount(domain=(1, 2))
X = BA.name
VIEWS = pytest.mark.parametrize("view", [UIP, DU, SUIP], ids=lambda v: v.name)


def script():
    """An interleaving with a commit and an abort — every delta kind."""
    return [
        invoke(inv("deposit", 2), X, "A"),
        respond("ok", X, "A"),
        invoke(inv("deposit", 1), X, "B"),
        respond("ok", X, "B"),
        invoke(inv("withdraw", 1), X, "A"),
        respond("ok", X, "A"),
        commit(X, "B"),
        invoke(inv("withdraw", 2), X, "C"),
        respond("no", X, "C"),
        abort(X, "A"),
    ]


def scratch_check(manager, view, events):
    check_against_scratch(
        manager, view, BA, HistoryBuilder(events).snapshot(), BA.invocation_alphabet()
    )


class TestCursorMatchesView:
    def test_uip(self):
        drive_and_compare(cursor_for_view(UIP, BA), UIP, BA, script())

    def test_du(self):
        drive_and_compare(cursor_for_view(DU, BA), DU, BA, script())

    def test_suip(self):
        drive_and_compare(cursor_for_view(SUIP, BA), SUIP, BA, script())

    def test_registered_classes(self):
        """One class per view; the automaton's UIP half never undoes
        logically.  (That the runtime's factory hands out the same
        classes is a ``tests/test_single_path.py`` guard.)"""
        uip = cursor_for_view(UIP, BA)
        assert type(uip) is UpdateInPlaceManager and uip.strategy == "replay"
        assert type(cursor_for_view(DU, BA)) is DeferredUpdateManager
        assert type(cursor_for_view(SUIP, BA)) is StrictUpdateInPlaceManager
        assert BA.supports_logical_undo  # "auto" would have picked logical

    def test_seeding_with_events(self):
        events = script()
        scratch_check(cursor_for_view(DU, BA, events), DU, events)


def every_manager():
    return [cursor_for_view(view, BA) for view in (UIP, DU, SUIP)]


class TestMacroStepping:
    """What ``SpecStateCursor`` guaranteed, on the managers' macro-state."""

    def test_advance_tracks_states_after(self):
        for manager in every_manager():
            seq = []
            for op in (BA.deposit(2), BA.withdraw_ok(1), BA.withdraw_no(2)):
                manager.on_execute("A", op)
                seq.append(op)
                assert manager.macro("A") == BA.states_after(tuple(seq))
            assert manager.macro("A")  # legal

    def test_accepts_without_mutating(self):
        for manager in every_manager():
            manager.on_execute("A", BA.deposit(1))
            before = manager.macro("A")
            assert manager.accepts("A", BA.withdraw_ok(1))
            assert not manager.accepts("A", BA.withdraw_ok(2))
            assert manager.macro("A") == before  # probes do not advance
            assert manager.executed_of("A") == (BA.deposit(1),)

    def test_responses(self):
        for manager in every_manager():
            manager.on_execute("A", BA.deposit(1))
            assert manager.enabled_responses("A", inv("withdraw", 1)) == {"ok"}
            assert manager.enabled_responses("A", inv("withdraw", 2)) == {"no"}

    def test_illegal_is_absorbing(self):
        for manager in every_manager():
            manager.on_execute("A", BA.withdraw_ok(2))  # overdraft: empty macro
            assert not manager.macro("A")
            manager.on_execute("A", BA.deposit(1))
            assert not manager.macro("A")  # illegal stays illegal, like states_after
            assert not manager.enabled_responses("A", inv("deposit", 1))

    def test_copy_is_independent(self):
        for manager in every_manager():
            manager.on_execute("A", BA.deposit(2))
            twin = manager.fork()
            manager.on_execute("A", BA.withdraw_ok(2))
            assert twin.macro("A") == BA.states_after((BA.deposit(2),))
            assert twin.executed_of("A") == (BA.deposit(2),)

    def test_reset(self):
        """A UIP abort removes operations from the middle of the view:
        the survivors are replayed from the restored baseline."""
        manager = cursor_for_view(UIP, BA)
        manager.on_execute("A", BA.deposit(2))
        manager.on_execute("B", BA.deposit(1))
        manager.on_execute("A", BA.withdraw_ok(1))
        manager.on_abort("A")
        assert manager.macro("B") == BA.states_after((BA.deposit(1),))
        manager.rebase(frozenset({5}))  # crash restart: a new baseline
        manager.on_execute("A", BA.deposit(2))
        manager.on_execute("B", BA.deposit(1))
        manager.on_abort("A")
        assert manager.macro("B") == frozenset({6})


class TestForkIndependence:
    @VIEWS
    def test_mutating_original_leaves_twin(self, view):
        events = script()[:6]  # A and B both active, no commit/abort yet
        cursor = cursor_for_view(view, BA, events)
        twin = cursor.fork()
        cursor.apply(abort(X, "A"))  # rebuild path on the original
        scratch_check(twin, view, events)

    def test_fork_then_diverge(self):
        cursor = cursor_for_view(UIP, BA, script()[:6])
        twin = cursor.fork()
        cursor.apply(abort(X, "A"))
        twin.apply(commit(X, "A"))
        assert cursor.macro(PROBE) != twin.macro(PROBE)


class ReversedUIP(View):
    """An exploratory view with no incremental manager."""

    name = "UIP-reversed"

    def __call__(self, history, txn):
        return tuple(reversed(UIP(history, txn)))


class TestFallbacks:
    def test_unregistered_view_uses_recompute(self):
        view = ReversedUIP()
        cursor = drive_and_compare(cursor_for_view(view, BA), view, BA, script())
        assert type(cursor) is ViewRecoveryManager

    def test_language_spec_uses_recompute(self):
        a, b = BA.deposit(1), BA.deposit(2)
        spec = LanguageSpec(X, [(a, b)])
        cursor = cursor_for_view(UIP, spec, ())
        assert type(cursor) is ViewRecoveryManager
        cursor.apply(invoke(inv("deposit", 1), X, "A"))
        cursor.apply(respond("ok", X, "A"))
        assert cursor.accepts("A", b)
        assert not cursor.accepts("A", a)  # (a, a) is not in the language
        assert cursor.enabled_responses("A", inv("deposit", 2)) == frozenset({"ok"})


class TestCheckMode:
    def test_clean_run_passes(self):
        cursor = checked_view(UIP).cursor(BA, script())
        assert isinstance(cursor, CheckedViewCursor)
        h = HistoryBuilder(script()).snapshot()
        assert cursor.macro(PROBE) == BA.states_after(UIP(h, PROBE))

    def test_divergence_raises(self):
        cursor = checked_view(UIP).cursor(BA, script()[:6])
        # Sabotage the inner manager: drop an operation its log should
        # retain; the next replay (an abort) rebuilds the wrong state.
        cursor._inner._log.pop()
        cursor.apply(abort(X, "B"))
        with pytest.raises(ViewCursorMismatch):
            cursor.macro(PROBE)

    def test_divergent_responses_raise(self):
        cursor = checked_view(DU).cursor(BA, script()[:6])
        cursor._inner._intentions["A"].pop()
        cursor._inner._cached.clear()
        with pytest.raises(ViewCursorMismatch):
            cursor.enabled_responses("A", inv("withdraw", 1))
