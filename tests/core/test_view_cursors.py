"""Unit tests for the incremental view cursors and the spec-state cursor."""

import pytest

from repro.adts import BankAccount
from repro.core.events import abort, commit, inv, invoke, respond
from repro.core.history import HistoryBuilder
from repro.core.serial_spec import LanguageSpec
from repro.core.view_cursors import (
    DUCursor,
    RecomputeViewCursor,
    SUIPCursor,
    UIPCursor,
    cursor_for_view,
)
from repro.core.views import DU, SUIP, UIP, View
from repro.reference import CheckedViewCursor, ViewCursorMismatch, checked_view

BA = BankAccount(domain=(1, 2))
X = BA.name
PROBE = "P"  # no events: always active, sees every view's shared part


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


def drive_and_compare(view):
    """Feed the script event by event; cursor answers must match scratch."""
    cursor = cursor_for_view(view, BA)
    builder = HistoryBuilder()
    for event in script():
        cursor.apply(event)
        builder.append(event)
        h = builder.snapshot()
        for txn in sorted(h.active() | {PROBE}):
            assert cursor.opseq(txn) == tuple(view(h, txn)), (view.name, txn, h)
            for invocation in BA.invocation_alphabet():
                assert cursor.responses(txn, invocation) == BA.responses(
                    view(h, txn), invocation
                )


class TestCursorMatchesView:
    def test_uip(self):
        drive_and_compare(UIP)

    def test_du(self):
        drive_and_compare(DU)

    def test_suip(self):
        drive_and_compare(SUIP)

    def test_registered_classes(self):
        assert isinstance(cursor_for_view(UIP, BA), UIPCursor)
        assert isinstance(cursor_for_view(DU, BA), DUCursor)
        assert isinstance(cursor_for_view(SUIP, BA), SUIPCursor)

    def test_seeding_with_events(self):
        events = script()
        seeded = cursor_for_view(DU, BA, events)
        h = HistoryBuilder(events).snapshot()
        for txn in sorted(h.active() | {PROBE}):
            assert seeded.opseq(txn) == tuple(DU(h, txn))


class TestSpecStateCursor:
    def test_advance_tracks_states_after(self):
        cursor = BA.cursor()
        seq = []
        for op in (
            BA.deposit(2),
            BA.withdraw_ok(1),
            BA.withdraw_no(2),
        ):
            cursor.advance(op)
            seq.append(op)
            assert cursor.macro == BA.states_after(tuple(seq))
        assert len(cursor) == 3
        assert cursor.legal

    def test_accepts_without_mutating(self):
        cursor = BA.cursor((BA.deposit(1),))
        assert cursor.accepts(BA.withdraw_ok(1))
        assert not cursor.accepts(BA.withdraw_ok(2))
        assert len(cursor) == 1  # probes do not advance

    def test_responses(self):
        cursor = BA.cursor((BA.deposit(1),))
        assert cursor.responses(inv("withdraw", 1)) == frozenset({"ok"})
        assert cursor.responses(inv("withdraw", 2)) == frozenset({"no"})

    def test_illegal_is_absorbing(self):
        cursor = BA.cursor()
        cursor.advance(BA.withdraw_ok(2))  # overdraft: empty macro
        assert not cursor.legal
        cursor.advance(BA.deposit(1))
        assert not cursor.legal  # illegal stays illegal, like states_after

    def test_copy_is_independent(self):
        cursor = BA.cursor((BA.deposit(2),))
        twin = cursor.copy()
        cursor.advance(BA.withdraw_ok(2))
        assert twin.macro == BA.states_after((BA.deposit(2),))
        assert len(twin) == 1

    def test_reset(self):
        cursor = BA.cursor((BA.deposit(2), BA.withdraw_ok(1)))
        cursor.reset((BA.deposit(1),))
        assert cursor.macro == BA.states_after((BA.deposit(1),))
        assert len(cursor) == 1


class TestForkIndependence:
    @pytest.mark.parametrize("view", [UIP, DU, SUIP], ids=lambda v: v.name)
    def test_mutating_original_leaves_twin(self, view):
        events = script()[:6]  # A and B both active, no commit/abort yet
        cursor = cursor_for_view(view, BA, events)
        h = HistoryBuilder(events).snapshot()
        twin = cursor.fork()
        cursor.apply(abort(X, "A"))  # rebuild path on the original
        for txn in sorted(h.active() | {PROBE}):
            assert twin.opseq(txn) == tuple(view(h, txn))

    def test_fork_then_diverge(self):
        cursor = cursor_for_view(UIP, BA, script()[:6])
        twin = cursor.fork()
        cursor.apply(abort(X, "A"))
        twin.apply(commit(X, "A"))
        assert cursor.opseq(PROBE) != twin.opseq(PROBE)


class ReversedUIP(View):
    """An exploratory view with no registered cursor class."""

    name = "UIP-reversed"

    def __call__(self, history, txn):
        return tuple(reversed(UIP(history, txn)))


class TestFallbacks:
    def test_unregistered_view_uses_recompute(self):
        cursor = cursor_for_view(ReversedUIP(), BA, script())
        assert isinstance(cursor, RecomputeViewCursor)
        h = HistoryBuilder(script()).snapshot()
        assert cursor.opseq(PROBE) == tuple(reversed(UIP(h, PROBE)))

    def test_language_spec_uses_recompute(self):
        a, b = BA.deposit(1), BA.deposit(2)
        spec = LanguageSpec(X, [(a, b)])
        cursor = cursor_for_view(UIP, spec, ())
        assert isinstance(cursor, RecomputeViewCursor)
        cursor.apply(invoke(inv("deposit", 1), X, "A"))
        cursor.apply(respond("ok", X, "A"))
        assert cursor.accepts("A", b)
        assert not cursor.accepts("A", a)  # (a, a) is not in the language


class TestCheckMode:
    def test_clean_run_passes(self):
        cursor = checked_view(UIP).cursor(BA, script())
        assert isinstance(cursor, CheckedViewCursor)
        h = HistoryBuilder(script()).snapshot()
        assert cursor.opseq(PROBE) == tuple(UIP(h, PROBE))

    def test_divergence_raises(self):
        cursor = checked_view(UIP).cursor(BA, script()[:6])
        # Sabotage the inner cursor: drop an operation it should retain.
        cursor._inner._ops.pop()
        with pytest.raises(ViewCursorMismatch):
            cursor.opseq(PROBE)

    def test_divergent_responses_raise(self):
        cursor = checked_view(DU).cursor(BA, script()[:6])
        cursor._inner._tails["A"].pop()
        cursor._inner._txn_cursors.clear()
        with pytest.raises(ViewCursorMismatch):
            cursor.responses("A", inv("withdraw", 1))
