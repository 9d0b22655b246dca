"""Unit tests for histories: well-formedness, projections, derived relations."""

import pytest

from repro.core.events import abort, commit, inv, invoke, op, respond
from repro.core.history import (
    History,
    HistoryBuilder,
    IllFormedHistoryError,
    equivalent,
    serial_history,
    transaction_events,
)


def simple_history():
    """A deposits 5 and commits; B withdraws 3 (active)."""
    return History.of(
        invoke(inv("deposit", 5), "BA", "A"),
        respond("ok", "BA", "A"),
        commit("BA", "A"),
        invoke(inv("withdraw", 3), "BA", "B"),
        respond("ok", "BA", "B"),
    )


class TestWellFormedness:
    def test_empty_history_is_well_formed(self):
        assert len(History()) == 0

    def test_valid_sequence(self):
        simple_history()

    def test_response_without_invocation(self):
        with pytest.raises(IllFormedHistoryError):
            History.of(respond("ok", "BA", "A"))

    def test_double_invocation(self):
        with pytest.raises(IllFormedHistoryError):
            History.of(
                invoke(inv("a"), "X", "A"),
                invoke(inv("b"), "X", "A"),
            )

    def test_pending_invocation_at_other_object(self):
        with pytest.raises(IllFormedHistoryError):
            History.of(
                invoke(inv("a"), "X", "A"),
                respond("ok", "Y", "A"),
            )

    def test_commit_with_pending_invocation(self):
        with pytest.raises(IllFormedHistoryError):
            History.of(invoke(inv("a"), "X", "A"), commit("X", "A"))

    def test_invoke_after_commit(self):
        with pytest.raises(IllFormedHistoryError):
            History.of(commit("X", "A"), invoke(inv("a"), "X", "A"))

    def test_commit_then_abort_forbidden(self):
        with pytest.raises(IllFormedHistoryError):
            History.of(commit("X", "A"), abort("Y", "A"))

    def test_abort_then_commit_forbidden(self):
        with pytest.raises(IllFormedHistoryError):
            History.of(abort("X", "A"), commit("Y", "A"))

    def test_abort_with_pending_invocation_allowed(self):
        h = History.of(invoke(inv("a"), "X", "A"), abort("X", "A"))
        assert h.aborted() == {"A"}

    def test_commit_at_multiple_objects(self):
        h = History.of(commit("X", "A"), commit("Y", "A"))
        assert h.committed() == {"A"}

    def test_duplicate_commit_same_object(self):
        with pytest.raises(IllFormedHistoryError):
            History.of(commit("X", "A"), commit("X", "A"))

    def test_duplicate_abort_same_object(self):
        with pytest.raises(IllFormedHistoryError):
            History.of(abort("X", "A"), abort("X", "A"))

    def test_no_events_after_abort_except_abort(self):
        with pytest.raises(IllFormedHistoryError):
            History.of(abort("X", "A"), invoke(inv("a"), "Y", "A"))

    def test_interleaved_transactions_ok(self):
        History.of(
            invoke(inv("a"), "X", "A"),
            invoke(inv("b"), "X", "B"),
            respond("ok", "X", "B"),
            respond("ok", "X", "A"),
        )

    def test_validate_false_skips_checks(self):
        h = History([respond("ok", "BA", "A")], validate=False)
        assert len(h) == 1


class TestProjections:
    def test_project_object(self):
        h = History.of(
            invoke(inv("a"), "X", "A"),
            respond("ok", "X", "A"),
            invoke(inv("b"), "Y", "A"),
            respond("ok", "Y", "A"),
        )
        hx = h.project_objects("X")
        assert len(hx) == 2
        assert all(e.obj == "X" for e in hx)

    def test_project_transaction(self):
        h = simple_history()
        hb = h.project_transactions("B")
        assert len(hb) == 2
        assert all(e.txn == "B" for e in hb)

    def test_project_multiple(self):
        h = simple_history()
        assert len(h.project_transactions({"A", "B"})) == len(h)

    def test_projection_preserves_order(self):
        h = simple_history()
        ha = h.project_transactions("A")
        assert [type(e).__name__ for e in ha] == [
            "InvocationEvent",
            "ResponseEvent",
            "CommitEvent",
        ]


class TestTransactionStatus:
    def test_committed_aborted_active(self):
        h = History.of(
            commit("X", "A"),
            abort("X", "B"),
            invoke(inv("a"), "X", "C"),
        )
        assert h.committed() == {"A"}
        assert h.aborted() == {"B"}
        assert h.active() == {"C"}

    def test_is_active_for_unknown_transaction(self):
        assert simple_history().is_active("ZZZ")

    def test_pending_invocation(self):
        h = History.of(invoke(inv("a", 1), "X", "A"))
        assert h.pending_invocation("A").invocation == inv("a", 1)

    def test_pending_cleared_by_response(self):
        h = History.of(invoke(inv("a"), "X", "A"), respond("ok", "X", "A"))
        assert h.pending_invocation("A") is None


class TestOpseq:
    def test_opseq_pairs_invocations_with_responses(self):
        h = simple_history()
        ops = h.opseq()
        assert ops == (
            op("BA", "deposit", 5),
            op("BA", "withdraw", 3),
        )

    def test_opseq_ignores_pending(self):
        h = History.of(invoke(inv("a"), "X", "A"))
        assert h.opseq() == ()

    def test_opseq_order_is_response_order(self):
        h = History.of(
            invoke(inv("a"), "X", "A"),
            invoke(inv("b"), "X", "B"),
            respond("ok", "X", "B"),
            respond("ok", "X", "A"),
        )
        assert [o.name for o in h.opseq()] == ["b", "a"]

    def test_operations_of(self):
        h = simple_history()
        assert [o.name for o in h.operations_of("A")] == ["deposit"]


class TestDerived:
    def test_permanent_drops_uncommitted(self):
        h = simple_history()
        perm = h.permanent()
        assert perm.transactions() == {"A"}

    def test_failure_free(self):
        assert simple_history().failure_free()
        h = History.of(abort("X", "A"))
        assert not h.failure_free()

    def test_is_serial(self):
        assert simple_history().is_serial()

    def test_is_not_serial(self):
        h = History.of(
            invoke(inv("a"), "X", "A"),
            invoke(inv("b"), "X", "B"),
            respond("ok", "X", "B"),
            respond("ok", "X", "A"),
        )
        assert not h.is_serial()

    def test_precedes_captures_commit_before_response(self):
        h = simple_history()
        assert ("A", "B") in h.precedes()
        assert ("B", "A") not in h.precedes()

    def test_precedes_empty_for_concurrent(self):
        h = History.of(
            invoke(inv("a"), "X", "A"),
            respond("ok", "X", "A"),
            invoke(inv("b"), "X", "B"),
            respond("ok", "X", "B"),
            commit("X", "A"),
            commit("X", "B"),
        )
        assert h.precedes() == frozenset()

    def test_precedes_is_irreflexive(self):
        h = simple_history()
        assert all(a != b for a, b in h.precedes())

    def test_commit_order(self):
        h = History.of(commit("X", "B"), commit("X", "A"), commit("Y", "A"))
        assert h.commit_order() == ("B", "A")

    def test_append_returns_new_history(self):
        h = History()
        h2 = h.append(commit("X", "A"))
        assert len(h) == 0 and len(h2) == 1

    def test_concatenation_validates(self):
        h1 = History.of(commit("X", "A"))
        h2 = History.of(abort("Y", "A"))
        with pytest.raises(IllFormedHistoryError):
            h1 + h2

    def test_slicing_returns_history(self):
        h = simple_history()
        assert isinstance(h[:2], History)
        assert len(h[:2]) == 2


class TestEquivalenceAndSerial:
    def test_equivalent_reordering(self):
        h = History.of(
            invoke(inv("a"), "X", "A"),
            invoke(inv("b"), "X", "B"),
            respond("ok", "X", "A"),
            respond("ok", "X", "B"),
        )
        k = History.of(
            invoke(inv("b"), "X", "B"),
            respond("ok", "X", "B"),
            invoke(inv("a"), "X", "A"),
            respond("ok", "X", "A"),
        )
        assert equivalent(h, k)

    def test_not_equivalent_different_steps(self):
        h = History.of(invoke(inv("a"), "X", "A"), respond("ok", "X", "A"))
        k = History.of(invoke(inv("a"), "X", "A"), respond("no", "X", "A"))
        assert not equivalent(h, k)

    def test_serial_history_concatenates_projections(self):
        h = simple_history()
        s = serial_history(h, ["B", "A"])
        assert s.is_serial()
        assert [o.name for o in s.opseq()] == ["withdraw", "deposit"]

    def test_serial_history_is_equivalent(self):
        h = simple_history()
        assert equivalent(h, serial_history(h, ["A", "B"]))

    def test_serial_history_requires_cover(self):
        with pytest.raises(ValueError):
            serial_history(simple_history(), ["A"])

    def test_serial_history_ignores_extra_names(self):
        s = serial_history(simple_history(), ["Z", "A", "B"])
        assert s.transactions() == {"A", "B"}


class TestHistoryBuilder:
    def test_builder_matches_history_validation(self):
        b = HistoryBuilder()
        b.append(invoke(inv("a"), "X", "A"))
        b.append(respond("ok", "X", "A"))
        b.append(commit("X", "A"))
        assert b.snapshot() == History.of(
            invoke(inv("a"), "X", "A"),
            respond("ok", "X", "A"),
            commit("X", "A"),
        )

    def test_builder_rejects_ill_formed(self):
        b = HistoryBuilder()
        with pytest.raises(IllFormedHistoryError):
            b.append(respond("ok", "X", "A"))
        assert len(b) == 0

    def test_builder_rejection_preserves_state(self):
        b = HistoryBuilder()
        b.append(invoke(inv("a"), "X", "A"))
        with pytest.raises(IllFormedHistoryError):
            b.append(invoke(inv("b"), "X", "A"))
        b.append(respond("ok", "X", "A"))  # original pending still there

    @pytest.mark.parametrize(
        "rejected",
        [
            invoke(inv("b"), "X", "A"),  # a second pending invocation
            respond("ok", "Y", "A"),  # at the wrong object
            commit("X", "A"),  # with an invocation pending
        ],
    )
    def test_a_rejected_append_changes_nothing(self, rejected):
        b = HistoryBuilder()
        b.append(invoke(inv("a"), "X", "A"))
        before = (b.pending_invocation("A"), b.is_active("A"), len(b))
        assert not b.can_append(rejected)
        with pytest.raises(IllFormedHistoryError):
            b.append(rejected)
        assert (b.pending_invocation("A"), b.is_active("A"), len(b)) == before
        b.append(respond("ok", "X", "A"))
        assert b.pending_invocation("A") is None and b.is_active("A")
        b.append(commit("X", "A"))
        assert not b.is_active("A") and b.has_committed("A")
        assert not b.has_aborted("A")

    def test_a_rejected_first_event_records_no_transaction(self):
        b = HistoryBuilder()
        with pytest.raises(IllFormedHistoryError):
            b.append(respond("ok", "X", "A"))
        assert not b.has_events("A")
        b.append(abort("X", "A"))
        assert b.has_events("A") and b.has_aborted("A")

    def test_can_append(self):
        b = HistoryBuilder()
        assert b.can_append(invoke(inv("a"), "X", "A"))
        assert not b.can_append(respond("ok", "X", "A"))
        assert len(b) == 0

    def test_builder_is_active(self):
        b = HistoryBuilder()
        assert b.is_active("A")
        b.append(commit("X", "A"))
        assert not b.is_active("A")

    def test_builder_pending(self):
        b = HistoryBuilder()
        b.append(invoke(inv("a", 1), "X", "A"))
        assert b.pending_invocation("A").invocation == inv("a", 1)


class TestTransactionEvents:
    def test_serial_block_with_commit(self):
        events = transaction_events(
            "A", "BA", [op("BA", "deposit", 5)], do_commit=True
        )
        h = History(events)
        assert h.committed() == {"A"}
        assert h.opseq() == (op("BA", "deposit", 5),)

    def test_serial_block_without_commit(self):
        events = transaction_events("A", "BA", [op("BA", "deposit", 5)], do_commit=False)
        assert History(events).committed() == frozenset()
