"""Unit tests for serializability, atomicity and dynamic atomicity.

``repro.core.atomicity`` is the pruned, memoized order search; the
enumerating checkers it replaced are the ``repro.reference.enumerate_*``
oracles.  ``TestProductAndOracle`` runs both over the same inputs.
"""

import types

import pytest

from repro import reference
from repro.adts import BankAccount, Register
from repro.core import atomicity
from repro.core.atomicity import (
    commit_sets,
    find_dynamic_atomicity_violation,
    find_online_violation,
    find_serialization_order,
    is_acceptable,
    is_atomic,
    is_dynamic_atomic,
    is_online_dynamic_atomic,
    is_serializable,
    normalize_specs,
    serializable_in_order,
)
from repro.core.events import abort, commit, inv, invoke, op, respond
from repro.core.history import History
from repro.reference import (
    TooManyOrdersError,
    enumerate_find_dynamic_atomicity_violation,
    enumerate_find_serialization_order,
    linear_extensions,
)


@pytest.fixture
def ba():
    return BankAccount()


def committed_pair_history():
    """A deposits 5 and commits; B withdraws 3 and commits — serial."""
    return History.of(
        invoke(inv("deposit", 5), "BA", "A"),
        respond("ok", "BA", "A"),
        commit("BA", "A"),
        invoke(inv("withdraw", 3), "BA", "B"),
        respond("ok", "BA", "B"),
        commit("BA", "B"),
    )


def unserializable_history():
    """Two successful withdrawals of 2 each with only 3 deposited: no
    order works."""
    return History.of(
        invoke(inv("deposit", 3), "BA", "A"),
        respond("ok", "BA", "A"),
        commit("BA", "A"),
        invoke(inv("withdraw", 2), "BA", "B"),
        respond("ok", "BA", "B"),
        invoke(inv("withdraw", 2), "BA", "C"),
        respond("ok", "BA", "C"),
        commit("BA", "B"),
        commit("BA", "C"),
    )


def order_sensitive_history():
    """B and C concurrent; serializable A-B-C but not A-C-B."""
    return History.of(
        invoke(inv("deposit", 2), "BA", "A"),
        respond("ok", "BA", "A"),
        commit("BA", "A"),
        invoke(inv("withdraw", 2), "BA", "B"),
        respond("ok", "BA", "B"),
        invoke(inv("withdraw", 2), "BA", "C"),
        respond("no", "BA", "C"),
        commit("BA", "B"),
        commit("BA", "C"),
    )


def overdrawn_active_history():
    """A (committed) deposits 2; B and C, both still active, each
    withdraw the whole balance: the commit set {A, B, C} cannot
    serialize."""
    return History.of(
        invoke(inv("deposit", 2), "BA", "A"),
        respond("ok", "BA", "A"),
        commit("BA", "A"),
        invoke(inv("withdraw", 2), "BA", "B"),
        respond("ok", "BA", "B"),
        invoke(inv("withdraw", 2), "BA", "C"),
        respond("ok", "BA", "C"),
    )


def commuting_history(n):
    """``n`` concurrent committed ``deposit(1)`` transactions: ``n!``
    linear extensions, one configuration per subset (``2**n``)."""
    txns = ["T%02d" % i for i in range(n)]
    events = []
    for txn in txns:
        events.append(invoke(inv("deposit", 1), "BA", txn))
        events.append(respond("ok", "BA", txn))
    events.extend(commit("BA", txn) for txn in txns)
    return History(events)


class TestNormalizeSpecs:
    def test_single_spec(self, ba):
        assert normalize_specs(ba) == {"BA": ba}

    def test_mapping(self, ba):
        assert normalize_specs({"BA": ba}) == {"BA": ba}

    def test_iterable(self, ba):
        reg = Register("REG")
        specs = normalize_specs([ba, reg])
        assert set(specs) == {"BA", "REG"}


class TestAcceptable:
    def test_acceptable_history(self, ba):
        assert is_acceptable(committed_pair_history(), ba)

    def test_unacceptable_history(self, ba):
        h = History.of(
            invoke(inv("withdraw", 3), "BA", "A"),
            respond("ok", "BA", "A"),  # illegal from balance 0
            commit("BA", "A"),
        )
        assert not is_acceptable(h, ba)

    def test_missing_spec_raises(self, ba):
        h = History.of(commit("OTHER", "A"), )
        h = History.of(
            invoke(inv("x"), "OTHER", "A"),
            respond("ok", "OTHER", "A"),
        )
        with pytest.raises(KeyError):
            is_acceptable(h, ba)

    def test_multi_object_acceptability(self, ba):
        reg = Register("REG", domain=("u", "v"), initial="u")
        h = History.of(
            invoke(inv("deposit", 1), "BA", "A"),
            respond("ok", "BA", "A"),
            invoke(inv("read"), "REG", "A"),
            respond("u", "REG", "A"),
        )
        assert is_acceptable(h, [ba, reg])


class TestSerializability:
    def test_order_dependent(self, ba):
        h = committed_pair_history()
        assert serializable_in_order(h, ["A", "B"], ba)
        assert not serializable_in_order(h, ["B", "A"], ba)

    def test_find_serialization_order(self, ba):
        h = committed_pair_history()
        assert find_serialization_order(h, ba) == ("A", "B")

    def test_is_serializable(self, ba):
        assert is_serializable(committed_pair_history(), ba)

    def test_not_serializable(self, ba):
        assert not is_serializable(unserializable_history(), ba)

    def test_rejects_aborting_history(self, ba):
        h = History.of(abort("BA", "A"))
        with pytest.raises(ValueError):
            serializable_in_order(h, ["A"], ba)

    def test_max_orders_guard(self, ba):
        """The budget went to ``repro.reference`` with the enumerator."""
        h = committed_pair_history()
        with pytest.raises(TooManyOrdersError):
            enumerate_find_serialization_order(h, ba, max_orders=0)


class TestAtomicity:
    def test_atomic_ignores_active(self, ba):
        h = History.of(
            invoke(inv("deposit", 5), "BA", "A"),
            respond("ok", "BA", "A"),
            commit("BA", "A"),
            invoke(inv("withdraw", 3), "BA", "B"),
            respond("ok", "BA", "B"),
            # B never commits
        )
        assert is_atomic(h, ba)

    def test_atomic_ignores_aborted(self, ba):
        h = History.of(
            invoke(inv("withdraw", 3), "BA", "A"),
            respond("ok", "BA", "A"),  # would be illegal if permanent...
            abort("BA", "A"),
        )
        # The sole operation belongs to an aborted transaction; the
        # permanent part is empty, hence atomic.  (The response itself
        # could never be generated by a correct object; atomicity judges
        # only the committed outcome.)
        assert is_atomic(h, ba)


class TestLinearExtensions:
    def test_no_constraints_all_permutations(self):
        exts = list(linear_extensions(["a", "b", "c"], []))
        assert len(exts) == 6

    def test_total_order_single_extension(self):
        exts = list(linear_extensions(["a", "b", "c"], [("a", "b"), ("b", "c")]))
        assert exts == [("a", "b", "c")]

    def test_partial_order(self):
        exts = set(linear_extensions(["a", "b", "c"], [("a", "b")]))
        assert exts == {("a", "b", "c"), ("a", "c", "b"), ("c", "a", "b")}

    def test_constraints_outside_universe_ignored(self):
        exts = list(linear_extensions(["a"], [("x", "y")]))
        assert exts == [("a",)]

    def test_empty(self):
        assert list(linear_extensions([], [])) == [()]


class TestDynamicAtomicity:
    def test_serial_history_is_dynamic_atomic(self, ba):
        assert is_dynamic_atomic(committed_pair_history(), ba)

    def test_concurrent_unserializable_order_detected(self, ba):
        violation = find_dynamic_atomicity_violation(order_sensitive_history(), ba)
        assert violation is not None
        assert violation.order == ("A", "C", "B")

    def test_precedes_limits_orders(self, ba):
        # Same operations but C starts after B commits: only A-B-C needs
        # to serialize, and it does.
        h = History.of(
            invoke(inv("deposit", 2), "BA", "A"),
            respond("ok", "BA", "A"),
            commit("BA", "A"),
            invoke(inv("withdraw", 2), "BA", "B"),
            respond("ok", "BA", "B"),
            commit("BA", "B"),
            invoke(inv("withdraw", 2), "BA", "C"),
            respond("no", "BA", "C"),
            commit("BA", "C"),
        )
        assert is_dynamic_atomic(h, ba)

    def test_dynamic_atomic_implies_atomic(self, ba):
        h = committed_pair_history()
        assert is_dynamic_atomic(h, ba) and is_atomic(h, ba)

    def test_atomic_but_not_dynamic_atomic(self, ba):
        """The Section 3.4 phenomenon, in miniature."""
        from repro.experiments.examples import section_3_4_perturbed_history

        h = section_3_4_perturbed_history()
        assert is_atomic(h, ba)
        assert not is_dynamic_atomic(h, ba)

    def test_max_orders_guard(self, ba):
        h = committed_pair_history()
        # Both orders must be examined when there is no precedes edge...
        # here there IS an edge, so one order: guard of 0 triggers.
        with pytest.raises(TooManyOrdersError):
            enumerate_find_dynamic_atomicity_violation(h, ba, max_orders=0)

    def test_commuting_transactions_collapse(self, ba):
        """14! linear extensions, 2**14 configurations: the enumerator
        gave up here (``TooManyOrdersError``); the search just answers."""
        assert is_dynamic_atomic(commuting_history(14), ba) is True


class TestOnlineDynamicAtomicity:
    def test_commit_sets_enumeration(self):
        h = History.of(
            commit("X", "A"),
            abort("X", "B"),
            invoke(inv("a"), "X", "C"),
        )
        sets = set(commit_sets(h))
        assert sets == {frozenset({"A"}), frozenset({"A", "C"})}

    def test_online_stronger_than_plain(self, ba):
        """A history dynamic atomic now, but some commit set fails.

        B (active) has withdrawn the whole balance; C (active) has also
        withdrawn it.  Nothing is committed besides A, so permanent(H)
        is fine — but the commit set {A, B, C} cannot serialize.
        """
        h = overdrawn_active_history()
        assert is_dynamic_atomic(h, ba)
        violation = find_online_violation(h, ba)
        assert violation is not None
        assert violation.commit_set == {"A", "B", "C"}

    def test_online_holds_for_clean_history(self, ba):
        assert is_online_dynamic_atomic(committed_pair_history(), ba)

    def test_online_implies_dynamic(self, ba):
        h = committed_pair_history()
        assert is_online_dynamic_atomic(h, ba)
        assert is_dynamic_atomic(h, ba)

    def test_violation_str_mentions_commit_set(self, ba):
        violation = find_online_violation(overdrawn_active_history(), ba)
        assert "commit set" in str(violation)


PRODUCT = types.SimpleNamespace(
    serialization_order=atomicity.find_serialization_order,
    violation=atomicity.find_dynamic_atomicity_violation,
    online_violation=atomicity.find_online_violation,
)
ORACLE = types.SimpleNamespace(
    serialization_order=reference.enumerate_find_serialization_order,
    violation=reference.enumerate_find_dynamic_atomicity_violation,
    online_violation=reference.enumerate_find_online_violation,
)


@pytest.mark.parametrize(
    "checker", [PRODUCT, ORACLE], ids=["product", "oracle"]
)
class TestProductAndOracle:
    """The search and the enumerator on the same inputs, same witnesses."""

    def test_serial_pair(self, ba, checker):
        h = committed_pair_history()
        assert checker.serialization_order(h, ba) == ("A", "B")
        assert checker.violation(h, ba) is None
        assert checker.online_violation(h, ba) is None

    def test_no_order_serializes(self, ba, checker):
        h = unserializable_history()
        assert checker.serialization_order(h, ba) is None
        assert checker.violation(h, ba).order == ("A", "B", "C")

    def test_first_failing_extension_is_the_witness(self, ba, checker):
        h = order_sensitive_history()
        assert checker.serialization_order(h, ba) == ("A", "B", "C")
        assert checker.violation(h, ba).order == ("A", "C", "B")

    def test_online_witness_names_the_commit_set(self, ba, checker):
        h = overdrawn_active_history()
        assert checker.violation(h, ba) is None
        violation = checker.online_violation(h, ba)
        assert violation.commit_set == {"A", "B", "C"}
        assert violation.order == ("A", "B", "C")

    def test_commuting_deposits(self, ba, checker):
        h = commuting_history(5)
        assert checker.serialization_order(h, ba) == tuple(sorted(h.transactions()))
        assert checker.violation(h, ba) is None
