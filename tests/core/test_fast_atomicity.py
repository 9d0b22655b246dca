"""The order search cross-validated against the enumerating oracle on
randomized traces, plus the sizes only the search finishes.

(The file keeps the name it had when the search was a module of its
own, ``core.fast_atomicity``: its test ids are part of the tier-1
floor.  The hand-written product/oracle cases are in
``test_atomicity.py``.)
"""

import random

import pytest

from repro.adts import BankAccount, SemiQueue, SetADT
from repro.core.atomicity import (
    find_dynamic_atomicity_violation,
    find_serialization_order,
    is_atomic,
    is_dynamic_atomic,
    is_serializable,
    serializable_in_order,
)
from repro.core.conflict import EmptyConflict
from repro.core.events import abort, commit, inv, invoke, respond
from repro.core.history import History
from repro.core.object_automaton import TransactionProgram, generate_trace
from repro.core.views import DU, UIP
from repro.experiments.examples import (
    section_3_3_history,
    section_3_4_perturbed_history,
)
from repro.reference import (
    enumerate_find_dynamic_atomicity_violation,
    enumerate_find_serialization_order,
)

from .test_atomicity import commuting_history


@pytest.fixture(scope="module")
def ba():
    return BankAccount(domain=(1, 2))


class TestPaperExamples:
    def test_example_history(self, ba):
        h = section_3_3_history()
        assert is_serializable(h, ba)
        assert is_atomic(h, ba)
        assert is_dynamic_atomic(h, ba)

    def test_perturbed_history(self, ba):
        h = section_3_4_perturbed_history()
        assert is_atomic(h, ba)
        violation = find_dynamic_atomicity_violation(h, ba)
        assert violation is not None
        # The witnessed order genuinely fails against the definition.
        assert not serializable_in_order(h.permanent(), violation.order, ba)

    def test_serialization_order_is_legal(self, ba):
        h = section_3_3_history()
        order = find_serialization_order(h, ba)
        assert serializable_in_order(h, order, ba)


class TestCrossValidation:
    """Same witnesses as the enumerating oracle on randomized traces."""

    def _trace(self, adt, view, conflict, seed, n_txns=4):
        rng = random.Random(seed)
        invocations = adt.invocation_alphabet()
        programs = [
            TransactionProgram(
                "T%d" % i, tuple(rng.choice(invocations) for _ in range(2))
            )
            for i in range(n_txns)
        ]
        return generate_trace(
            adt, view, conflict, programs, rng, abort_probability=0.2
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_agreement_on_safe_traces(self, ba, seed):
        h = self._trace(ba, UIP, ba.nrbc_conflict(), seed)
        assert find_dynamic_atomicity_violation(
            h, ba
        ) == enumerate_find_dynamic_atomicity_violation(h, ba)

    @pytest.mark.parametrize("seed", range(10))
    def test_agreement_on_unsafe_traces(self, ba, seed):
        h = self._trace(ba, UIP, EmptyConflict(), seed)
        assert find_dynamic_atomicity_violation(
            h, ba
        ) == enumerate_find_dynamic_atomicity_violation(h, ba)

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_on_serializability(self, ba, seed):
        h = self._trace(ba, DU, ba.nfc_conflict(), seed)
        perm = h.permanent()
        assert find_serialization_order(
            perm, ba
        ) == enumerate_find_serialization_order(perm, ba)

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_on_semiqueue(self, seed):
        sq = SemiQueue(domain=("a", "b"))
        h = self._trace(sq, UIP, sq.nrbc_conflict(), seed)
        assert find_dynamic_atomicity_violation(
            h, sq
        ) == enumerate_find_dynamic_atomicity_violation(h, sq)

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_on_set(self, seed):
        s = SetADT(domain=("a", "b"))
        h = self._trace(s, DU, s.nfc_conflict(), seed)
        assert find_dynamic_atomicity_violation(
            h, s
        ) == enumerate_find_dynamic_atomicity_violation(h, s)


class TestScaling:
    def test_many_commuting_transactions(self, ba):
        """12 deposits: 12! orders collapse into 2**12 configurations."""
        # finishes fast; the oracle would not
        assert is_dynamic_atomic(commuting_history(12), ba)

    def test_long_serial_history(self):
        """2 000 serial committed deposits: the search walks 2 000 deep
        on its own stack, where one frame per transaction overflowed
        Python's recursion limit."""
        names = ["T%04d" % i for i in range(2000)]
        events = []
        for txn in names:
            events.append(invoke(inv("deposit", 1), "BA", txn))
            events.append(respond("ok", "BA", txn))
            events.append(commit("BA", txn))
        h = History(events)
        account = BankAccount("BA")
        assert is_dynamic_atomic(h, account)
        assert find_serialization_order(h, account) == tuple(names)

    def test_multi_object(self):
        ba = BankAccount("ACC1", opening=5)
        ba2 = BankAccount("ACC2", opening=5)
        events = []
        for i, obj in enumerate(["ACC1", "ACC2"] * 3):
            txn = "T%d" % i
            events.append(invoke(inv("deposit", 1), obj, txn))
            events.append(respond("ok", obj, txn))
            events.append(commit(obj, txn))
        h = History(events)
        assert is_dynamic_atomic(h, {"ACC1": ba, "ACC2": ba2})

    def test_missing_spec_raises(self, ba):
        h = History.of(
            invoke(inv("x"), "OTHER", "A"),
            respond("ok", "OTHER", "A"),
            commit("OTHER", "A"),
        )
        with pytest.raises(KeyError):
            is_dynamic_atomic(h, ba)

    def test_rejects_aborting_history_for_serializability(self, ba):
        h = History.of(abort("BA", "A"))
        with pytest.raises(ValueError):
            is_serializable(h, ba)
