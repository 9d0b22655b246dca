"""Unit tests for conflict relations and their combinators."""

import pytest

from repro.adts import BankAccount
from repro.core.conflict import (
    ClassifierConflict,
    EmptyConflict,
    PairSetConflict,
    PredicateConflict,
    TotalConflict,
    WithoutPairs,
    incomparable,
    relation_difference,
    symmetric_closure,
    union,
)
from repro.core.events import op

A = op("X", "a")
B = op("X", "b")
C = op("X", "c")
ALPHABET = (A, B, C)


class TestBasicRelations:
    def test_empty(self):
        assert not EmptyConflict().conflicts(A, B)
        assert EmptyConflict().pairs(ALPHABET) == frozenset()

    def test_total(self):
        assert TotalConflict().conflicts(A, A)
        assert len(TotalConflict().pairs(ALPHABET)) == 9

    def test_predicate(self):
        rel = PredicateConflict(lambda new, old: new.name == "a")
        assert rel.conflicts(A, B)
        assert not rel.conflicts(B, A)

    def test_callable_protocol(self):
        rel = TotalConflict()
        assert rel(A, B)


class TestPairSetConflict:
    def test_known_pairs(self):
        rel = PairSetConflict([(A, B)], alphabet=ALPHABET)
        assert rel.conflicts(A, B)
        assert not rel.conflicts(B, A)

    def test_strict_fallback_for_unknown(self):
        rel = PairSetConflict([(A, B)], alphabet=(A, B))
        unknown = op("X", "zzz")
        assert rel.conflicts(unknown, A)

    def test_lenient_fallback(self):
        rel = PairSetConflict([(A, B)], alphabet=(A, B), strict=False)
        unknown = op("X", "zzz")
        assert not rel.conflicts(unknown, A)

    def test_explicit_pairs(self):
        rel = PairSetConflict([(A, B)])
        assert rel.explicit_pairs == {(A, B)}


class TestClassifierConflict:
    def classify(self, operation):
        return operation.name

    def test_matrix(self):
        rel = ClassifierConflict(self.classify, [("a", "b")])
        assert rel.conflicts(A, B)
        assert not rel.conflicts(B, A)
        assert not rel.conflicts(A, C)

    def test_refinement(self):
        """A key narrows a class hit to operations on the same key."""
        rel = ClassifierConflict(
            self.classify,
            [("a", "a")],
            key=lambda operation: operation.args,
        )
        assert rel.conflicts(op("X", "a", 1), op("X", "a", 1))
        assert not rel.conflicts(op("X", "a", 1), op("X", "a", 2))
        assert rel.slot(op("X", "a", 1)) == (0, (1,))

    def test_classify_accessor(self):
        rel = ClassifierConflict(self.classify, [("a", "b")])
        assert rel.classify(A) == "a"
        assert rel.matrix == {("a", "b")}


class TestCombinators:
    def test_union(self):
        rel = union(
            PairSetConflict([(A, B)], alphabet=ALPHABET, strict=False),
            PairSetConflict([(B, C)], alphabet=ALPHABET, strict=False),
        )
        assert rel.conflicts(A, B)
        assert rel.conflicts(B, C)
        assert not rel.conflicts(C, A)

    def test_or_operator(self):
        rel = PairSetConflict([(A, B)], alphabet=ALPHABET, strict=False) | PairSetConflict(
            [(B, C)], alphabet=ALPHABET, strict=False
        )
        assert rel.conflicts(A, B) and rel.conflicts(B, C)

    def test_symmetric_closure(self):
        rel = symmetric_closure(PairSetConflict([(A, B)], alphabet=ALPHABET, strict=False))
        assert rel.conflicts(A, B)
        assert rel.conflicts(B, A)
        assert rel.is_symmetric(ALPHABET)

    def test_without_pairs(self):
        rel = WithoutPairs(TotalConflict(), [(A, B)])
        assert not rel.conflicts(A, B)
        assert rel.conflicts(B, A)


class TestComparisons:
    def test_contains(self):
        big = TotalConflict()
        small = PairSetConflict([(A, B)], alphabet=ALPHABET, strict=False)
        assert big.contains(small, ALPHABET)
        assert not small.contains(big, ALPHABET)

    def test_relation_difference(self):
        a = PairSetConflict([(A, B), (B, C)], alphabet=ALPHABET, strict=False)
        b = PairSetConflict([(A, B)], alphabet=ALPHABET, strict=False)
        assert relation_difference(a, b, ALPHABET) == {(B, C)}
        assert relation_difference(b, a, ALPHABET) == frozenset()

    def test_incomparable(self):
        a = PairSetConflict([(A, B)], alphabet=ALPHABET, strict=False)
        b = PairSetConflict([(B, C)], alphabet=ALPHABET, strict=False)
        assert incomparable(a, b, ALPHABET)
        assert not incomparable(a, a, ALPHABET)

    def test_is_symmetric_detects_asymmetry(self):
        rel = PairSetConflict([(A, B)], alphabet=ALPHABET, strict=False)
        assert not rel.is_symmetric(ALPHABET)


class TestBankAccountRelations:
    """The paper's incomparability claim, at the relation level."""

    def test_nfc_symmetric_nrbc_not(self):
        ba = BankAccount(domain=(1, 2))
        alphabet = ba.ground_alphabet()
        assert ba.nfc_conflict().is_symmetric(alphabet)
        assert not ba.nrbc_conflict().is_symmetric(alphabet)

    def test_nfc_nrbc_incomparable(self):
        ba = BankAccount(domain=(1, 2))
        alphabet = ba.ground_alphabet()
        assert incomparable(ba.nfc_conflict(), ba.nrbc_conflict(), alphabet)

    def test_witness_pairs(self):
        ba = BankAccount(domain=(1, 2))
        nfc = ba.nfc_conflict()
        nrbc = ba.nrbc_conflict()
        w1, w2 = ba.withdraw_ok(1), ba.withdraw_ok(2)
        assert nfc.conflicts(w1, w2) and not nrbc.conflicts(w1, w2)
        wno, wok = ba.withdraw_no(2), ba.withdraw_ok(1)
        assert nrbc.conflicts(wno, wok) and not nfc.conflicts(wno, wok)

    def test_symmetric_closure_strictly_larger(self):
        ba = BankAccount(domain=(1, 2))
        alphabet = ba.ground_alphabet()
        nrbc = ba.nrbc_conflict()
        sym = symmetric_closure(nrbc)
        assert sym.contains(nrbc, alphabet)
        assert relation_difference(sym, nrbc, alphabet)
