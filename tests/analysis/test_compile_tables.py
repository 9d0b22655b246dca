"""Unit tests for the table a :class:`~repro.core.conflict.ClassifierConflict`
carries: its row masks, its closure under ``sym`` and ``∪``, and the lock
manager's use of it — each verdict against the set-lookup twin
:func:`repro.reference.matrix_conflict`."""

from repro.adts import BankAccount, KVStore
from repro.analysis.compile_tables import maybe_compile
from repro.core.conflict import (
    ClassifierConflict,
    PairSetConflict,
    PredicateConflict,
    WithoutPairs,
    symmetric_closure,
    union,
)
from repro.core.events import op
from repro.reference import matrix_conflict, opaque_conflict
from repro.runtime.lock_manager import LockManager


def classify_kind(operation):
    return operation.invocation.name


def toy_relation():
    return ClassifierConflict(
        classify_kind, [("w", "w"), ("w", "r"), ("r", "w")], name="toy"
    )


# -- the relation's own masks -------------------------------------------------------


def test_asymmetric_table_detected():
    relation = ClassifierConflict(classify_kind, [("a", "b")], name="asym")
    a, b = op("X", "a"), op("X", "b")
    assert relation.conflicts(a, b) and not relation.conflicts(b, a)
    assert relation.row_mask(a) == 1 << relation.class_index(b)
    assert relation.row_mask(b) == 0
    assert not relation.is_symmetric((a, b))
    closed = symmetric_closure(relation)
    assert closed.is_symmetric((a, b)) and closed.matrix == {("a", "b"), ("b", "a")}
    assert toy_relation().is_symmetric((op("X", "r", response="v"), op("X", "w", 1)))


def test_unknown_label_grows_with_empty_row():
    relation = toy_relation()
    stranger = op("X", "x", response="done")
    known = op("X", "w", 1)
    assert relation.row_mask(stranger) == 0
    assert not relation.conflicts(stranger, known)
    assert not relation.conflicts(known, stranger)
    # the grown label has an index of its own, beyond the matrix's
    assert relation.class_index(stranger) == 2
    assert relation.class_index(op("X", "x", response="again")) == 2
    assert relation.matrix == toy_relation().matrix


def test_compile_classifier_grow_matches_matrix_miss():
    """A label outside the matrix answers False both ways, like the
    set-lookup twin."""
    relation = ClassifierConflict(classify_kind, [("w", "w")], name="w-only")
    oracle = matrix_conflict(relation)
    w, r = op("X", "w"), op("X", "r", response="v")
    for new, old in ((w, w), (w, r), (r, w), (r, r)):
        assert relation.conflicts(new, old) == oracle.conflicts(new, old)
    assert relation.conflicts(w, w) and not relation.conflicts(r, w)


def test_maybe_compile_dispatch():
    """The table of a relation is the relation itself, or None."""
    ba = BankAccount("BA")
    relation = ba.nrbc_conflict()
    assert maybe_compile(relation) is relation
    assert maybe_compile(symmetric_closure(relation)) is not None
    assert maybe_compile(union(ba.nfc_conflict(), relation)) is not None
    assert maybe_compile(relation | ba.nfc_conflict()) is not None
    for loop in (
        PredicateConflict(lambda a, b: True),
        PairSetConflict([]),
        WithoutPairs(relation, []),
        opaque_conflict(relation),
        matrix_conflict(relation),
        symmetric_closure(opaque_conflict(relation)),
        union(relation, PredicateConflict(lambda a, b: False)),
        union(relation, KVStore("KV").nrbc_conflict()),  # two classifiers
    ):
        assert maybe_compile(loop) is None, loop.name


def test_refine_carried_through_compilation():
    """The refinement fires on class hits — in the relation and in both
    closures, each side's refine on the pairs its own matrix marks."""
    kv = KVStore("KV")
    relation = kv.nrbc_conflict()
    oracle = matrix_conflict(relation)
    write_a = op("KV", "put", "a", 1)
    write_b = op("KV", "put", "b", 1)
    assert relation.conflicts(write_a, write_a) and oracle.conflicts(write_a, write_a)
    assert not relation.conflicts(write_a, write_b)
    assert not oracle.conflicts(write_a, write_b)
    alphabet = kv.ground_alphabet()
    closed = symmetric_closure(relation)
    assert closed.refine is not None and closed.name == "sym(NRBC(KV))"
    assert closed.pairs(alphabet) == symmetric_closure(oracle).pairs(alphabet)
    both = union(kv.nfc_conflict(), relation)
    assert both.refine is not None and both.name == "union(NFC(KV), NRBC(KV))"
    assert both.pairs(alphabet) == union(
        matrix_conflict(kv.nfc_conflict()), oracle
    ).pairs(alphabet)
    # a refine-free table stays refine-free under both
    ba = BankAccount("BA")
    assert symmetric_closure(ba.nrbc_conflict()).refine is None
    assert union(ba.nfc_conflict(), ba.nrbc_conflict()).refine is None


# -- LockManager: masks when the relation is a table, per-pair loop otherwise ------


def test_uncompilable_relation_falls_back_to_interpreted():
    manager = LockManager(PredicateConflict(lambda a, b: True, name="total"))
    assert manager.table is None
    manager.acquire("T1", op("X", "w"))
    assert manager.blockers("T2", op("X", "w")) == frozenset(["T1"])


def test_lock_manager_release_clears_masks():
    ba = BankAccount("BA")
    manager = LockManager(ba.nrbc_conflict())
    assert manager.table is manager.conflict
    deposit = op("BA", "deposit", 1)
    balance = op("BA", "balance", response=0)
    manager.acquire("T1", deposit)
    assert manager.blockers("T2", balance) == frozenset(["T1"])
    manager.release_all("T1")
    assert not manager.blockers("T2", balance)
    assert manager.held_by("T1") == ()


def test_restart_reuses_the_relations_table():
    """The table is the relation: a crash restart builds a fresh lock
    manager over the same relation, masks and classification cache
    included."""
    from repro.runtime.durability import DurableObject

    ba = BankAccount("BA")
    obj = DurableObject(ba, ba.nrbc_conflict(), "UIP")
    table = obj.locks.table
    locks = obj.locks
    obj.crash_and_restart()
    assert obj.locks is not locks
    assert obj.locks.table is table is obj.conflict
