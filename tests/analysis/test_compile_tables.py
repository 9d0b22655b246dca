"""Unit tests for the table a :class:`~repro.core.conflict.ClassifierConflict`
carries: its rows and slots, its closure under ``sym`` and ``∪``, and the
lock manager's ``(class, key)`` index over it — each verdict against the
set-lookup twin :func:`repro.reference.matrix_conflict`."""

from repro.adts import BankAccount, KVStore, PriorityQueue
from repro.adts.base import first_argument
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


# -- the relation's own rows -----------------------------------------------------------


def test_asymmetric_table_detected():
    relation = ClassifierConflict(classify_kind, [("a", "b")], name="asym")
    a, b = op("X", "a"), op("X", "b")
    assert relation.conflicts(a, b) and not relation.conflicts(b, a)
    (a_idx, a_key), (b_idx, b_key) = relation.slot(a), relation.slot(b)
    assert relation.rows[a_idx] == (b_idx,) and relation.rows[b_idx] == ()
    assert a_key is b_key is None  # no key: the whole object is one
    assert not relation.is_symmetric((a, b))
    closed = symmetric_closure(relation)
    assert closed.is_symmetric((a, b)) and closed.matrix == {("a", "b"), ("b", "a")}
    assert toy_relation().is_symmetric((op("X", "r", response="v"), op("X", "w", 1)))


def test_unknown_label_grows_with_empty_row():
    relation = toy_relation()
    stranger = op("X", "x", response="done")
    known = op("X", "w", 1)
    idx, _key = relation.slot(stranger)
    assert relation.rows[idx] == ()
    assert idx not in relation.rows[relation.slot(known)[0]]
    assert not relation.conflicts(stranger, known)
    assert not relation.conflicts(known, stranger)
    # the grown label has an index of its own, beyond the matrix's
    assert idx == 2
    assert relation.slot(op("X", "x", response="again")) == (2, None)
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
        PriorityQueue("PQ").nfc_conflict(),  # an ordering, not a key
    ):
        assert maybe_compile(loop) is None, loop.name


def test_key_carried_through_closures():
    """Same classes, other keys: no conflict — in the relation and in both
    closures, which stay tables while every member has the same key."""
    kv = KVStore("KV")
    relation = kv.nrbc_conflict()
    oracle = matrix_conflict(relation)
    write_a = op("KV", "put", "a", 1)
    write_b = op("KV", "put", "b", 1)
    assert relation.conflicts(write_a, write_a) and oracle.conflicts(write_a, write_a)
    assert not relation.conflicts(write_a, write_b)
    assert not oracle.conflicts(write_a, write_b)
    assert relation.slot(write_a) == (relation.slot(write_b)[0], "a")
    alphabet = kv.ground_alphabet()
    closed = symmetric_closure(relation)
    assert closed.key is first_argument and closed.name == "sym(NRBC(KV))"
    assert closed.pairs(alphabet) == symmetric_closure(oracle).pairs(alphabet)
    both = union(kv.nfc_conflict(), relation)
    assert both.key is first_argument and both.name == "union(NFC(KV), NRBC(KV))"
    assert both.pairs(alphabet) == union(
        matrix_conflict(kv.nfc_conflict()), oracle
    ).pairs(alphabet)
    # one classifier, two keys: a predicate, still the union of the two
    whole = ClassifierConflict(kv.classify, relation.matrix)
    mixed = union(relation, whole)
    assert maybe_compile(mixed) is None
    assert mixed.pairs(alphabet) == whole.pairs(alphabet) > relation.pairs(alphabet)
    # an unkeyed table stays unkeyed under both
    ba = BankAccount("BA")
    assert symmetric_closure(ba.nrbc_conflict()).key is None
    assert union(ba.nfc_conflict(), ba.nrbc_conflict()).key is None


# -- LockManager: the (class, key) index on a table, per-pair loop otherwise ------------


def test_uncompilable_relation_falls_back_to_interpreted():
    manager = LockManager(PredicateConflict(lambda a, b: True, name="total"))
    assert manager.table is None
    manager.acquire("T1", op("X", "w"))
    assert manager.blockers("T2", op("X", "w")) == frozenset(["T1"])


def test_lock_manager_release_clears_masks():
    """``release_all`` takes the holder out of every slot it held, and a
    slot nobody holds leaves the index."""
    ba = BankAccount("BA")
    manager = LockManager(ba.nrbc_conflict())
    assert manager.table is manager.conflict
    deposit = op("BA", "deposit", 1)
    balance = op("BA", "balance", response=0)
    manager.acquire("T1", deposit)
    manager.acquire("T1", deposit)
    manager.acquire("T3", deposit)
    assert manager.blockers("T2", balance) == frozenset(["T1", "T3"])
    manager.release_all("T1")
    assert manager.blockers("T2", balance) == frozenset(["T3"])
    manager.release_all("T3")
    assert not manager.blockers("T2", balance)
    assert manager.held_by("T1") == () and manager._index == {}


def test_restart_reuses_the_relations_table():
    """The table is the relation: a crash restart builds a fresh lock
    manager over the same relation, rows and slot cache included."""
    from repro.runtime.system import ManagedObject
    from repro.runtime.wal import StableLog

    ba = BankAccount("BA")
    obj = ManagedObject(ba, ba.nrbc_conflict(), "UIP", log=StableLog())
    table = obj.locks.table
    locks = obj.locks
    obj.crash_and_restart()
    assert obj.locks is not locks
    assert obj.locks.table is table is obj.conflict
