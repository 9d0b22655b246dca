"""Unit tests for the bitmask table compiler (:mod:`repro.analysis.compile_tables`)."""

import pytest

from repro.adts import BankAccount, KVStore
from repro.analysis.compile_tables import (
    CompiledConflict,
    CompiledTable,
    compile_classifier,
    compile_table,
    maybe_compile,
)
from repro.analysis.tables import ConflictTable
from repro.core.conflict import ClassifierConflict, PredicateConflict
from repro.core.events import op
from repro.runtime.lock_manager import LockManager


def small_table():
    return ConflictTable(
        "toy",
        ("r", "w"),
        frozenset([("w", "w"), ("w", "r"), ("r", "w")]),
    )


# -- CompiledTable ---------------------------------------------------------------


def test_compile_table_roundtrip():
    table = small_table()
    compiled = compile_table(table)
    assert compiled.labels == table.labels
    assert set(compiled.marks()) == set(table.marks)
    assert compiled.to_conflict_table("toy") == table
    assert compiled.marked("w", "w") and not compiled.marked("r", "r")
    assert compiled.is_symmetric()


def test_compiled_table_validation():
    with pytest.raises(ValueError):
        CompiledTable(("a", "b"), (0,))  # length mismatch
    with pytest.raises(ValueError):
        CompiledTable(("a", "a"), (0, 0))  # duplicate labels


def test_asymmetric_table_detected():
    compiled = compile_table(
        ConflictTable("asym", ("a", "b"), frozenset([("a", "b")]))
    )
    assert not compiled.is_symmetric()
    assert compiled.conflicts_idx(0, 1) and not compiled.conflicts_idx(1, 0)


# -- CompiledConflict ------------------------------------------------------------


def classify_kind(operation):
    return operation.invocation.name


def test_unknown_label_grows_with_empty_row():
    compiled = CompiledConflict(
        classify_kind, compile_table(small_table()), name="toy"
    )
    stranger = op("X", "x", response="done")
    known = op("X", "w", 1)
    assert compiled.row_mask(stranger) == 0
    assert not compiled.conflicts(stranger, known)
    assert not compiled.conflicts(known, stranger)
    # the grown label is now part of the table universe
    assert "x" in compiled.labels
    assert compiled.held_bit(stranger) == 1 << compiled.class_index(stranger)


def test_compile_classifier_grow_matches_matrix_miss():
    """A label outside the matrix answers False, like ClassifierConflict."""
    relation = ClassifierConflict(
        classify_kind, [("w", "w")], name="w-only"
    )
    compiled = compile_classifier(relation)
    w, r = op("X", "w"), op("X", "r", response="v")
    for new, old in ((w, w), (w, r), (r, w), (r, r)):
        assert compiled.conflicts(new, old) == relation.conflicts(new, old)


def test_maybe_compile_dispatch():
    ba = BankAccount("BA")
    relation = ba.nrbc_conflict()
    compiled = maybe_compile(relation)
    assert isinstance(compiled, CompiledConflict)
    assert maybe_compile(compiled) is compiled  # pass-through
    assert maybe_compile(relation) is compiled  # once per relation instance
    assert maybe_compile(ba.nrbc_conflict()) is not compiled
    assert maybe_compile(PredicateConflict(lambda a, b: True)) is None


def test_refine_carried_through_compilation():
    kv = KVStore("KV")
    relation = kv.nrbc_conflict()
    compiled = compile_classifier(relation)
    assert compiled.refine is relation.refine
    write_a = op("KV", "put", "a", 1)
    write_b = op("KV", "put", "b", 1)
    assert compiled.conflicts(write_a, write_a) == relation.conflicts(
        write_a, write_a
    )
    assert compiled.conflicts(write_a, write_b) == relation.conflicts(
        write_a, write_b
    )
    # the refinement really fires: same key conflicts, different key not
    assert compiled.conflicts(write_a, write_a)
    assert not compiled.conflicts(write_a, write_b)


# -- LockManager: table when the relation compiles, per-pair loop otherwise -----


def test_uncompilable_relation_falls_back_to_interpreted():
    manager = LockManager(PredicateConflict(lambda a, b: True, name="total"))
    assert manager.compiled is None
    manager.acquire("T1", op("X", "w"))
    assert manager.blockers("T2", op("X", "w")) == frozenset(["T1"])


def test_lock_manager_release_clears_masks():
    ba = BankAccount("BA")
    manager = LockManager(ba.nrbc_conflict())
    assert manager.compiled is not None
    deposit = op("BA", "deposit", 1)
    balance = op("BA", "balance", response=0)
    manager.acquire("T1", deposit)
    assert manager.blockers("T2", balance) == frozenset(["T1"])
    manager.release_all("T1")
    assert not manager.blockers("T2", balance)
    assert manager.held_by("T1") == ()


def test_restart_reuses_the_relations_table():
    """One table per relation instance: a crash restart builds a fresh
    lock manager over the same relation and does not compile again."""
    from repro.runtime.durability import DurableObject

    ba = BankAccount("BA")
    obj = DurableObject(ba, ba.nrbc_conflict(), "UIP")
    table = obj.locks.compiled
    locks = obj.locks
    obj.crash_and_restart()
    assert obj.locks is not locks
    assert obj.locks.compiled is table
