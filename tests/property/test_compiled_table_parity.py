"""Property suite: the ``(class, key)`` table ≡ the set-lookup reading of its matrix.

For every registered ADT and each relation the runtime locks with — NFC,
NRBC, ``symmetric_closure(NRBC)`` and ``union(NFC, NRBC)`` — the
:class:`~repro.core.conflict.ClassifierConflict` must answer exactly as
:func:`repro.reference.matrix_conflict` does (closures taken on the
oracle's side, so they share no arithmetic):

* cell-for-cell agreement of the class matrix with the
  :func:`~repro.analysis.tables.table_from_verdicts`/``PairMemo`` route
  over the full operation-class cross product (symmetry included);
* verdict-for-verdict agreement over the full ground-operation cross
  product — the keyed ADTs (KV by key, set by element) included, where a
  class hit still needs equal keys — and an unknown label answering
  False both ways;
* ``LockManager.blockers`` over seeded random lock tables returning the
  oracle manager's sets.

The priority queue weakens its class hits by comparing items, which is
not key equality, so its relations are predicates and its rows check the
loop side: no table anywhere (closures included), the class lift of the
predicate equal to the declared marks, and every verdict and blocker set
equal to those of the same predicate behind
:func:`repro.reference.opaque_conflict`.
"""

import random

import pytest

from repro.adts.priority_queue import PQ_NFC_MARKS, PQ_NRBC_MARKS
from repro.adts.registry import analysis_instance, registered_kinds
from repro.analysis import PairMemo
from repro.analysis.compile_tables import compile_adt_tables, maybe_compile
from repro.analysis.tables import table_from_verdicts
from repro.core.conflict import ClassifierConflict, symmetric_closure, union
from repro.core.lock_manager import LockManager
from repro.reference import matrix_conflict, opaque_conflict

KINDS = registered_kinds()
RELATIONS = ("nfc", "nrbc")
CLOSED = RELATIONS + ("sym", "union")
#: the kinds whose relations are predicates (the per-pair loop), with
#: the (NFC, NRBC) class marks their item ordering weakens
LOOP_MARKS = {"pqueue": (frozenset(PQ_NFC_MARKS), frozenset(PQ_NRBC_MARKS))}


def closed(nfc, nrbc, relation):
    return {
        "nfc": nfc,
        "nrbc": nrbc,
        "sym": symmetric_closure(nrbc),
        "union": union(nfc, nrbc),
    }[relation]


def twins(kind, relation):
    """``(relation, oracle)`` for one of the four relations of ``kind``: a
    table and its set-lookup reading, or a predicate and itself unseen."""
    adt = analysis_instance(kind)
    nfc, nrbc = adt.nfc_conflict(), adt.nrbc_conflict()
    leaf = opaque_conflict if kind in LOOP_MARKS else matrix_conflict
    return closed(nfc, nrbc, relation), closed(leaf(nfc), leaf(nrbc), relation)


def class_matrix(kind, table, relation):
    """The table's own matrix, or the loop side's marks closed alike."""
    if kind not in LOOP_MARKS:
        return table.matrix
    nfc, nrbc = LOOP_MARKS[kind]
    return {
        "nfc": nfc,
        "nrbc": nrbc,
        "sym": nrbc | {(col, row) for row, col in nrbc},
        "union": nfc | nrbc,
    }[relation]


def class_table(adt, oracle, memo=None):
    """The oracle lifted to classes: a cell is marked iff some instance
    pair conflicts."""
    return table_from_verdicts(
        oracle.name,
        tuple(adt.operation_classes()),
        lambda row, col: any(
            oracle.conflicts(a, b) for a in row.instances for b in col.instances
        ),
        memo=memo,
    )


@pytest.mark.parametrize("relation", CLOSED)
@pytest.mark.parametrize("kind", KINDS)
def test_compiled_table_matches_table_from_verdicts(kind, relation):
    """Matrix cells == the table_from_verdicts route, full cross product."""
    adt = analysis_instance(kind)
    table, oracle = twins(kind, relation)
    matrix = class_matrix(kind, table, relation)
    memo = PairMemo()
    reference = class_table(adt, oracle, memo)
    for row in reference.labels:
        for col in reference.labels:
            assert ((row, col) in matrix) == reference.marked(row, col), (
                kind,
                relation,
                row,
                col,
            )
    # memoization actually engaged: the verdict pass touched every cell
    assert len(memo) >= len(reference.labels)


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_compiled_symmetry_matches_interpreted(kind, relation):
    """Symmetry agrees at both levels: class matrix and ground relation."""
    adt = analysis_instance(kind)
    table, oracle = twins(kind, relation)
    matrix = class_matrix(kind, table, relation)
    transposed = {(col, row) for row, col in matrix}
    assert (matrix == transposed) == class_table(adt, oracle).is_symmetric()
    alphabet = adt.ground_alphabet()
    assert table.is_symmetric(alphabet) == oracle.is_symmetric(alphabet)
    sym, slow_sym = twins(kind, "sym")
    assert sym.is_symmetric(alphabet) and slow_sym.is_symmetric(alphabet)


@pytest.mark.parametrize("relation", CLOSED)
@pytest.mark.parametrize("kind", KINDS)
def test_compiled_verdicts_match_interpreted_ground(kind, relation):
    """conflicts(new, old) agrees pair-for-pair over the ground cross product."""
    adt = analysis_instance(kind)
    table, oracle = twins(kind, relation)
    expected = None if kind in LOOP_MARKS else table
    assert maybe_compile(table) is expected and maybe_compile(oracle) is None
    alphabet = adt.ground_alphabet()
    for new in alphabet:
        for old in alphabet:
            assert table.conflicts(new, old) == oracle.conflicts(new, old), (
                kind,
                relation,
                new,
                old,
            )
    assert table.pairs(alphabet) == oracle.pairs(alphabet)


@pytest.mark.parametrize("relation", CLOSED)
@pytest.mark.parametrize("kind", KINDS)
def test_a_label_outside_the_matrix_conflicts_with_nothing(kind, relation):
    """Drop one class from the matrix: its operations now carry a label
    the table has never seen, which grows an empty row — False both
    ways, as the set lookup says — and moves no other verdict.  (On the
    loop side the table is the one over the declared marks.)"""
    adt = analysis_instance(kind)
    table, _ = twins(kind, relation)
    matrix = class_matrix(kind, table, relation)
    key = table.key if kind not in LOOP_MARKS else None
    alphabet = adt.ground_alphabet()
    for dropped in sorted({label for pair in matrix for label in pair}):
        narrow = ClassifierConflict(
            adt.classify, {pair for pair in matrix if dropped not in pair}, key=key
        )
        assert narrow.pairs(alphabet) == matrix_conflict(narrow).pairs(alphabet)
        strangers = [o for o in alphabet if adt.classify(o) == dropped]
        assert strangers
        for stranger in strangers:
            assert narrow.rows[narrow.slot(stranger)[0]] == ()
            assert not any(narrow.conflicts(known, stranger) for known in alphabet)


@pytest.mark.parametrize("relation", CLOSED)
@pytest.mark.parametrize("kind", KINDS)
def test_blockers_match_the_oracle_manager(kind, relation):
    """Random lock tables: acquire without asking, so holders overlap in
    every way, and compare the blocker set of every ground operation."""
    adt = analysis_instance(kind)
    table, oracle = twins(kind, relation)
    alphabet = adt.ground_alphabet()
    for seed in range(6):
        rng = random.Random(seed)
        fast, slow = LockManager(table), LockManager(oracle)
        assert fast.table is maybe_compile(table) and slow.table is None
        for _ in range(rng.randint(1, 12)):
            txn = "T%d" % rng.randrange(4)
            if rng.random() < 0.15:
                assert fast.release_all(txn) == slow.release_all(txn)
                continue
            held = rng.choice(alphabet)
            fast.acquire(txn, held)
            slow.acquire(txn, held)
        for txn in ("T0", "T9"):
            for new in alphabet:
                assert fast.blockers(txn, new) == slow.blockers(txn, new), (
                    kind, relation, seed, txn, new,
                )
                assert fast.conflicting_holds(txn, new) == slow.conflicting_holds(
                    txn, new
                )


@pytest.mark.parametrize("kind", KINDS)
def test_registry_compiled_tables_cover_all_classes(kind):
    """``compile_adt_tables`` hands out both of a registered ADT's
    relations, as tables, over its class alphabet — or, on the loop
    side, no table at all."""
    adt = analysis_instance(kind)
    tables = compile_adt_tables(adt)
    assert tables.adt_name == adt.name
    assert tables.classes == tuple(adt.operation_classes())
    if kind in LOOP_MARKS:
        assert tables.nfc is tables.nrbc is None
        return
    labels = {cls.label for cls in tables.classes}
    for table in (tables.nfc, tables.nrbc):
        assert {label for pair in table.matrix for label in pair} <= labels
        # every ground operation classifies into the class alphabet
        for operation in adt.ground_alphabet():
            assert table.classify(operation) in labels
