"""Property suite: compiled bitmask tables ≡ the interpreted relations.

For every registered ADT and both relations (NFC, NRBC), the compiled
:class:`~repro.analysis.compile_tables.CompiledConflict` must be an
exact, queryable replacement for the relation it compiles:

* cell-for-cell agreement with the
  :func:`~repro.analysis.tables.table_from_verdicts`/``PairMemo`` route
  over the full operation-class cross product (symmetry included);
* verdict-for-verdict agreement with the interpreted relation over the
  full ground-operation cross product — the refine-carrying ADTs
  (key-indexed KV, priority-ordered PQ) included, where a class-level
  mask hit must still be weakened exactly as the interpreter weakens it;
* batch equivalence: the compiled relation's
  :meth:`~repro.core.conflict.ConflictRelation.pairs` equals those of
  the relation hidden behind ``repro.reference.opaque_conflict``.
"""

import pytest

from repro.adts.registry import analysis_instance, compiled_tables, registered_kinds
from repro.analysis import PairMemo
from repro.analysis.compile_tables import (
    compile_conflict_classes,
    maybe_compile,
)
from repro.reference import opaque_conflict

KINDS = registered_kinds()
RELATIONS = ("nfc", "nrbc")


def _marked(compiled_conflict, row_label, col_label) -> bool:
    """The compiled class-level verdict, treating absent labels as no-conflict.

    ``compile_classifier`` only assigns indices to labels appearing in
    the matrix; a label outside the table grows an all-zero row/column.
    """
    table = compiled_conflict.table
    index = table.index()
    if row_label not in index or col_label not in index:
        return False
    return table.conflicts_idx(index[row_label], index[col_label])


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_compiled_table_matches_table_from_verdicts(kind, relation):
    """Bitmask cells == the table_from_verdicts route, full cross product."""
    adt = analysis_instance(kind)
    conflict = getattr(adt, relation + "_conflict")()
    classes = tuple(adt.operation_classes())
    memo = PairMemo()
    reference = compile_conflict_classes(
        conflict, classes, adt.classify, memo=memo
    )
    compiled = adt.compiled_conflict(relation)
    labels = [cls.label for cls in classes]
    for row in labels:
        for col in labels:
            assert _marked(compiled, row, col) == _marked(reference, row, col), (
                kind,
                relation,
                row,
                col,
            )
    # memoization actually engaged: the verdict pass touched every cell
    assert len(memo) >= len(labels)


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_compiled_symmetry_matches_interpreted(kind, relation):
    """Symmetry agrees at both levels: bitmask table and ground relation."""
    adt = analysis_instance(kind)
    conflict = getattr(adt, relation + "_conflict")()
    compiled = adt.compiled_conflict(relation)
    reference = compile_conflict_classes(
        conflict, tuple(adt.operation_classes()), adt.classify
    )
    assert compiled.table.is_symmetric() == reference.table.is_symmetric()
    alphabet = adt.ground_alphabet()
    assert compiled.is_symmetric(alphabet) == conflict.is_symmetric(alphabet)


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_compiled_verdicts_match_interpreted_ground(kind, relation):
    """conflicts(new, old) agrees pair-for-pair over the ground cross product."""
    adt = analysis_instance(kind)
    conflict = getattr(adt, relation + "_conflict")()
    compiled = adt.compiled_conflict(relation)
    alphabet = adt.ground_alphabet()
    for new in alphabet:
        for old in alphabet:
            assert compiled.conflicts(new, old) == conflict.conflicts(new, old), (
                kind,
                relation,
                new,
                old,
            )
    reference = opaque_conflict(conflict)
    assert maybe_compile(reference) is None
    assert maybe_compile(conflict).pairs(alphabet) == reference.pairs(alphabet)


@pytest.mark.parametrize("kind", KINDS)
def test_registry_compiled_tables_cover_all_classes(kind):
    """The registry artifact exposes both relations over the class alphabet."""
    tables = compiled_tables(kind)
    adt = analysis_instance(kind)
    assert tables.adt_name == adt.name
    assert tables.labels == tuple(
        str(cls.label) for cls in adt.operation_classes()
    )
    for compiled in (tables.nfc, tables.nrbc):
        # every ground operation classifies into the compiled universe
        for op in adt.ground_alphabet():
            compiled.class_index(op)
        assert len(compiled.labels) <= len(tables.labels)
