"""Compile conflict relations into dense integer bitmask tables.

Conflict checks (NFC/NRBC) sit on every lock acquisition and every step
of the dynamic-atomicity checker, yet the relations behind them are
evaluated as per-pair Python verdict calls — a classifier invocation and
a set lookup per ``(new, old)`` pair, memoized at best through
:class:`~repro.analysis.memo.PairMemo`.  The paper's structural point is
that the recovery view determines *which* conflict table is legal, so
the table itself should be a compiled, queryable artifact.

This module is that compiler.  An operation-class alphabet is assigned
dense integer indices; each relation becomes one integer bitmask per
class (:class:`CompiledTable`): bit ``j`` of ``masks[i]`` is set iff the
``(class_i, class_j)`` entry is marked, oriented ``(new, old)`` like
everything else in the library.  :class:`CompiledConflict` packages a
compiled table with an operation classifier (plus the optional
argument-level ``refine`` predicate of
:class:`~repro.core.conflict.ClassifierConflict`), so the hot-path
question "does ``new`` conflict with anything ``B`` holds?" collapses to
one cached classification and one integer AND against a per-transaction
*held mask* — the fast path the lock manager and the object automaton
query (see EXP-C14 in ``benchmarks/bench_conflict_tables.py``).

Compilation sources, in decreasing order of directness:

* a :class:`~repro.core.conflict.ClassifierConflict` (what every ADT's
  ``nfc_conflict``/``nrbc_conflict`` returns) compiles by reading its
  matrix — no checker run (:func:`compile_classifier`);
* a class-level :class:`~repro.analysis.tables.ConflictTable` compiles
  directly (:func:`compile_table`);
* an arbitrary relation compiles over explicit operation classes by
  querying the relation on the instance cross product through
  :func:`~repro.analysis.tables.table_from_verdicts` and a
  :class:`~repro.analysis.memo.PairMemo`
  (:func:`compile_conflict_classes` — exact when the relation is
  class-level, a conservative class lift otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.conflict import ClassifierConflict, ConflictRelation
from ..core.events import Operation
from .memo import PairMemo
from .tables import ConflictTable, OperationClass, table_from_verdicts


@dataclass(frozen=True)
class CompiledTable:
    """A class-level conflict matrix as dense integer bitmasks.

    ``masks[i]`` has bit ``j`` set iff ``(labels[i], labels[j])`` is a
    marked (conflicting) entry, oriented ``(new, old)``.  Equality is
    structural, so two compilations of the same table compare equal.
    """

    labels: Tuple[Hashable, ...]
    masks: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.masks):
            raise ValueError(
                "labels/masks length mismatch: %d vs %d"
                % (len(self.labels), len(self.masks))
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate class labels")

    def __len__(self) -> int:
        return len(self.labels)

    def index(self) -> Dict[Hashable, int]:
        """The label → class-index assignment."""
        return {label: i for i, label in enumerate(self.labels)}

    def conflicts_idx(self, new_idx: int, old_idx: int) -> bool:
        """The ``(new, old)`` verdict by class index — one shift and AND."""
        return bool((self.masks[new_idx] >> old_idx) & 1)

    def marked(self, row: Hashable, col: Hashable) -> bool:
        """The verdict by class label (raises KeyError for unknown labels)."""
        idx = self.index()
        return self.conflicts_idx(idx[row], idx[col])

    def is_symmetric(self) -> bool:
        return all(
            self.conflicts_idx(i, j) == self.conflicts_idx(j, i)
            for i in range(len(self.labels))
            for j in range(len(self.labels))
        )

    def marks(self) -> Tuple[Tuple[Hashable, Hashable], ...]:
        """The marked ``(row, col)`` label pairs, row-major."""
        return tuple(
            (row, col)
            for i, row in enumerate(self.labels)
            for j, col in enumerate(self.labels)
            if self.conflicts_idx(i, j)
        )

    def to_conflict_table(self, title: str) -> ConflictTable:
        """Decompile back into the figure-style table (labels must be str)."""
        return ConflictTable(
            title,
            tuple(str(label) for label in self.labels),
            frozenset((str(r), str(c)) for r, c in self.marks()),
        )


def compile_table(table: ConflictTable) -> CompiledTable:
    """Compile a figure-style :class:`ConflictTable` into bitmasks."""
    index = {label: i for i, label in enumerate(table.labels)}
    masks = [0] * len(table.labels)
    for row, col in table.marks:
        masks[index[row]] |= 1 << index[col]
    return CompiledTable(tuple(table.labels), tuple(masks))


class CompiledConflict(ConflictRelation):
    """A conflict relation answered from a compiled bitmask table.

    ``classify`` maps a ground operation to its class label; labels are
    assigned dense indices on first sight.  A label outside the compiled
    table gets a fresh index whose row mask is 0, matching
    :class:`~repro.core.conflict.ClassifierConflict`'s "pair not in the
    matrix" verdict of False.

    ``refine`` mirrors :class:`ClassifierConflict`: a class-level hit may
    be weakened by the argument-level predicate, so the bitmask answer is
    an exact superset and the refine call runs only on hits.
    """

    def __init__(
        self,
        classify: Callable[[Operation], Hashable],
        table: CompiledTable,
        *,
        refine: Optional[Callable[[Operation, Operation], bool]] = None,
        name: str = "compiled",
    ):
        self._classify = classify
        self._labels: List[Hashable] = list(table.labels)
        self._index: Dict[Hashable, int] = {
            label: i for i, label in enumerate(self._labels)
        }
        self._masks: List[int] = list(table.masks)
        self._refine = refine
        self.name = name
        #: operation → class index, filled on demand.  Operations are
        #: frozen dataclasses, so the cache is sound; it is the reason a
        #: hot-path query costs a dict hit instead of a classify call.
        self._op_index: Dict[Operation, int] = {}

    # -- classification ---------------------------------------------------------

    @property
    def labels(self) -> Tuple[Hashable, ...]:
        return tuple(self._labels)

    @property
    def refine(self) -> Optional[Callable[[Operation, Operation], bool]]:
        return self._refine

    @property
    def table(self) -> CompiledTable:
        return CompiledTable(tuple(self._labels), tuple(self._masks))

    def class_index(self, operation: Operation) -> int:
        """The dense class index of ``operation`` (cached)."""
        idx = self._op_index.get(operation)
        if idx is None:
            label = self._classify(operation)
            idx = self._index.get(label)
            if idx is None:
                idx = len(self._labels)
                self._labels.append(label)
                self._index[label] = idx
                self._masks.append(0)
            self._op_index[operation] = idx
        return idx

    def row_mask(self, operation: Operation) -> int:
        """The held-class bitmask ``operation`` conflicts with (as *new*)."""
        return self._masks[self.class_index(operation)]

    def held_bit(self, operation: Operation) -> int:
        """The single-bit mask contributed by holding ``operation``."""
        return 1 << self.class_index(operation)

    # -- the relation -----------------------------------------------------------

    def conflicts(self, new: Operation, old: Operation) -> bool:
        if not (self._masks[self.class_index(new)] >> self.class_index(old)) & 1:
            return False
        if self._refine is not None:
            return bool(self._refine(new, old))
        return True


def compile_classifier(
    conflict: ClassifierConflict, *, name: Optional[str] = None
) -> CompiledConflict:
    """Compile a :class:`ClassifierConflict` by reading its matrix.

    This is the zero-cost path: every ADT's ``nfc_conflict`` /
    ``nrbc_conflict`` (hand-derived and mechanically-derived alike) is a
    ``ClassifierConflict``, so the runtime compiles them without running
    the commutativity checker.
    """
    labels = sorted(
        {label for pair in conflict.matrix for label in pair}, key=repr
    )
    index = {label: i for i, label in enumerate(labels)}
    masks = [0] * len(labels)
    for row, col in conflict.matrix:
        masks[index[row]] |= 1 << index[col]
    return CompiledConflict(
        conflict.classify,
        CompiledTable(tuple(labels), tuple(masks)),
        refine=conflict.refine,
        name=name or "compiled(%s)" % conflict.name,
    )


def maybe_compile(conflict: ConflictRelation) -> Optional[CompiledConflict]:
    """A compiled form of ``conflict``, or None when not compilable.

    Already-compiled relations pass through; classifier relations
    compile from their matrix, once per relation instance (the table is
    kept on the relation, so every lock manager built over it — the
    objects of a shard, a restart after a crash — shares one); anything
    else (predicates, unions, pair sets without a classifier) stays
    interpreted.
    """
    if isinstance(conflict, CompiledConflict):
        return conflict
    if isinstance(conflict, ClassifierConflict):
        if conflict.compiled is None:
            conflict.compiled = compile_classifier(conflict)
        return conflict.compiled
    return None


def compile_conflict_classes(
    conflict: ConflictRelation,
    classes: Sequence[OperationClass],
    classify: Callable[[Operation], Hashable],
    *,
    name: Optional[str] = None,
    memo: Optional[PairMemo] = None,
) -> CompiledConflict:
    """Compile an arbitrary relation over an explicit class alphabet.

    The class-level verdict is "some instance pair conflicts", queried
    through :func:`table_from_verdicts` (and therefore memoized by
    ``memo``).  Exact when ``conflict`` is class-level (constant on each
    class cross product); a conservative class lift otherwise.
    """

    def verdict(row: OperationClass, col: OperationClass) -> bool:
        return any(
            conflict.conflicts(a, b)
            for a in row.instances
            for b in col.instances
        )

    table = table_from_verdicts(
        name or "compiled(%s)" % conflict.name, classes, verdict, memo=memo
    )
    return CompiledConflict(
        classify,
        compile_table(table),
        name=name or "compiled(%s)" % conflict.name,
    )


@dataclass(frozen=True)
class CompiledADTTables:
    """Both compiled relations of one ADT, plus the alphabet they cover."""

    adt_name: str
    classes: Tuple[OperationClass, ...]
    nfc: CompiledConflict
    nrbc: CompiledConflict

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(str(c.label) for c in self.classes)


def compile_adt_tables(adt, domain=None) -> CompiledADTTables:
    """Compile an ADT's NFC and NRBC relations into bitmask tables.

    ``adt`` is a :class:`~repro.adts.base.ADT`; its analytic relations
    (hand-derived or checker-derived, both ``ClassifierConflict``) are
    compiled matrix-to-mask, so this runs the commutativity checker only
    if the ADT itself derives its relations mechanically.
    """
    classes = tuple(adt.operation_classes(domain))

    def compiled(relation: ConflictRelation) -> CompiledConflict:
        # A non-classifier relation is lifted over the class alphabet.
        return maybe_compile(relation) or compile_conflict_classes(
            relation, classes, adt.classify
        )

    nfc = compiled(adt.nfc_conflict(domain))
    nrbc = compiled(adt.nrbc_conflict(domain))
    return CompiledADTTables(adt.name, classes, nfc, nrbc)
