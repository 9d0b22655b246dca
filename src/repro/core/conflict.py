"""Conflict relations: the concurrency-control half of the model.

The abstract implementation ``I(X, Spec, View, Conflict)`` (paper,
Section 4) tests for conflicts with a binary relation on operations: a
response ``<R, X, A>`` may occur for a pending invocation ``<I, X, A>``
only if, for every operation ``P`` already executed by some *other active*
transaction, ``(X:[I,R], P) ∉ Conflict``.

Orientation matters and is fixed throughout the library as
``conflicts(new, old)``: the first argument is the operation about to
respond, the second an operation already executed by another active
transaction.  Conflict relations need **not** be symmetric — one of the
paper's observations (Section 6.3) is that forcing symmetry on top of
NRBC adds conflicts that update-in-place recovery does not require (see
:func:`symmetric_closure` and the EXP-C3 ablation).

The theorems of Section 7 characterize correct relations by containment:
update-in-place works iff the relation contains NRBC(Spec); deferred
update works iff it contains NFC(Spec).  This module provides relation
combinators plus the finite-alphabet comparison helpers used to exhibit
the paper's incomparability result.

The paper writes a relation down as a table over operation *classes*
(Figures 6-1 and 6-2), and :class:`ClassifierConflict` is that table:
a classifier plus a class matrix and, for an ADT whose operations each
touch one component (a key-value store's key, a set's element), a
``key``: two operations conflict iff their classes are marked and their
keys are equal.  It is closed under what the experiments do to a
relation — :func:`symmetric_closure` (``M ∨ Mᵀ``) and :func:`union`
(``M₁ ∨ M₂``) of tables with one classifier and one key are tables — so
:class:`~repro.core.lock_manager.LockManager` indexes its holds by
:meth:`ClassifierConflict.slot`, ``(class, key)``.  A relation finer
than class and key (the priority queue's item ordering) is a
:class:`PredicateConflict`, answered pair by pair.  The lock manager's
per-pair twin of a table is :func:`repro.reference.matrix_conflict`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from .events import Operation

ConflictPair = Tuple[Operation, Operation]


@dataclass(frozen=True)
class OperationClass:
    """A named family of ground operations (one row/column of a figure).

    ``label`` is the display name (e.g. ``"withdraw(i)/OK"``);
    ``instances`` are the ground operations of the class over some bounded
    argument domain, used by the checker to decide class-level conflicts.
    """

    label: str
    instances: Tuple[Operation, ...]

    def __post_init__(self) -> None:
        if not self.instances:
            raise ValueError("operation class %r has no instances" % self.label)
        object.__setattr__(self, "instances", tuple(self.instances))

    def __str__(self) -> str:
        return self.label


class ConflictRelation(ABC):
    """A binary relation on operations, oriented ``(new, old)``."""

    name: str = "conflict"

    @abstractmethod
    def conflicts(self, new: Operation, old: Operation) -> bool:
        """True iff ``new`` may not respond while ``old`` is held by another active txn."""

    def __call__(self, new: Operation, old: Operation) -> bool:
        return self.conflicts(new, old)

    # -- finite-alphabet views -------------------------------------------------

    def pairs(self, alphabet: Iterable[Operation]) -> FrozenSet[ConflictPair]:
        """All conflicting ``(new, old)`` pairs over a finite operation alphabet."""
        alphabet = tuple(alphabet)
        return frozenset(
            (new, old)
            for new in alphabet
            for old in alphabet
            if self.conflicts(new, old)
        )

    def is_symmetric(self, alphabet: Iterable[Operation]) -> bool:
        """True iff the relation is symmetric over the given alphabet."""
        alphabet = tuple(alphabet)
        return all(
            self.conflicts(a, b) == self.conflicts(b, a)
            for a in alphabet
            for b in alphabet
        )

    def contains(
        self, other: "ConflictRelation", alphabet: Iterable[Operation]
    ) -> bool:
        """True iff every conflict of ``other`` is a conflict of this relation."""
        alphabet = tuple(alphabet)
        return all(
            self.conflicts(a, b)
            for a in alphabet
            for b in alphabet
            if other.conflicts(a, b)
        )

    # -- combinators ----------------------------------------------------------

    def __or__(self, other: "ConflictRelation") -> "ConflictRelation":
        return union(self, other)


class PredicateConflict(ConflictRelation):
    """A conflict relation given by a predicate ``fn(new, old) -> bool``."""

    def __init__(self, fn: Callable[[Operation, Operation], bool], name: str = "predicate"):
        self._fn = fn
        self.name = name

    def conflicts(self, new: Operation, old: Operation) -> bool:
        return bool(self._fn(new, old))


class EmptyConflict(ConflictRelation):
    """No conflicts at all — every interleaving allowed (maximally permissive)."""

    name = "empty"

    def conflicts(self, new: Operation, old: Operation) -> bool:
        return False


class AtCommit(ConflictRelation):
    """``relation`` enforced when a transaction commits instead of when
    each operation responds — the optimistic protocols of Section 3.4,
    which "abort conflicting transactions when they try to commit".

    The verdicts are ``relation``'s; only the enforcement point moves.
    A :class:`~repro.runtime.system.ManagedObject` built with one never
    blocks an execution and votes no at ``prepare`` instead (backward
    validation), under deferred update only."""

    def __init__(self, relation: ConflictRelation):
        self.relation = relation
        self.name = "at-commit(%s)" % relation.name

    def conflicts(self, new: Operation, old: Operation) -> bool:
        return self.relation.conflicts(new, old)


class TotalConflict(ConflictRelation):
    """Everything conflicts — exclusive access (minimally permissive)."""

    name = "total"

    def conflicts(self, new: Operation, old: Operation) -> bool:
        return True


class PairSetConflict(ConflictRelation):
    """A conflict relation given by an explicit set of ``(new, old)`` pairs.

    This is how mechanically-derived relations (e.g. the output of the
    bounded checker over a finite alphabet) are packaged for use by the
    object automaton and the runtime.  Operations outside the known
    alphabet conflict by default when ``strict`` (safe fallback) and do
    not conflict otherwise.
    """

    def __init__(
        self,
        pairs: Iterable[ConflictPair],
        *,
        alphabet: Iterable[Operation] = (),
        strict: bool = True,
        name: str = "pairs",
    ):
        self._pairs: FrozenSet[ConflictPair] = frozenset(pairs)
        known: Set[Operation] = set(alphabet)
        for new, old in self._pairs:
            known.add(new)
            known.add(old)
        self._known: FrozenSet[Operation] = frozenset(known)
        self._strict = strict
        self.name = name

    def conflicts(self, new: Operation, old: Operation) -> bool:
        if new in self._known and old in self._known:
            return (new, old) in self._pairs
        return self._strict

    @property
    def explicit_pairs(self) -> FrozenSet[ConflictPair]:
        return self._pairs


class ClassifierConflict(ConflictRelation):
    """Conflicts decided on operation *classes* and keys: the table is the
    relation.

    Real lock managers key lock modes on a small set of classes rather
    than on ground operations.  ``classify`` maps an operation to a
    hashable class label (e.g. ``"withdraw_ok"``); ``matrix`` is the set
    of conflicting ``(new_class, old_class)`` pairs.  ``key`` maps an
    operation to the component it touches (a key-value store's key, a
    set's element); without one the whole object is one key.  Two
    operations conflict iff their classes are marked and their keys are
    equal.

    Each label gets a dense class index, and each class its row in
    :attr:`rows`: the indices of the classes it conflicts with as *new*.
    :meth:`slot` is an operation's ``(class index, key)`` — what the lock
    manager files a hold under — and :meth:`probe` its row's slots, the
    ``(col, key)`` pairs the lock manager looks up when the operation
    asks as *new*.  A label outside the matrix gets a fresh index and an
    empty row, so it conflicts with nothing either way.
    """

    def __init__(
        self,
        classify: Callable[[Operation], Hashable],
        matrix: Iterable[Tuple[Hashable, Hashable]],
        *,
        key: Optional[Callable[[Operation], Hashable]] = None,
        name: str = "classifier",
    ):
        self._classify = classify
        self._matrix: FrozenSet[Tuple[Hashable, Hashable]] = frozenset(matrix)
        self.key = key
        self.name = name
        labels = sorted({label for pair in self._matrix for label in pair}, key=repr)
        self._index: Dict[Hashable, int] = {label: i for i, label in enumerate(labels)}
        #: class index → the class indices it conflicts with as *new*.
        self.rows: List[Tuple[int, ...]] = [
            tuple(sorted(self._index[old] for new, old in self._matrix if new == label))
            for label in labels
        ]
        #: operation → slot and operation → probe row, filled together
        #: on demand (operations are frozen values and a row never
        #: changes once its class has an index, so the caches are
        #: sound): the lock manager asks :meth:`probe` once per
        #: ``blockers`` call and :meth:`slot` once per ``acquire`` /
        #: released hold.
        self._slots: Dict[Operation, Tuple[int, Hashable]] = {}
        self._probes: Dict[Operation, Tuple[Tuple[int, Hashable], ...]] = {}

    def classify(self, operation: Operation) -> Hashable:
        return self._classify(operation)

    def slot(self, operation: Operation) -> Tuple[int, Hashable]:
        """``operation``'s ``(class index, key)`` (cached)."""
        slot = self._slots.get(operation)
        if slot is None:
            slot = self._learn(operation)[0]
        return slot

    def probe(self, operation: Operation) -> Tuple[Tuple[int, Hashable], ...]:
        """The slots ``operation``'s row asks, as *new*: ``(col, key)``
        for each class ``col`` in the row, with ``operation``'s key
        (cached).  Empty for a class outside the matrix."""
        probe = self._probes.get(operation)
        if probe is None:
            probe = self._learn(operation)[1]
        return probe

    def _learn(
        self, operation: Operation
    ) -> Tuple[Tuple[int, Hashable], Tuple[Tuple[int, Hashable], ...]]:
        """Fill both caches for ``operation``; returns ``(slot, probe)``."""
        label = self._classify(operation)
        idx = self._index.get(label)
        if idx is None:
            idx = self._index[label] = len(self.rows)
            self.rows.append(())
        key = None if self.key is None else self.key(operation)
        slot = self._slots[operation] = (idx, key)
        probe = tuple([(col, key) for col in self.rows[idx]])
        self._probes[operation] = probe
        return slot, probe

    def conflicts(self, new: Operation, old: Operation) -> bool:
        if (self._classify(new), self._classify(old)) not in self._matrix:
            return False
        return self.key is None or self.key(new) == self.key(old)

    @property
    def matrix(self) -> FrozenSet[Tuple[Hashable, Hashable]]:
        return self._matrix


def maybe_compile(conflict: ConflictRelation) -> Optional[ClassifierConflict]:
    """The table behind ``conflict`` — the relation itself when it is a
    :class:`ClassifierConflict` — or None when it has none (a predicate,
    a pair set, :class:`WithoutPairs`) and the lock manager takes the
    per-pair loop.  The one question
    :class:`~repro.core.lock_manager.LockManager` asks of a relation."""
    return conflict if isinstance(conflict, ClassifierConflict) else None


def union(*members: ConflictRelation) -> ConflictRelation:
    """The union of several conflict relations (conflicts if any member does).

    Tables with one classifier and one key give a table, ``M₁ ∨ M₂ ∨
    …``; anything else gives a predicate.
    """
    name = "union(%s)" % ", ".join(m.name for m in members)
    if members and all(
        isinstance(m, ClassifierConflict)
        and m._classify == members[0]._classify
        and m.key == members[0].key
        for m in members
    ):
        return ClassifierConflict(
            members[0]._classify,
            frozenset().union(*(m.matrix for m in members)),
            key=members[0].key,
            name=name,
        )

    def any_member(new: Operation, old: Operation) -> bool:
        return any(m.conflicts(new, old) for m in members)

    return PredicateConflict(any_member, name=name)


def symmetric_closure(relation: ConflictRelation) -> ConflictRelation:
    """The symmetric closure of ``relation`` — of a table, the table
    ``M ∨ Mᵀ``; of anything else, a predicate.

    Most prior work assumes conflict relations are symmetric; Theorem 9
    shows UIP needs only NRBC, which is not symmetric, so taking the
    closure adds unnecessary conflicts.  The EXP-C3 ablation measures
    that cost.
    """

    name = "sym(%s)" % relation.name
    if isinstance(relation, ClassifierConflict):
        return ClassifierConflict(
            relation._classify,
            relation.matrix | {(old, new) for new, old in relation.matrix},
            key=relation.key,
            name=name,
        )

    def either_way(new: Operation, old: Operation) -> bool:
        return relation.conflicts(new, old) or relation.conflicts(old, new)

    return PredicateConflict(either_way, name=name)


class WithoutPairs(ConflictRelation):
    """A relation with specific pairs removed.

    Used by the theorem machinery: dropping a single NRBC/NFC pair from a
    correct relation must admit a non-dynamic-atomic history.
    """

    def __init__(self, inner: ConflictRelation, removed: Iterable[ConflictPair]):
        self._inner = inner
        self._removed: FrozenSet[ConflictPair] = frozenset(removed)
        self.name = "%s-minus-%d" % (inner.name, len(self._removed))

    def conflicts(self, new: Operation, old: Operation) -> bool:
        if (new, old) in self._removed:
            return False
        return self._inner.conflicts(new, old)


def relation_difference(
    a: ConflictRelation,
    b: ConflictRelation,
    alphabet: Iterable[Operation],
) -> FrozenSet[ConflictPair]:
    """The pairs conflicting under ``a`` but not under ``b`` over ``alphabet``."""
    alphabet = tuple(alphabet)
    return frozenset(
        (x, y)
        for x in alphabet
        for y in alphabet
        if a.conflicts(x, y) and not b.conflicts(x, y)
    )


def incomparable(
    a: ConflictRelation,
    b: ConflictRelation,
    alphabet: Iterable[Operation],
) -> bool:
    """True iff neither relation contains the other over ``alphabet``.

    Applied to NFC and NRBC this is the paper's headline structural
    result (Section 6.4): the two recovery methods place incomparable
    constraints on concurrency control.
    """
    return bool(relation_difference(a, b, alphabet)) and bool(
        relation_difference(b, a, alphabet)
    )
