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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, FrozenSet, Hashable, Iterable, Set, Tuple

from .events import Operation

ConflictPair = Tuple[Operation, Operation]


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
        return UnionConflict(self, other)


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
    """Conflicts decided on operation *classes*.

    Real lock managers key lock modes on a small set of classes rather
    than on ground operations.  ``classify`` maps an operation to a
    hashable class label (e.g. ``"withdraw_ok"``); ``matrix`` is the set
    of conflicting ``(new_class, old_class)`` pairs.  An optional
    ``refine`` predicate can weaken a class-level conflict using the two
    ground operations (e.g. escrow-style argument arithmetic).
    """

    def __init__(
        self,
        classify: Callable[[Operation], Hashable],
        matrix: Iterable[Tuple[Hashable, Hashable]],
        *,
        refine: Callable[[Operation, Operation], bool] = None,
        name: str = "classifier",
    ):
        self._classify = classify
        self._matrix: FrozenSet[Tuple[Hashable, Hashable]] = frozenset(matrix)
        self._refine = refine
        self.name = name
        #: the bitmask form of this relation, filled in on first use by
        #: :func:`repro.analysis.compile_tables.maybe_compile` — the
        #: matrix is immutable, so one table serves every user.
        self.compiled = None

    def classify(self, operation: Operation) -> Hashable:
        return self._classify(operation)

    def conflicts(self, new: Operation, old: Operation) -> bool:
        pair = (self._classify(new), self._classify(old))
        if pair not in self._matrix:
            return False
        if self._refine is not None:
            return bool(self._refine(new, old))
        return True

    @property
    def matrix(self) -> FrozenSet[Tuple[Hashable, Hashable]]:
        return self._matrix

    @property
    def refine(self) -> Callable[[Operation, Operation], bool]:
        """The argument-level refinement predicate (None when absent).

        Exposed so the table compiler
        (:mod:`repro.analysis.compile_tables`) can carry the refinement
        into the compiled bitmask form unchanged.
        """
        return self._refine


class UnionConflict(ConflictRelation):
    """The union of several conflict relations (conflicts if any member does)."""

    def __init__(self, *members: ConflictRelation):
        self._members = tuple(members)
        self.name = "union(%s)" % ", ".join(m.name for m in members)

    def conflicts(self, new: Operation, old: Operation) -> bool:
        return any(m.conflicts(new, old) for m in self._members)


class SymmetricClosure(ConflictRelation):
    """The symmetric closure of another relation.

    Most prior work assumes conflict relations are symmetric; Theorem 9
    shows UIP needs only NRBC, which is not symmetric, so taking the
    closure adds unnecessary conflicts.  The EXP-C3 ablation measures
    that cost.
    """

    def __init__(self, inner: ConflictRelation):
        self._inner = inner
        self.name = "sym(%s)" % inner.name

    def conflicts(self, new: Operation, old: Operation) -> bool:
        return self._inner.conflicts(new, old) or self._inner.conflicts(old, new)


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
