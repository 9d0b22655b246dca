"""The ``Conflict`` half of an object: conflict-based operation locking.

The abstract automaton's concurrency-control precondition — "the new
operation must not conflict with any operation executed by another
active transaction" — is exactly conflict-based locking with locks
keyed on *operations* (paper, Section 4): the locks a transaction holds
are implicit in the operations it has executed, and they are released
when the transaction commits or aborts.

:class:`LockManager` makes the locking explicit for one object, and is
the one implementation of that precondition: the abstract
:class:`~repro.core.object_automaton.ObjectAutomaton` and the runtime's
:class:`~repro.runtime.system.ManagedObject` each hold one.

* :meth:`blockers` — the active transactions whose held operations
  conflict with a proposed new operation (empty = the "lock" is free);
* :meth:`acquire` — record an executed operation (a held lock);
* :meth:`release_all` — commit/abort processing.

The conflict test is the system's hottest path, so when the relation is
a table (:class:`~repro.core.conflict.ClassifierConflict` — every ADT's
NFC/NRBC relation, and their symmetric closures and unions) the manager
maintains one integer *held mask* per transaction (the OR of the held
operations' class bits) and answers :meth:`blockers` with one cached
classification plus one integer AND per holder, instead of a Python
verdict call per held operation.  A relation with no table (a predicate,
a pair set, a relation with ground pairs removed) takes the per-pair
loop.  Both are verdict-identical, which
``tests/runtime/test_compiled_lock_differential.py``,
``tests/property/test_compiled_table_parity.py`` and EXP-C14 assert
against the set-lookup twin :func:`repro.reference.matrix_conflict`.

Whichever way an answer is worked out, it is a function of the held
operations, and a contended object is asked the same few questions many
times between two changes of them: :meth:`blockers` remembers, per
operation, every holder it conflicts with, until :meth:`acquire` or
:meth:`release_all` (``tests/property/test_lock_answer_memo.py``;
:func:`repro.reference.recompute_every_answer` works each one out again).
"""

from __future__ import annotations

import copy
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .conflict import ClassifierConflict, ConflictRelation, maybe_compile
from .events import Operation


class LockManager:
    """Operation locks for one object under a given conflict relation."""

    def __init__(self, conflict: ConflictRelation):
        self.conflict = conflict
        self._held: Dict[str, List[Operation]] = {}
        #: every transaction that ever acquired a lock here, across the
        #: manager's lifetime (releases don't erase it).  The read-only
        #: snapshot path bypasses the lock manager entirely, and the
        #: audits assert that by checking no read-only transaction ever
        #: shows up in :meth:`lifetime_holders` on any object.
        self._ever_held: Set[str] = set()
        #: the relation itself when it is a table, or None when it has
        #: none and :meth:`blockers` takes the per-pair loop.
        self.table: Optional[ClassifierConflict] = maybe_compile(conflict)
        #: per-transaction OR of held operations' class bits (table only).
        self._held_masks: Dict[str, int] = {}
        #: per-transaction class indices aligned with ``_held`` (table
        #: only) — lets refine-carrying relations rescan a holder with
        #: plain bit tests instead of re-classifying held operations.
        self._held_idx: Dict[str, List[int]] = {}
        #: operation -> every holder it conflicts with, as last worked
        #: out by :meth:`blockers`.  An answer is a function of the held
        #: operations, so it stands until they change: :meth:`acquire`
        #: and :meth:`release_all` clear it, a :meth:`copy` starts empty.
        self._answers: Dict[Operation, FrozenSet[str]] = {}

    def copy(self) -> "LockManager":
        """An independent manager holding the same locks.  The relation
        (and so its table) is shared: verdicts are pure."""
        twin = copy.copy(self)
        twin._held = {txn: list(ops) for txn, ops in self._held.items()}
        twin._ever_held = set(self._ever_held)
        twin._held_masks = dict(self._held_masks)
        twin._held_idx = {txn: list(idx) for txn, idx in self._held_idx.items()}
        twin._answers = {}
        return twin

    def held_by(self, txn: str) -> Tuple[Operation, ...]:
        """The operations (implicit locks) currently held by ``txn``."""
        return tuple(self._held.get(txn, ()))

    def holders(self) -> FrozenSet[str]:
        """Transactions currently holding at least one operation."""
        return frozenset(self._held)

    def lifetime_holders(self) -> FrozenSet[str]:
        """Every transaction that ever acquired a lock here (cumulative,
        survives releases — the zero-locks audit surface for read-only
        snapshot transactions)."""
        return frozenset(self._ever_held)

    def blockers(self, txn: str, operation: Operation) -> FrozenSet[str]:
        """Other transactions whose held operations conflict with ``operation``."""
        answer = self._answers.get(operation)
        if answer is None:
            answer = self._answers[operation] = self._holders_against(operation)
        return answer - {txn} if txn in answer else answer

    def _holders_against(self, operation: Operation) -> FrozenSet[str]:
        """Every transaction, an asker included, whose held operations
        conflict with ``operation`` — what :meth:`blockers` remembers."""
        table = self.table
        if table is not None:
            row = table.row_mask(operation)
            if table.refine is None:
                return frozenset(
                    [other for other, mask in self._held_masks.items() if row & mask]
                )
            # A class-level hit may be weakened by the argument-level
            # refinement; the mask test prunes holders with no hit at
            # all, and survivors rescan with precomputed class indices —
            # one bit test per held operation, refine only on class hits.
            refine = table.refine
            blocking: Set[str] = set()
            for other, mask in self._held_masks.items():
                if not row & mask:
                    continue
                for old, old_idx in zip(self._held[other], self._held_idx[other]):
                    if (row >> old_idx) & 1 and refine(operation, old):
                        blocking.add(other)
                        break
            return frozenset(blocking)
        blocking = set()
        for other, ops in self._held.items():
            for old in ops:
                if self.conflict.conflicts(operation, old):
                    blocking.add(other)
                    break
        return frozenset(blocking)

    def conflicting_holds(
        self, txn: str, operation: Operation
    ) -> Tuple[Tuple[str, Operation], ...]:
        """Every ``(holder, held_operation)`` conflicting with ``operation``.

        Unlike :meth:`blockers` this does not stop at the first
        conflicting hold per transaction: the full list attributes a
        blocked attempt to each conflict-table entry involved.  Only
        called on the traced path (contention attribution), so it asks
        the relation pair by pair — for a table, two classifications, a
        shift and an AND — and never touches untraced runs.
        """
        hits: List[Tuple[str, Operation]] = []
        for other, ops in self._held.items():
            if other == txn:
                continue
            for old in ops:
                if self.conflict.conflicts(operation, old):
                    hits.append((other, old))
        return tuple(hits)

    def acquire(self, txn: str, operation: Operation) -> None:
        """Record an executed operation; caller must have checked blockers."""
        self._answers.clear()
        self._held.setdefault(txn, []).append(operation)
        self._ever_held.add(txn)
        if self.table is not None:
            idx = self.table.class_index(operation)
            self._held_masks[txn] = self._held_masks.get(txn, 0) | (1 << idx)
            self._held_idx.setdefault(txn, []).append(idx)

    def release_all(self, txn: str) -> Tuple[Operation, ...]:
        """Drop every lock of ``txn`` (commit or abort); returns what was held."""
        self._answers.clear()
        self._held_masks.pop(txn, None)
        self._held_idx.pop(txn, None)
        return tuple(self._held.pop(txn, ()))
