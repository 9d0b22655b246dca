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

The conflict test is the system's hottest path.  When the relation is a
table (:class:`~repro.core.conflict.ClassifierConflict` — every ADT's
NFC/NRBC relation but the priority queue's, and their symmetric closures
and unions) the manager indexes its holds by slot, ``(class index, key)
→ holders``, and :meth:`blockers` is the union of the holders at the
slots of ``op``'s probe row — ``(c, key(op))`` for each class ``c`` its
row marks, cached per operation by the table — minus the asker: a few
dictionary lookups, however many operations are held, and no tuple
built.  It answers with a new set, which the automaton's candidate loop
extends into the one blocker set of a refused attempt.
:meth:`acquire` adds a holder to one slot and :meth:`release_all` takes
it out of the slots of what it held, so nothing is remembered that
could go stale.  A relation with no table (a predicate, a pair set, a
relation with ground pairs removed) takes the per-pair loop.  The
checks (the *twin* is :func:`repro.reference.matrix_conflict`, the
set-lookup reading of the same matrix, which has no table):

* the table's verdicts, class by class and ground pair by ground pair,
  and ``blockers`` over random lock tables, equal the twin's;
* the index a manager keeps up equals one rebuilt from its holds, over
  random ``acquire`` / ``release_all`` / ``copy`` sequences;
* whole scheduled runs give the same histories and counters on the
  table as on the twin (EXP-C14 times the two);
* a probe row is the row worked out afresh
  (:func:`repro.reference.recompute_every_answer`).
"""

from __future__ import annotations

import copy
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from .conflict import ClassifierConflict, ConflictRelation, maybe_compile
from .events import Operation


class LockManager:
    """Operation locks for one object under a given conflict relation."""

    def __init__(self, conflict: ConflictRelation):
        self.conflict = conflict
        self._held: Dict[str, List[Operation]] = {}
        #: the relation itself when it is a table, or None when it has
        #: none and :meth:`blockers` takes the per-pair loop.
        self.table: Optional[ClassifierConflict] = maybe_compile(conflict)
        #: slot ``(class index, key)`` -> the transactions holding an
        #: operation there (table only).
        self._index: Dict[Tuple[int, Hashable], Set[str]] = {}

    def copy(self) -> "LockManager":
        """An independent manager holding the same locks.  The relation
        (and so its table) is shared: verdicts are pure."""
        twin = copy.copy(self)
        twin._held = {txn: list(ops) for txn, ops in self._held.items()}
        twin._index = {slot: set(holders) for slot, holders in self._index.items()}
        return twin

    def held_by(self, txn: str) -> Tuple[Operation, ...]:
        """The operations (implicit locks) currently held by ``txn``."""
        return tuple(self._held.get(txn, ()))

    def holders(self) -> FrozenSet[str]:
        """Transactions currently holding at least one operation."""
        return frozenset(self._held)

    def blockers(self, txn: str, operation: Operation) -> Set[str]:
        """Other transactions whose held operations conflict with
        ``operation``: a new set, the caller's to keep or extend."""
        table = self.table
        blocking: Set[str] = set()
        if table is not None:
            index = self._index
            for slot in table.probe(operation):
                holders = index.get(slot)
                if holders:
                    blocking.update(holders)
            blocking.discard(txn)
        else:
            conflicts = self.conflict.conflicts
            for other, ops in self._held.items():
                if other != txn and any(conflicts(operation, old) for old in ops):
                    blocking.add(other)
        return blocking

    def conflicting_holds(
        self, txn: str, operation: Operation
    ) -> Tuple[Tuple[str, Operation], ...]:
        """Every ``(holder, held_operation)`` conflicting with ``operation``.

        Unlike :meth:`blockers` this does not stop at the first
        conflicting hold per transaction: the full list attributes a
        blocked attempt to each conflict-table entry involved.  Only
        called on the traced path (contention attribution), so it asks
        the relation pair by pair and never touches untraced runs.
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
        self._held.setdefault(txn, []).append(operation)
        if self.table is not None:
            self._index.setdefault(self.table.slot(operation), set()).add(txn)

    def release_all(self, txn: str) -> Tuple[Operation, ...]:
        """Drop every lock of ``txn`` (commit or abort); returns what was held."""
        held = tuple(self._held.pop(txn, ()))
        if self.table is not None:
            for operation in held:
                slot = self.table.slot(operation)
                holders = self._index.get(slot)
                if holders is not None:
                    holders.discard(txn)
                    if not holders:
                        del self._index[slot]
        return held
