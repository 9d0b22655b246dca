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

The conflict test is the system's hottest path, so when the relation
compiles to a bitmask table (every ADT's NFC/NRBC relation does — see
:mod:`repro.analysis.compile_tables`) the manager maintains one integer
*held mask* per transaction (the OR of the held operations' class bits)
and answers :meth:`blockers` with one cached classification plus one
integer AND per holder, instead of a Python verdict call per held
operation.  A relation that does not compile (a predicate, a union, a
pair set) takes the per-pair loop.  Both are verdict-identical, which
``tests/runtime/test_compiled_lock_differential.py``,
``tests/property/test_compiled_table_parity.py`` and EXP-C14 assert by
hiding a compilable relation behind
:func:`repro.reference.opaque_conflict`.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from .conflict import ConflictRelation
from .events import Operation

if TYPE_CHECKING:
    from ..analysis.compile_tables import CompiledConflict


class LockManager:
    """Operation locks for one object under a given conflict relation."""

    def __init__(self, conflict: ConflictRelation):
        # Imported here: ``repro.analysis`` depends on ``repro.core``,
        # not vice versa.
        from ..analysis.compile_tables import maybe_compile

        self.conflict = conflict
        self._held: Dict[str, List[Operation]] = {}
        #: every transaction that ever acquired a lock here, across the
        #: manager's lifetime (releases don't erase it).  The read-only
        #: snapshot path bypasses the lock manager entirely, and the
        #: audits assert that by checking no read-only transaction ever
        #: shows up in :meth:`lifetime_holders` on any object.
        self._ever_held: Set[str] = set()
        #: the relation's bitmask table, or None when it does not
        #: compile and :meth:`blockers` takes the per-pair loop.
        self.compiled: Optional[CompiledConflict] = maybe_compile(conflict)
        #: per-transaction OR of held operations' class bits (compiled only).
        self._held_masks: Dict[str, int] = {}
        #: per-transaction class indices aligned with ``_held`` (compiled
        #: only) — lets refine-carrying relations rescan a holder with
        #: plain bit tests instead of re-classifying held operations.
        self._held_idx: Dict[str, List[int]] = {}

    def copy(self) -> "LockManager":
        """An independent manager holding the same locks.  The compiled
        table is shared (one per relation): verdicts are pure."""
        twin = copy.copy(self)
        twin._held = {txn: list(ops) for txn, ops in self._held.items()}
        twin._ever_held = set(self._ever_held)
        twin._held_masks = dict(self._held_masks)
        twin._held_idx = {txn: list(idx) for txn, idx in self._held_idx.items()}
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
        compiled = self.compiled
        if compiled is not None:
            row = compiled.row_mask(operation)
            if compiled.refine is None:
                return frozenset(
                    other
                    for other, mask in self._held_masks.items()
                    if other != txn and row & mask
                )
            # A class-level hit may be weakened by the argument-level
            # refinement; the mask test prunes holders with no hit at
            # all, and survivors rescan with precomputed class indices —
            # one bit test per held operation, refine only on class hits.
            refine = compiled.refine
            blocking: Set[str] = set()
            for other, mask in self._held_masks.items():
                if other == txn or not row & mask:
                    continue
                for old, old_idx in zip(self._held[other], self._held_idx[other]):
                    if (row >> old_idx) & 1 and refine(operation, old):
                        blocking.add(other)
                        break
            return frozenset(blocking)
        blocking = set()
        for other, ops in self._held.items():
            if other == txn:
                continue
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
        called on the traced path (contention attribution), so it keeps
        the per-pair walk over the relation itself — verdict-identical
        to the table, and the extra work never touches untraced runs.
        """
        hits: List[Tuple[str, Operation]] = []
        for other, ops in self._held.items():
            if other == txn:
                continue
            for old in ops:
                if self.conflict.conflicts(operation, old):
                    hits.append((other, old))
        return tuple(hits)

    def can_acquire(self, txn: str, operation: Operation) -> bool:
        """True iff ``operation`` conflicts with no other transaction's locks."""
        return not self.blockers(txn, operation)

    def acquire(self, txn: str, operation: Operation) -> None:
        """Record an executed operation; caller must have checked blockers."""
        self._held.setdefault(txn, []).append(operation)
        self._ever_held.add(txn)
        if self.compiled is not None:
            idx = self.compiled.class_index(operation)
            self._held_masks[txn] = self._held_masks.get(txn, 0) | (1 << idx)
            self._held_idx.setdefault(txn, []).append(idx)

    def release_all(self, txn: str) -> Tuple[Operation, ...]:
        """Drop every lock of ``txn`` (commit or abort); returns what was held."""
        self._held_masks.pop(txn, None)
        self._held_idx.pop(txn, None)
        return tuple(self._held.pop(txn, ()))
