"""Conflict-based operation locking with waits-for deadlock detection.

The abstract automaton's concurrency-control precondition — "the new
operation must not conflict with any operation executed by another
active transaction" — is exactly conflict-based locking with locks
keyed on *operations* (paper, Section 4): the locks a transaction holds
are implicit in the operations it has executed, and they are released
when the transaction commits or aborts.

:class:`LockManager` makes the locking explicit for one object:

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
``tests/runtime/test_compiled_lock_differential.py`` and EXP-C14 assert
by hiding a compilable relation behind
:func:`repro.reference.opaque_conflict`.

:class:`WaitsForGraph` aggregates blocking edges across all objects of a
system and detects cycles, so the scheduler can pick deadlock victims.
Both structures are deliberately simple and deterministic — they are a
substrate for measuring what the *conflict relation* allows, not an
exercise in lock-manager engineering.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..analysis.compile_tables import CompiledConflict, maybe_compile
from ..core.conflict import ConflictRelation
from ..core.events import Operation


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
        #: the relation's bitmask table, or None when it does not
        #: compile and :meth:`blockers` takes the per-pair loop.
        self.compiled: Optional[CompiledConflict] = maybe_compile(conflict)
        #: per-transaction OR of held operations' class bits (compiled only).
        self._held_masks: Dict[str, int] = {}
        #: per-transaction class indices aligned with ``_held`` (compiled
        #: only) — lets refine-carrying relations rescan a holder with
        #: plain bit tests instead of re-classifying held operations.
        self._held_idx: Dict[str, List[int]] = {}

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


class WaitsForGraph:
    """A dynamic waits-for graph over transactions, with cycle detection."""

    def __init__(self) -> None:
        self._edges: Dict[str, Set[str]] = {}

    def wait(self, waiter: str, holders: Iterable[str]) -> None:
        """Record the *current* block set of ``waiter``, replacing stale edges.

        Each blocked attempt reports the complete set of conflicting
        holders at that moment, so earlier edges (whose holders may have
        since released their locks) must not linger — stale edges would
        manufacture spurious deadlock cycles.
        """
        targets = {h for h in holders if h != waiter}
        if targets:
            self._edges[waiter] = targets
        else:
            self._edges.pop(waiter, None)

    def clear_waiter(self, waiter: str) -> None:
        """``waiter`` is no longer blocked (it ran, committed or aborted)."""
        self._edges.pop(waiter, None)

    def remove_transaction(self, txn: str) -> None:
        """Drop the transaction entirely (as waiter and as blocker)."""
        self._edges.pop(txn, None)
        for targets in self._edges.values():
            targets.discard(txn)

    def edges(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset(
            (w, h) for w, hs in self._edges.items() for h in hs
        )

    def find_cycle(self) -> Optional[Tuple[str, ...]]:
        """Some waits-for cycle, or None.  Deterministic DFS order."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = {}
        stack_path: List[str] = []

        def dfs(node: str) -> Optional[Tuple[str, ...]]:
            color[node] = GRAY
            stack_path.append(node)
            for nxt in sorted(self._edges.get(node, ())):
                c = color.get(nxt, WHITE)
                if c == GRAY:
                    i = stack_path.index(nxt)
                    return tuple(stack_path[i:])
                if c == WHITE:
                    found = dfs(nxt)
                    if found is not None:
                        return found
            stack_path.pop()
            color[node] = BLACK
            return None

        for start in sorted(self._edges):
            if color.get(start, WHITE) == WHITE:
                cycle = dfs(start)
                if cycle is not None:
                    return cycle
        return None
