"""Waits-for deadlock detection over the objects' operation locks.

The locks themselves — :class:`~repro.core.lock_manager.LockManager`,
the ``Conflict`` half of an object — live in :mod:`repro.core`, where
the abstract automaton shares them; the name is re-exported here.

:class:`WaitsForGraph` aggregates blocking edges across all objects of a
system and detects cycles, so the scheduler can pick deadlock victims.
It is deliberately simple and deterministic — a substrate for measuring
what the *conflict relation* allows, not an exercise in lock-manager
engineering.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core.lock_manager import LockManager

__all__ = ["LockManager", "WaitsForGraph"]


class WaitsForGraph:
    """A dynamic waits-for graph over transactions, with cycle detection."""

    def __init__(self) -> None:
        self._edges: Dict[str, Set[str]] = {}

    def wait(self, waiter: str, holders: Iterable[str]) -> None:
        """Record the *current* block set of ``waiter``, replacing stale edges.

        Each blocked attempt reports the complete set of conflicting
        holders at that moment, so earlier edges (whose holders may have
        since released their locks) must not linger — stale edges would
        manufacture spurious deadlock cycles.  The edges are not
        refreshed every tick: the scheduler attempts a refused step
        again only when its object's epoch has moved.  They stay exact
        all the same, because the block set is a function of the
        object's lock table, every change to which moves the epoch, and
        a blocker that finishes in between leaves through
        :meth:`remove_transaction`.
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
