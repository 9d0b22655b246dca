"""Waits-for deadlock detection over the objects' operation locks.

The locks themselves — :class:`~repro.core.lock_manager.LockManager`,
the ``Conflict`` half of an object — live in :mod:`repro.core`, where
the abstract automaton shares them; the name is re-exported here.

:class:`WaitsForGraph` aggregates blocking edges across all objects of a
system and hands back the cycle a wait closes, so the scheduler can
abort a victim on the spot.  It is deliberately simple and
deterministic — a substrate for measuring what the *conflict relation*
allows, not an exercise in lock-manager engineering.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.lock_manager import LockManager

__all__ = ["LockManager", "WaitsForGraph"]

_NO_EDGES: FrozenSet[str] = frozenset()


class WaitsForGraph:
    """A dynamic waits-for graph over transactions.

    Edges enter only through :meth:`wait`, which reports a cycle the new
    edges close.  A caller that breaks every such cycle on the spot (the
    scheduler aborts a member, then asks :meth:`find_cycle` from the
    waiter again until it answers None) keeps the graph acyclic between
    waits, and then every cycle a wait can close runs through its waiter
    — so searching from the waiter is the whole detector.
    """

    def __init__(self) -> None:
        #: waiter -> the holders it waits on (never empty), kept as the
        #: frozenset its refused attempt reported: unsorted, so the
        #: search sorts a node's holders when it visits the node.
        self._edges: Dict[str, FrozenSet[str]] = {}
        #: holder -> the waiters with an edge to it (never empty): a
        #: transaction nobody waits on closes no cycle, and leaves by
        #: touching only its own edges.
        self._waiters: Dict[str, Set[str]] = {}

    def wait(self, waiter: str, holders: Iterable[str]) -> Optional[Tuple[str, ...]]:
        """Record the *current* block set of ``waiter``, replacing stale
        edges, and return a waits-for cycle through ``waiter`` that the
        new edges close (``find_cycle(waiter)``), or None.  They may close
        several, all through ``waiter``; the search finds the next one
        once the caller has broken this one.  Unchanged edges close
        nothing new, and cost one set comparison.

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
        if not isinstance(holders, frozenset):
            holders = frozenset(holders)
        if waiter in holders:
            holders = holders - {waiter}
        old = self._edges.get(waiter, _NO_EDGES)
        if holders == old:
            return None
        waiters = self._waiters
        for holder in old:
            if holder not in holders:
                self._unlink(holder, waiter)
        for holder in holders:
            if holder not in old:
                waiters.setdefault(holder, set()).add(waiter)
        if not holders:
            del self._edges[waiter]
            return None
        self._edges[waiter] = holders
        return self.find_cycle(waiter)

    def _unlink(self, holder: str, waiter: str) -> None:
        waiters = self._waiters[holder]
        waiters.discard(waiter)
        if not waiters:
            del self._waiters[holder]

    def clear_waiter(self, waiter: str) -> None:
        """``waiter`` is no longer blocked (it ran, committed or aborted)."""
        for holder in self._edges.pop(waiter, ()):
            self._unlink(holder, waiter)

    def remove_transaction(self, txn: str) -> None:
        """Drop the transaction entirely (as waiter and as blocker)."""
        self.clear_waiter(txn)
        gone = {txn}
        edges = self._edges
        for waiter in self._waiters.pop(txn, ()):
            kept = edges[waiter] - gone
            if kept:
                edges[waiter] = kept
            else:
                del edges[waiter]

    def edges(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset(
            (w, h) for w, hs in self._edges.items() for h in hs
        )

    def find_cycle(self, start: str) -> Optional[Tuple[str, ...]]:
        """The first waits-for path from ``start`` back to it, in sorted
        depth-first order (each node's holders sorted when the search
        visits it), as ``(start, ..., last)`` with ``last`` waiting on
        ``start``; None when no path returns."""
        if start not in self._waiters:
            return None
        path: List[str] = [start]
        frames: List[Iterator[str]] = [iter(sorted(self._edges.get(start, ())))]
        seen: Set[str] = {start}
        while frames:
            for nxt in frames[-1]:
                if nxt == start:
                    return tuple(path)
                if nxt not in seen:
                    seen.add(nxt)
                    path.append(nxt)
                    frames.append(iter(sorted(self._edges.get(nxt, ()))))
                    break
            else:
                frames.pop()
                path.pop()
        return None
