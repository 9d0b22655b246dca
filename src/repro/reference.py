"""Reference oracles for the fast paths, for tests and twin benchmarks only.

The product has one path per job and picks it from its input: a conflict
relation that compiles is answered from its bitmask table, a known view
over a state-machine spec gets its delta cursor, and the scheduler jumps
the dead ticks its wake calendar proves, and the atomicity checkers
prune and memoize one order search.  Each fast path has a slow,
obviously-right twin that the byte-identity suites compare it with.
This module is where those twins are reached — by handing the product an
input it cannot accelerate, or, for the scheduler, by swapping the one
method that performs the jump; the order search has no such input, so
its twin is the enumerator itself, kept here whole.  No other ``repro`` module imports it
(``tests/test_single_path.py`` checks).

==========================  =============================================
oracle                      what the product then does
==========================  =============================================
:func:`opaque_conflict`     per-pair verdict loop in ``LockManager`` and
                            ``ObjectAutomaton`` (nothing to compile)
:func:`opaque_view`         ``RecomputeViewCursor``: ``View(H, A)`` from
                            scratch and a full spec replay per query
:func:`checked_view`        the delta cursor, every answer cross-checked
                            against the from-scratch computation
:func:`walk_dead_ticks`     dead ticks walked one ``system.tick()`` at a
                            time instead of jumped
``enumerate_find_*``        nothing: these *are* the slow twins of
                            ``core.atomicity.find_*`` — every permutation /
                            every linear extension of ``precedes``, each
                            re-simulated from scratch, under a
                            ``max_orders`` guard
==========================  =============================================
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import permutations
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .core.atomicity import (
    DynamicAtomicityViolation,
    SpecsLike,
    commit_sets,
    serializable_in_order,
)
from .core.conflict import ConflictRelation
from .core.events import Event, Invocation, OpSeq, Operation
from .core.history import History, HistoryBuilder
from .core.view_cursors import ViewCursor, cursor_for_view
from .core.views import View
from .runtime.scheduler import Scheduler


class _OpaqueConflict(ConflictRelation):
    def __init__(self, inner: ConflictRelation):
        self._inner = inner
        self.name = inner.name

    def conflicts(self, new: Operation, old: Operation) -> bool:
        return self._inner.conflicts(new, old)


def opaque_conflict(relation: ConflictRelation) -> ConflictRelation:
    """``relation`` behind a wrapper the table compiler cannot see
    through: same verdicts, answered pair by pair."""
    return _OpaqueConflict(relation)


class _OpaqueView(View):
    def __init__(self, inner: View):
        self._inner = inner
        self.name = inner.name

    def __call__(self, history: History, txn: str) -> OpSeq:
        return self._inner(history, txn)


def opaque_view(view: View) -> View:
    """``view`` as a class no delta cursor is registered for: same
    ``View(H, A)``, recomputed from the history on every query."""
    return _OpaqueView(view)


class _CheckedView(_OpaqueView):
    def cursor(self, spec, history: Iterable[Event] = ()) -> "CheckedViewCursor":
        return CheckedViewCursor(cursor_for_view(self._inner, spec), history)


def checked_view(view: View) -> View:
    """``view`` with its own cursor wrapped in :class:`CheckedViewCursor`."""
    return _CheckedView(view)


class ViewCursorMismatch(AssertionError):
    """A checked cursor answer diverged from the from-scratch computation."""


class CheckedViewCursor(ViewCursor):
    """Every cursor answer cross-validated from scratch.

    Wraps an incremental cursor and mirrors the event stream into a
    history of its own; each :meth:`opseq`, :meth:`responses` and
    :meth:`accepts` call recomputes the answer via the from-scratch
    ``View`` (and the spec's replaying ``states_after``) and raises
    :class:`ViewCursorMismatch` on any divergence.  O(n) per query by
    design.
    """

    def __init__(self, inner: ViewCursor, events: Iterable[Event] = ()):
        self._inner = inner
        self._builder = HistoryBuilder()
        super().__init__(inner.view, inner.spec, events)

    def apply(self, event: Event) -> None:
        self._inner.apply(event)
        self._builder.append(event)

    def _on_respond(self, txn: str, operation: Operation) -> None:  # pragma: no cover
        pass

    def _on_commit(self, txn: str) -> None:  # pragma: no cover
        pass

    def _on_abort(self, txn: str) -> None:  # pragma: no cover
        pass

    def _scratch_opseq(self, txn: str) -> OpSeq:
        return tuple(self.view(self._builder.snapshot(), txn))

    def opseq(self, txn: str) -> OpSeq:
        got = self._inner.opseq(txn)
        want = self._scratch_opseq(txn)
        if got != want:
            raise ViewCursorMismatch(
                "%s cursor opseq for %r diverged:\n  cursor: %s\n  scratch: %s"
                % (self.view.name, txn, got, want)
            )
        return got

    def responses(self, txn: str, invocation: Invocation) -> FrozenSet[Hashable]:
        got = self._inner.responses(txn, invocation)
        want = self.spec.responses(self.opseq(txn), invocation)
        if got != want:
            raise ViewCursorMismatch(
                "%s cursor responses(%r, %s) diverged: cursor %s, scratch %s"
                % (self.view.name, txn, invocation, sorted(got, key=repr),
                   sorted(want, key=repr))
            )
        return got

    def accepts(self, txn: str, operation: Operation) -> bool:
        got = self._inner.accepts(txn, operation)
        want = self.spec.is_legal(self.opseq(txn) + (operation,))
        if got != want:
            raise ViewCursorMismatch(
                "%s cursor accepts(%r, %s) diverged: cursor %s, scratch %s"
                % (self.view.name, txn, operation, got, want)
            )
        return got

    def fork(self) -> "CheckedViewCursor":
        twin = CheckedViewCursor.__new__(CheckedViewCursor)
        self._fork_base_into(twin)
        twin._inner = self._inner.fork()
        twin._builder = HistoryBuilder(self._builder.snapshot())
        return twin


def _walk_one_dead_tick(self: Scheduler, tick: int, last: int) -> int:
    self.system.tick()
    return tick


@contextmanager
def walk_dead_ticks() -> Iterator[None]:
    """Within the block every :class:`~repro.runtime.scheduler.Scheduler`
    of this process walks its dead ticks instead of jumping them (the
    calendar accounting and ``calendar-wake`` events are unchanged)."""
    jump = Scheduler._cross_dead_ticks
    Scheduler._cross_dead_ticks = _walk_one_dead_tick
    try:
        yield
    finally:
        Scheduler._cross_dead_ticks = jump


# ---------------------------------------------------------------------------
# the enumerating atomicity checkers (oracles for repro.core.atomicity)
# ---------------------------------------------------------------------------


class TooManyOrdersError(RuntimeError):
    """The enumeration would examine more orders than allowed."""


def enumerate_find_serialization_order(
    history: History,
    specs: SpecsLike,
    *,
    max_orders: int = 1_000_000,
) -> Optional[Tuple[str, ...]]:
    """Some total order in which the failure-free history serializes, or None."""
    txns = sorted(history.transactions())
    count = 0
    for order in permutations(txns):
        count += 1
        if count > max_orders:
            raise TooManyOrdersError(
                "more than %d candidate orders for %d transactions"
                % (max_orders, len(txns))
            )
        if serializable_in_order(history, order, specs):
            return order
    return None


def linear_extensions(
    items: Sequence[str], pairs: Iterable[Tuple[str, str]]
) -> Iterator[Tuple[str, ...]]:
    """All linear extensions of the partial order ``pairs`` over ``items``.

    ``pairs`` is a set of (before, after) constraints; pairs mentioning
    elements outside ``items`` are ignored.  Yields tuples in a
    deterministic (lexicographic-by-choice) order via backtracking over
    minimal elements.
    """
    items = sorted(items)
    universe = set(items)
    succ: Dict[str, Set[str]] = {x: set() for x in items}
    indegree: Dict[str, int] = {x: 0 for x in items}
    for a, b in pairs:
        if a in universe and b in universe and a != b:
            if b not in succ[a]:
                succ[a].add(b)
                indegree[b] += 1

    prefix: List[str] = []

    def backtrack() -> Iterator[Tuple[str, ...]]:
        if len(prefix) == len(items):
            yield tuple(prefix)
            return
        for x in items:
            if indegree[x] == 0 and x not in taken:
                taken.add(x)
                prefix.append(x)
                for y in succ[x]:
                    indegree[y] -= 1
                yield from backtrack()
                for y in succ[x]:
                    indegree[y] += 1
                prefix.pop()
                taken.discard(x)

    taken: Set[str] = set()
    yield from backtrack()


def enumerate_find_dynamic_atomicity_violation(
    history: History,
    specs: SpecsLike,
    *,
    max_orders: int = 100_000,
) -> Optional[DynamicAtomicityViolation]:
    """A precedes-consistent order in which ``permanent(history)`` fails, or None."""
    permanent = history.permanent()
    txns = permanent.transactions()
    precedes = {
        (a, b) for (a, b) in history.precedes() if a in txns and b in txns
    }
    count = 0
    for order in linear_extensions(sorted(txns), precedes):
        count += 1
        if count > max_orders:
            raise TooManyOrdersError(
                "more than %d precedes-consistent orders" % max_orders
            )
        if not serializable_in_order(permanent, order, specs):
            return DynamicAtomicityViolation(order)
    return None


def enumerate_find_online_violation(
    history: History,
    specs: SpecsLike,
    *,
    max_orders: int = 100_000,
) -> Optional[DynamicAtomicityViolation]:
    """A commit set and order witnessing failure of online dynamic atomicity."""
    for cs in commit_sets(history):
        projected = history.project_transactions(cs)
        txns = projected.transactions()
        precedes = projected.precedes()
        count = 0
        for order in linear_extensions(sorted(txns), precedes):
            count += 1
            if count > max_orders:
                raise TooManyOrdersError(
                    "more than %d orders for commit set %s" % (max_orders, cs)
                )
            if not serializable_in_order(projected, order, specs):
                return DynamicAtomicityViolation(order, commit_set=cs)
    return None
