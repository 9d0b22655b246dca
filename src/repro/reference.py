"""Reference oracles for the fast paths, for tests and twin benchmarks only.

The product has one path per job and picks it from its input: a conflict
relation that compiles is answered from its bitmask table, a known view
over a state-machine spec gets its delta cursor, and the scheduler jumps
the dead ticks its wake calendar proves.  Each fast path has a slow,
obviously-right twin that the byte-identity suites compare it with.
This module is where those twins are reached — by handing the product an
input it cannot accelerate, or, for the scheduler, by swapping the one
method that performs the jump.  No other ``repro`` module imports it
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
==========================  =============================================
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import FrozenSet, Hashable, Iterable, Iterator

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
