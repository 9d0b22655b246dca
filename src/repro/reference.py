"""Reference oracles for the fast paths, for tests and twin benchmarks only.

The product has one path per job and picks it from its input: a
conflict relation that is a table is answered from the lock manager's
``(class, key)`` index, a known view over a state-machine spec gets its
incremental manager, the scheduler jumps the dead ticks its wake
calendar proves and lets a refused invocation sleep until its object's
epoch moves, and the atomicity checkers prune and memoize one order
search, and an attempt looks up what an earlier one worked out.  Each
fast path has a slow, obviously-right twin that the byte-identity
suites compare it with.
This module is where those twins are reached — by handing the product an
input it cannot accelerate, or, for the scheduler, by swapping the one
method that performs the jump or decides the sleep; the order search has
no such input, so its twin is the enumerator itself, kept here whole.
No other ``repro`` module imports it (``tests/test_single_path.py``
checks).

=============================  ==========================================
oracle                         what the product then does
=============================  ==========================================
:func:`opaque_conflict`        per-pair verdict loop in ``LockManager``
                               (no table to be seen)
:func:`matrix_conflict`        the same loop, and each verdict computed
                               without the slots: two ``classify`` calls
                               and a set lookup, then the two keys
:func:`opaque_view`            ``ViewRecoveryManager``: ``View(H, A)``
                               from scratch and a full spec replay per
                               query
:func:`checked_view`           the incremental manager, every answer
                               cross-checked against the from-scratch
                               computation
:func:`walk_dead_ticks`        dead ticks walked one ``system.tick()`` at
                               a time instead of jumped
:func:`reattempt_every_tick`   a parked invocation attempted on every
                               tick anyway, and the attempt checked:
                               refused, by exactly the blockers the
                               waits-for graph holds
:func:`recompute_every_answer`  every remembered answer on the attempt
                               path — an interned operation, a candidate
                               tuple, a set of enabled responses, a
                               table's probe row — is used and also
                               worked out afresh, and the two compared
``enumerate_find_*``           nothing: these *are* the slow twins of
                               ``core.atomicity.find_*`` — every
                               permutation / every linear extension of
                               ``precedes``, each re-simulated from
                               scratch, under a ``max_orders`` guard
=============================  ==========================================
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
from .core.conflict import ClassifierConflict, ConflictRelation
from .core.events import Event, Invocation, OpSeq, Operation
from .core.events import abort, commit, invoke, respond
from .core.history import History, HistoryBuilder
from .core.object_automaton import ObjectAutomaton
from .core.recovery import MacroState, RecoveryManager
from .core.serial_spec import SerialSpec
from .core.views import View
from .runtime.scheduler import Scheduler


class _OpaqueConflict(ConflictRelation):
    def __init__(self, inner: ConflictRelation):
        self._inner = inner
        self.name = inner.name

    def conflicts(self, new: Operation, old: Operation) -> bool:
        return self._inner.conflicts(new, old)


def opaque_conflict(relation: ConflictRelation) -> ConflictRelation:
    """``relation`` behind a wrapper the lock manager cannot see a table
    through: same verdicts, answered pair by pair."""
    return _OpaqueConflict(relation)


class _MatrixConflict(ConflictRelation):
    def __init__(self, table: ClassifierConflict):
        self._classify = table.classify
        self._matrix = table.matrix
        self._key = table.key
        self.name = table.name

    def conflicts(self, new: Operation, old: Operation) -> bool:
        if (self._classify(new), self._classify(old)) not in self._matrix:
            return False
        return self._key is None or self._key(new) == self._key(old)


def matrix_conflict(table: ClassifierConflict) -> ConflictRelation:
    """The class table ``table`` read the slow way, as a relation that is
    not a table: ``(classify(new), classify(old)) in matrix and key(new)
    == key(old)`` per call, no slots and no classification cache.
    Closures are taken on this side (``symmetric_closure(matrix_conflict(r))``
    is a predicate over it), so the twin of a closed table shares none
    of its arithmetic."""
    return _MatrixConflict(table)


class _OpaqueView(View):
    def __init__(self, inner: View):
        self._inner = inner
        self.name = inner.name

    def __call__(self, history: History, txn: str) -> OpSeq:
        return self._inner(history, txn)


def opaque_view(view: View) -> View:
    """``view`` as a class with no incremental manager: same
    ``View(H, A)``, recomputed from the history on every query."""
    return _OpaqueView(view)


class _CheckedView(_OpaqueView):
    def cursor(self, spec, history: Iterable[Event] = ()) -> "CheckedViewCursor":
        return CheckedViewCursor(self._inner.cursor(spec), self._inner, history)


def checked_view(view: View) -> View:
    """``view`` (over a state-machine spec) with its own manager wrapped
    in :class:`CheckedViewCursor`."""
    return _CheckedView(view)


class ViewCursorMismatch(AssertionError):
    """A checked manager answer diverged from the from-scratch computation."""


class CheckedViewCursor:
    """Every answer of an incremental manager cross-validated from scratch.

    Wraps the manager and mirrors the event stream into a history of its
    own; every :meth:`macro`, :meth:`enabled_responses` and
    :meth:`accepts` call first checks the manager's macro-state against
    ``spec.states_after(View(H, txn))``, then the answer itself against
    the spec's replaying twin, and raises :class:`ViewCursorMismatch` on
    any divergence.  O(n) per query by design.
    """

    def __init__(self, inner: RecoveryManager, view: View, events: Iterable[Event] = ()):
        self._inner = inner
        self.view = view
        self.spec = inner.spec
        self._builder = HistoryBuilder()
        for event in events:
            self.apply(event)

    def apply(self, event: Event) -> None:
        self._inner.apply(event)
        self._builder.append(event)

    # The automaton's execute step calls these; the mirror records each
    # operation as its invocation and response, as views read ``Opseq``.

    def on_execute(self, txn: str, operation: Operation) -> None:
        self._inner.on_execute(txn, operation)
        self._builder.append(invoke(operation.invocation, self.spec.name, txn))
        self._builder.append(respond(operation.response, self.spec.name, txn))

    def on_commit(self, txn: str) -> None:
        self._inner.on_commit(txn)
        self._builder.append(commit(self.spec.name, txn))

    def on_abort(self, txn: str) -> None:
        self._inner.on_abort(txn)
        self._builder.append(abort(self.spec.name, txn))

    def _mismatch(self, what: str, txn: str, got, want) -> ViewCursorMismatch:
        return ViewCursorMismatch(
            "%s manager %s for %r diverged:\n  manager: %s\n  scratch: %s"
            % (self.view.name, what, txn, sorted(got, key=repr), sorted(want, key=repr))
        )

    def _checked_opseq(self, txn: str) -> OpSeq:
        """The from-scratch view, after checking the manager's macro-state
        against the one it reaches."""
        opseq = tuple(self.view(self._builder.snapshot(), txn))
        got, want = self._inner.macro(txn), self.spec.states_after(opseq)
        if got != want:
            raise self._mismatch("macro", txn, got, want)
        return opseq

    def macro(self, txn: str) -> MacroState:
        self._checked_opseq(txn)
        return self._inner.macro(txn)

    def enabled_responses(self, txn: str, invocation: Invocation) -> FrozenSet[Hashable]:
        got = self._inner.enabled_responses(txn, invocation)
        want = self.spec.responses(self._checked_opseq(txn), invocation)
        if got != want:
            raise self._mismatch("responses(%s)" % invocation, txn, got, want)
        return got

    def accepts(self, txn: str, operation: Operation) -> bool:
        got = self._inner.accepts(txn, operation)
        want = self.spec.is_legal(self._checked_opseq(txn) + (operation,))
        if got != want:
            raise self._mismatch("accepts(%s)" % operation, txn, [got], [want])
        return got

    def fork(self) -> "CheckedViewCursor":
        twin = CheckedViewCursor(self._inner.fork(), self.view)
        twin._builder = self._builder.copy()
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


class ParkedRefusalOverturned(AssertionError):
    """An attempt the scheduler would have skipped was not the refusal
    it parked on: some mutation path forgot to move the epoch."""


def _reattempt_parked(self: Scheduler, entry, obj_name: str) -> bool:
    if entry.parked != self.system.epoch(obj_name):
        return False
    # The product skips this entry.  Say instead that the refusal fell,
    # so the scan attempts it as it did before parking existed — and
    # check that one ``invoke`` on its way back to the scan.
    system, txn = self.system, entry.txn
    held = {h for w, h in self._waits.edges() if w == txn}
    shadowed = "invoke" in vars(system)
    prior = vars(system).get("invoke")

    def checked_invoke(*args):
        # One shot: whatever ``system.invoke`` was comes back first.
        if shadowed:
            system.invoke = prior
        else:
            del system.invoke
        if args[:2] != (txn, obj_name):
            raise RuntimeError(
                "the oracle armed a check for %s at %s, and the scan's next "
                "invoke was %r: _tick no longer invokes straight after "
                "_refusal_stands" % (txn, obj_name, args[:2])
            )
        outcome = system.invoke(*args)
        blockers = set(outcome.blockers) - {txn}
        if outcome.status != "blocked" or blockers != held:
            raise ParkedRefusalOverturned(
                "%s parked at %s@%d got %s %s; the waits-for graph holds %s"
                % (txn, obj_name, entry.parked, outcome.status,
                   sorted(blockers), sorted(held))
            )
        return outcome

    system.invoke = checked_invoke
    return False


@contextmanager
def reattempt_every_tick() -> Iterator[None]:
    """Within the block no :class:`~repro.runtime.scheduler.Scheduler`
    of this process lets a refused invocation sleep: every lock-blocked
    step is attempted on every tick, with its ``blocked_attempts`` count,
    waits-for refresh and ``op-blocked`` / ``lock-wait`` events, and each
    attempt the product would have skipped raises
    :class:`ParkedRefusalOverturned` unless it is refused by exactly the
    blockers recorded when the entry parked."""
    stands = Scheduler._refusal_stands
    Scheduler._refusal_stands = _reattempt_parked
    try:
        yield
    finally:
        Scheduler._refusal_stands = stands


class StaleMemo(AssertionError):
    """A remembered answer on the attempt path is not what working it
    out afresh gives: a memo outlived its validity rule."""


def _same_or_stale(what: str, got, want):
    if got != want:
        raise StaleMemo("%s: remembered %r, recomputed %r" % (what, got, want))
    return want


@contextmanager
def recompute_every_answer() -> Iterator[None]:
    """Within the block nothing on the attempt path is taken on trust:
    each use of an interned operation, a candidate tuple, a remembered
    set of enabled responses or a table's probe row (the slots
    ``LockManager.blockers`` looks up) also works the answer out from
    scratch and raises :class:`StaleMemo` if the two differ.  The memos
    are still filled and read as in the product (that is what is under
    test); what the caller gets back is the fresh value, so a run in the
    block also shows that nothing leans on an operation's identity."""
    operation = SerialSpec.operation
    candidates = ObjectAutomaton._candidates
    responses = RecoveryManager.enabled_responses
    probe = ClassifierConflict.probe

    def checked_operation(self, invocation, response):
        got = operation(self, invocation, response)
        want = Operation(self.name, invocation, response)
        _same_or_stale(
            "interned operation",
            (got, hash(got), repr(got)),
            (want, hash(want), repr(want)),
        )
        return want

    def checked_candidates(self, invocation, enabled):
        return _same_or_stale(
            "candidates of %s" % invocation,
            candidates(self, invocation, enabled),
            tuple(
                (response, Operation(self.name, invocation, response))
                for response in sorted(enabled, key=repr)
            ),
        )

    def checked_responses(self, txn, invocation):
        return _same_or_stale(
            "responses to %s for %s" % (invocation, txn),
            responses(self, txn, invocation),
            frozenset(
                response
                for state in self.macro(txn)
                for response, _nxt in self.spec.transitions(state, invocation)
            ),
        )

    def checked_probe(self, op):
        got = probe(self, op)
        idx = self._index.get(self._classify(op))
        key = None if self.key is None else self.key(op)
        row = () if idx is None else self.rows[idx]
        return _same_or_stale(
            "probe row of %s" % (op,), got, tuple((col, key) for col in row)
        )

    SerialSpec.operation = checked_operation
    ObjectAutomaton._candidates = checked_candidates
    RecoveryManager.enabled_responses = checked_responses
    ClassifierConflict.probe = checked_probe
    try:
        yield
    finally:
        SerialSpec.operation = operation
        ObjectAutomaton._candidates = candidates
        RecoveryManager.enabled_responses = responses
        ClassifierConflict.probe = probe


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
