"""A priority queue: min-extraction over a multiset, with ordered conflicts.

State: a finite multiset over an ordered item domain, initially empty.
Operations::

    PQ:[insert(x), ok]        — effect: add one copy of x     (total)
    PQ:[extract_min, x]       — precondition: x = min(bag); effect: remove x
    PQ:[extract_min, "empty"] — precondition: bag empty; no effect

The priority queue sits between the semiqueue (bag, no ordering) and
the FIFO queue (total ordering): *insertion order* is irrelevant (bag
semantics — inserts commute in both senses, like the semiqueue), but
extraction observes the *value* ordering, so an insert conflicts with a
min-extraction exactly when the inserted element is small enough to
change the minimum.  That makes the priority queue the library's
showcase for conflicts **weakened by comparing arguments** — finer than
class and key, so its relations are predicates
(:class:`~repro.core.conflict.PredicateConflict`, the lock manager's
per-pair loop):

Forward commutativity (same-element analysis is vacuous; comparisons
are what matter):

* ``(insert(x), extract_min/y)`` — both enabled after ``α`` means
  ``y = min(bag)``; the sequence ``insert(x)·extract_min/y`` is legal
  iff ``y = min(bag ∪ {x})``, which fails exactly when **x < y**;
* ``(extract_min/y, extract_min/z)`` — class-level **x** (a singleton
  bag enables each alone but not both);
* ``(insert, extract_min/empty)`` — the insert invalidates emptiness —
  **x** both ways;
* ``insert``/``insert`` commute (bag).

Right backward commutativity:

* ``(insert(x), extract_min/y)`` marked iff **x < y** (pushing the
  insert before the extraction lowers the minimum below ``y``);
* ``(extract_min/y, insert(x))`` marked iff **x ≤ y** — for ``x = y``
  the extraction may be taking the *just-inserted* element, which did
  not exist before the insert;
* ``(extract_min/y, extract_min/z)`` marked iff **z ≤ y** (the earlier
  extraction saw the smaller-or-equal minimum first);
* ``(insert, extract_min/empty)`` marked; ``(extract_min/empty,
  insert)`` vacuous (extract/empty right after an insert is illegal);
* ``(extract_min/empty, extract_min/y)`` marked; the mirror is vacuous.

Both analytic relations are cross-checked against the mechanical
checker in the tests, including the argument orderings.  Logical undo
is sound (multiset add/remove), as for the semiqueue.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.conflict import ConflictRelation, OperationClass, PredicateConflict
from ..core.events import Invocation, Operation, inv
from .base import ADT

INSERT = "insert(x)/ok"
EXTRACT_OK = "extract_min/x"
EXTRACT_EMPTY = "extract_min/empty"

PQ_NFC_MARKS: Tuple[Tuple[str, str], ...] = (
    (INSERT, EXTRACT_OK),
    (EXTRACT_OK, INSERT),
    (EXTRACT_OK, EXTRACT_OK),
    (INSERT, EXTRACT_EMPTY),
    (EXTRACT_EMPTY, INSERT),
)

PQ_NRBC_MARKS: Tuple[Tuple[str, str], ...] = (
    (INSERT, EXTRACT_OK),
    (EXTRACT_OK, INSERT),
    (EXTRACT_OK, EXTRACT_OK),
    (INSERT, EXTRACT_EMPTY),
    (EXTRACT_EMPTY, EXTRACT_OK),
)


def _ordered(classify, marks, order, name: str) -> ConflictRelation:
    """The class marks, each hit weakened by comparing the two items: an
    ordering, not a key equality, so a predicate (the per-pair loop)."""
    marked = frozenset(marks)

    def conflicts(new: Operation, old: Operation) -> bool:
        return (classify(new), classify(old)) in marked and order(new, old)

    return PredicateConflict(conflicts, name=name)


def _nfc_order(new: Operation, old: Operation) -> bool:
    """Weaken class-level NFC marks using the argument ordering."""
    pair = (new.name, old.name, new.response == "empty", old.response == "empty")
    if new.name == "insert" and old.name == "extract_min" and not pair[3]:
        return new.args[0] < old.response  # x < y changes the minimum
    if new.name == "extract_min" and old.name == "insert" and not pair[2]:
        return old.args[0] < new.response  # symmetric (FC is symmetric)
    return True  # other marked pairs conflict class-wide


def _nrbc_order(new: Operation, old: Operation) -> bool:
    if new.name == "insert" and old.name == "extract_min":
        if old.response == "empty":
            return True
        return new.args[0] < old.response  # x < y
    if new.name == "extract_min" and old.name == "insert":
        if new.response == "empty":
            return True  # vacuous pairs are not in the matrix anyway
        return old.args[0] <= new.response  # x ≤ y
    if new.name == "extract_min" and old.name == "extract_min":
        if new.response == "empty" or old.response == "empty":
            return True
        return old.response <= new.response  # z ≤ y for (em/y, em/z)
    return True


def _bag_add(state: Tuple, x) -> Tuple:
    return tuple(sorted(state + (x,)))


def _bag_remove(state: Tuple, x) -> Tuple:
    items = list(state)
    items.remove(x)
    return tuple(items)


class PriorityQueue(ADT):
    """A min-priority queue over a finite ordered item domain."""

    analysis_context_depth = 4
    analysis_future_depth = 4
    supports_logical_undo = True

    def __init__(self, name: str = "PQ", domain: Sequence = (1, 2)):
        super().__init__(name)
        self._domain: Tuple = tuple(sorted(domain))

    # -- specification -------------------------------------------------------------

    def initial_state(self) -> Tuple:
        return ()

    def transitions(self, state: Tuple, invocation: Invocation):
        if invocation.name == "insert" and len(invocation.args) == 1:
            (x,) = invocation.args
            if x in self._domain:
                yield "ok", _bag_add(state, x)
        elif invocation.name == "extract_min" and not invocation.args:
            if state:
                yield state[0], state[1:]  # state kept sorted: min first
            else:
                yield "empty", state

    # -- analysis hooks ---------------------------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence] = None
    ) -> Tuple[Invocation, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return tuple([inv("extract_min")] + [inv("insert", x) for x in domain])

    def operation_classes(
        self, domain: Optional[Sequence] = None
    ) -> Tuple[OperationClass, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return (
            OperationClass(
                INSERT,
                tuple(self.operation(inv("insert", x), "ok") for x in domain),
            ),
            OperationClass(
                EXTRACT_OK,
                tuple(self.operation(inv("extract_min"), x) for x in domain),
            ),
            OperationClass(
                EXTRACT_EMPTY,
                (self.operation(inv("extract_min"), "empty"),),
            ),
        )

    def classify(self, operation: Operation) -> str:
        if operation.name == "insert":
            return INSERT
        if operation.name == "extract_min":
            return EXTRACT_EMPTY if operation.response == "empty" else EXTRACT_OK
        raise ValueError("not a priority-queue operation: %s" % (operation,))

    # -- analytic conflict relations ------------------------------------------------------

    def nfc_conflict(self, domain: Optional[Sequence] = None) -> ConflictRelation:
        return _ordered(self.classify, PQ_NFC_MARKS, _nfc_order, "NFC(PQ)")

    def nrbc_conflict(self, domain: Optional[Sequence] = None) -> ConflictRelation:
        return _ordered(self.classify, PQ_NRBC_MARKS, _nrbc_order, "NRBC(PQ)")

    # -- runtime hooks ----------------------------------------------------------------------

    def apply(self, state: Tuple, operation: Operation) -> Tuple:
        if operation.name == "insert":
            return _bag_add(state, operation.args[0])
        if operation.name == "extract_min":
            if operation.response == "empty":
                if state:
                    raise ValueError("extract_min/empty not enabled: %r" % (state,))
                return state
            if not state or state[0] != operation.response:
                raise ValueError(
                    "extract_min/%r not enabled: %r" % (operation.response, state)
                )
            return state[1:]
        raise ValueError("not a priority-queue operation: %s" % (operation,))

    def undo(self, state: Tuple, operation: Operation) -> Tuple:
        if operation.name == "insert":
            return _bag_remove(state, operation.args[0])
        if operation.name == "extract_min" and operation.response != "empty":
            return _bag_add(state, operation.response)
        return state

    # -- conveniences -------------------------------------------------------------------------

    def insert(self, x) -> Operation:
        return self.operation(inv("insert", x), "ok")

    def extract_min(self, x) -> Operation:
        return self.operation(inv("extract_min"), x)

    def extract_empty(self) -> Operation:
        return self.operation(inv("extract_min"), "empty")
