"""A semiqueue: the classic *nondeterministic* weakly-ordered queue.

The semiqueue (from Weihl's thesis, cited as [21]) drops FIFO ordering:
``deq`` may return **any** buffered item, chosen nondeterministically.
State: a finite multiset over an item domain, initially empty.
Operations::

    SQ:[enq(x), ok]  — effect: add one copy of x            (total)
    SQ:[deq, x]      — precondition: x in the bag; effect: remove one copy
    SQ:[deq, "empty"]— precondition: bag empty; no effect

This ADT exercises the paper's generality claim for *nondeterministic*
operations, and it maximizes the contrast between the two recovery
methods:

Forward commutativity — non-commuting pairs:

* ``deq-ok``/``deq-ok`` — with a single buffered copy of ``x``, two
  ``deq/x`` are each legal but not in sequence — **x**;
* ``enq``/``deq-empty`` and ``deq-empty``/``deq-ok``-style pairs
  involving emptiness observations — an ``enq`` invalidates a pending
  ``deq/empty`` — **x** for (enq, deq-empty);
* everything else commutes: bags ignore order, so ``enq``/``enq``,
  ``enq``/``deq-ok`` and distinct-item dequeues all commute forward.

Right backward commutativity — marked pairs:

* ``(deq-ok, enq)`` — ``α·enq(x)·deq/x`` legal with no buffered ``x``;
  pushed back the dequeue has nothing to take — **x**;
* ``(enq, deq-empty)`` — nonempty after the enqueue — **x**;
* ``(deq-empty, deq-ok)`` — ``α·deq/x·deq-empty`` legal on a singleton
  bag; pushed back the bag is nonempty — **x**;
* notably **unmarked**: ``(deq-ok, deq-ok)`` — two dequeues of a
  multiset commute backward freely (``α·deq/y·deq/x`` legal implies
  ``α·deq/x·deq/y`` legal with the same resulting bag).

So under update-in-place, concurrent dequeues of *distinct or even equal*
items never conflict (NRBC), while deferred update must serialize
same-item dequeues (NFC) — and conversely UIP must order dequeues after
enqueues that DU leaves concurrent.  The EXP-C2 benchmark quantifies
this on producer/consumer workloads.

Logical undo is sound: the inverse of ``enq(x)`` removes one copy of
``x``; the inverse of ``deq/x`` adds one back — multiset arithmetic
commutes with everything NRBC admits concurrently.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Tuple

from ..core.conflict import ConflictRelation, OperationClass
from ..core.events import Invocation, Operation, inv
from .base import ADT

ENQ = "enq(x)/ok"
DEQ_OK = "deq/x"
DEQ_EMPTY = "deq/empty"

SEMIQUEUE_NFC_MARKS: Tuple[Tuple[str, str], ...] = (
    (ENQ, DEQ_EMPTY),
    (DEQ_EMPTY, ENQ),
    (DEQ_OK, DEQ_OK),
)

SEMIQUEUE_NRBC_MARKS: Tuple[Tuple[str, str], ...] = (
    (ENQ, DEQ_EMPTY),
    (DEQ_OK, ENQ),
    (DEQ_EMPTY, DEQ_OK),
)


def _bag_add(state: Tuple, x: Hashable) -> Tuple:
    return tuple(sorted(state + (x,), key=repr))


def _bag_remove(state: Tuple, x: Hashable) -> Tuple:
    items = list(state)
    items.remove(x)
    return tuple(items)


class SemiQueue(ADT):
    """A multiset buffer with nondeterministic dequeue."""

    analysis_context_depth = 4
    analysis_future_depth = 4
    supports_logical_undo = True

    def __init__(self, name: str = "SQ", domain: Sequence[Hashable] = ("a", "b")):
        super().__init__(name)
        self._domain: Tuple[Hashable, ...] = tuple(domain)

    # -- specification -------------------------------------------------------------

    def initial_state(self) -> Tuple:
        return ()

    def transitions(self, state: Tuple, invocation: Invocation):
        if invocation.name == "enq" and len(invocation.args) == 1:
            (x,) = invocation.args
            if x in self._domain:
                yield "ok", _bag_add(state, x)
        elif invocation.name == "deq" and not invocation.args:
            if state:
                for x in sorted(set(state), key=repr):
                    yield x, _bag_remove(state, x)
            else:
                yield "empty", state

    # -- analysis hooks ---------------------------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Invocation, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return tuple([inv("deq")] + [inv("enq", x) for x in domain])

    def operation_classes(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[OperationClass, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return (
            OperationClass(
                ENQ,
                tuple(self.operation(inv("enq", x), "ok") for x in domain),
            ),
            OperationClass(
                DEQ_OK,
                tuple(self.operation(inv("deq"), x) for x in domain),
            ),
            OperationClass(
                DEQ_EMPTY, (self.operation(inv("deq"), "empty"),)
            ),
        )

    def classify(self, operation: Operation) -> str:
        if operation.name == "enq":
            return ENQ
        if operation.name == "deq":
            return DEQ_EMPTY if operation.response == "empty" else DEQ_OK
        raise ValueError("not a semiqueue operation: %s" % (operation,))

    # -- analytic conflict relations ------------------------------------------------------

    def nfc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        return self.class_conflict(SEMIQUEUE_NFC_MARKS, name="NFC(SQ)")

    def nrbc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        return self.class_conflict(SEMIQUEUE_NRBC_MARKS, name="NRBC(SQ)")

    # -- runtime hooks ----------------------------------------------------------------------

    def apply(self, state: Tuple, operation: Operation) -> Tuple:
        # Nondeterministic deq: the response fixes the removed item, so
        # the transition is unambiguous given the whole operation.
        if operation.name == "enq":
            return _bag_add(state, operation.args[0])
        if operation.name == "deq":
            if operation.response == "empty":
                if state:
                    raise ValueError("deq/empty not enabled: bag %r" % (state,))
                return state
            if operation.response not in state:
                raise ValueError(
                    "deq/%r not enabled: bag %r" % (operation.response, state)
                )
            return _bag_remove(state, operation.response)
        raise ValueError("not a semiqueue operation: %s" % (operation,))

    def undo(self, state: Tuple, operation: Operation) -> Tuple:
        if operation.name == "enq":
            return _bag_remove(state, operation.args[0])
        if operation.name == "deq" and operation.response != "empty":
            return _bag_add(state, operation.response)
        return state

    # -- conveniences ------------------------------------------------------------------------

    def enq(self, x: Hashable) -> Operation:
        return self.operation(inv("enq", x), "ok")

    def deq(self, x: Hashable) -> Operation:
        return self.operation(inv("deq"), x)

    def deq_empty(self) -> Operation:
        return self.operation(inv("deq"), "empty")
