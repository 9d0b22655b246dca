"""A FIFO queue: ordered enqueue/dequeue with an explicit empty response.

State: a finite sequence over an item domain, initially empty.
Operations::

    Q:[enq(x), ok]     — effect: append x at the tail        (total)
    Q:[deq, x]         — precondition: head = x; effect: remove the head
    Q:[deq, "empty"]   — precondition: queue empty; no effect

Hand derivation (cross-checked mechanically in the tests):

Forward commutativity — non-commuting (symmetric) pairs:

* ``enq``/``enq`` — enqueue order is observable by later dequeues;
* ``enq``/``deq-empty`` — after the enqueue the queue is nonempty;
* ``deq-ok``/``deq-ok`` — with a single buffered item, each dequeue is
  legal alone but not both in sequence (the queue analogue of the two
  successful withdrawals).

Commuting: ``enq``/``deq-ok`` — head and tail are independent: an
enqueue appends at the tail and never changes which item a concurrent
dequeue removes; this is the classic source of queue concurrency.
``deq-ok``/``deq-empty`` are never enabled together (vacuous).

Right backward commutativity — ``(β, γ)`` marked:

* ``(enq, enq)`` — order observable;
* ``(enq, deq-empty)`` — ``α·deqE·enq`` legal on empty; pushed back the
  queue is nonempty.  But ``(deq-empty, enq)`` is **unmarked**: a
  ``deq-empty`` immediately after an ``enq`` is never legal (vacuous);
* ``(deq-ok, enq)`` — ``α·enq(x)·deq/x`` legal on an empty ``α``-queue;
  pushed back the dequeue hits an empty queue;
* ``(deq-ok, deq-ok)`` — two dequeues remove head then second element;
  exchanged, the wrong item comes first;
* ``(deq-empty, deq-ok)`` — ``α·deq/x·deqE`` legal on a singleton;
  pushed back ``deqE`` sees a nonempty queue.  ``(deq-ok, deq-empty)``
  is vacuous (nothing dequeues after an observed empty... until an
  enqueue intervenes, which breaks adjacency) — unmarked.

The incomparability gap: ``(deq-empty, enq)`` is NFC-only;
``(deq-ok, enq)`` and ``(deq-empty, deq-ok)`` are NRBC-only.

Queue states are unbounded in length, so analysis uses bounded contexts;
the bounds below find every violation for the class tables (witnesses
need at most two buffered items).  Logical undo is unsound (a dequeue
cannot be un-dequeued at the head if others enqueued meanwhile... more
precisely it can, but an aborted *enqueue* may sit between items another
transaction observed; replay is used instead).
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Tuple

from ..core.conflict import ConflictRelation, OperationClass
from ..core.events import Invocation, Operation, inv
from .base import ADT

ENQ = "enq(x)/ok"
DEQ_OK = "deq/x"
DEQ_EMPTY = "deq/empty"

QUEUE_NFC_MARKS: Tuple[Tuple[str, str], ...] = (
    (ENQ, ENQ),
    (ENQ, DEQ_EMPTY),
    (DEQ_EMPTY, ENQ),
    (DEQ_OK, DEQ_OK),
)

QUEUE_NRBC_MARKS: Tuple[Tuple[str, str], ...] = (
    (ENQ, ENQ),
    (ENQ, DEQ_EMPTY),
    (DEQ_OK, ENQ),
    (DEQ_OK, DEQ_OK),
    (DEQ_EMPTY, DEQ_OK),
)


class FifoQueue(ADT):
    """A FIFO queue over a finite item domain."""

    analysis_context_depth = 4
    analysis_future_depth = 4
    supports_logical_undo = False

    def __init__(self, name: str = "Q", domain: Sequence[Hashable] = ("a", "b")):
        super().__init__(name)
        self._domain: Tuple[Hashable, ...] = tuple(domain)

    # -- specification -------------------------------------------------------------

    def initial_state(self) -> Tuple:
        return ()

    def transitions(self, state: Tuple, invocation: Invocation):
        if invocation.name == "enq" and len(invocation.args) == 1:
            (x,) = invocation.args
            if x in self._domain:
                yield "ok", state + (x,)
        elif invocation.name == "deq" and not invocation.args:
            if state:
                yield state[0], state[1:]
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
        raise ValueError("not a queue operation: %s" % (operation,))

    # -- analytic conflict relations ------------------------------------------------------

    def nfc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        return self.class_conflict(QUEUE_NFC_MARKS, name="NFC(Q)")

    def nrbc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        return self.class_conflict(QUEUE_NRBC_MARKS, name="NRBC(Q)")

    # -- conveniences ------------------------------------------------------------------------

    def enq(self, x: Hashable) -> Operation:
        return self.operation(inv("enq", x), "ok")

    def deq(self, x: Hashable) -> Operation:
        return self.operation(inv("deq"), x)

    def deq_empty(self) -> Operation:
        return self.operation(inv("deq"), "empty")
