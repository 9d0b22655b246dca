"""A LIFO stack: the low-concurrency extreme of the ADT spectrum.

State: a finite sequence (top at the right), initially empty.
Operations::

    ST:[push(x), ok]   — effect: push x                      (total)
    ST:[pop, x]        — precondition: top = x; effect: pop
    ST:[pop, "empty"]  — precondition: stack empty; no effect

Because every operation touches the *same end* of the structure, almost
nothing commutes — the stack is the natural worst case against which the
queue's and semiqueue's concurrency wins are measured (EXP-C2).

Forward commutativity — non-commuting (symmetric) pairs:
``push``/``push`` (order observable at the top), ``push``/``pop-ok``
(for distinct items the pop's precondition breaks), ``push``/
``pop-empty``, ``pop-ok``/``pop-ok`` (singleton stack).  Vacuous/
commuting: ``pop-ok``/``pop-empty`` (never both enabled),
``pop-empty``/``pop-empty``.

Right backward commutativity — ``(β, γ)`` marked:
``(push, push)``, ``(push, pop-ok)``, ``(push, pop-empty)``,
``(pop-ok, push)``, ``(pop-ok, pop-ok)``, ``(pop-empty, pop-ok)``;
unmarked: ``(pop-empty, push)`` (a pop-empty directly after a push is
never legal — vacuous) and ``(pop-ok, pop-empty)`` (likewise).

Logical undo is unsound (un-pushing the top after a concurrent
push... NRBC forbids concurrent pushes, but replay keeps the
implementation uniform with the other order-sensitive types).
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Tuple

from ..core.conflict import ConflictRelation, OperationClass
from ..core.events import Invocation, Operation, inv
from .base import ADT

PUSH = "push(x)/ok"
POP_OK = "pop/x"
POP_EMPTY = "pop/empty"

STACK_NFC_MARKS: Tuple[Tuple[str, str], ...] = (
    (PUSH, PUSH),
    (PUSH, POP_OK),
    (POP_OK, PUSH),
    (PUSH, POP_EMPTY),
    (POP_EMPTY, PUSH),
    (POP_OK, POP_OK),
)

STACK_NRBC_MARKS: Tuple[Tuple[str, str], ...] = (
    (PUSH, PUSH),
    (PUSH, POP_OK),
    (PUSH, POP_EMPTY),
    (POP_OK, PUSH),
    (POP_OK, POP_OK),
    (POP_EMPTY, POP_OK),
)


class Stack(ADT):
    """A LIFO stack over a finite item domain."""

    analysis_context_depth = 4
    analysis_future_depth = 4
    supports_logical_undo = False

    def __init__(self, name: str = "ST", domain: Sequence[Hashable] = ("a", "b")):
        super().__init__(name)
        self._domain: Tuple[Hashable, ...] = tuple(domain)

    # -- specification -------------------------------------------------------------

    def initial_state(self) -> Tuple:
        return ()

    def transitions(self, state: Tuple, invocation: Invocation):
        if invocation.name == "push" and len(invocation.args) == 1:
            (x,) = invocation.args
            if x in self._domain:
                yield "ok", state + (x,)
        elif invocation.name == "pop" and not invocation.args:
            if state:
                yield state[-1], state[:-1]
            else:
                yield "empty", state

    # -- analysis hooks ---------------------------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Invocation, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return tuple([inv("pop")] + [inv("push", x) for x in domain])

    def operation_classes(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[OperationClass, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return (
            OperationClass(
                PUSH,
                tuple(self.operation(inv("push", x), "ok") for x in domain),
            ),
            OperationClass(
                POP_OK,
                tuple(self.operation(inv("pop"), x) for x in domain),
            ),
            OperationClass(POP_EMPTY, (self.operation(inv("pop"), "empty"),)),
        )

    def classify(self, operation: Operation) -> str:
        if operation.name == "push":
            return PUSH
        if operation.name == "pop":
            return POP_EMPTY if operation.response == "empty" else POP_OK
        raise ValueError("not a stack operation: %s" % (operation,))

    # -- analytic conflict relations ------------------------------------------------------

    def nfc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        return self.class_conflict(STACK_NFC_MARKS, name="NFC(ST)")

    def nrbc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        return self.class_conflict(STACK_NRBC_MARKS, name="NRBC(ST)")

    # -- conveniences ------------------------------------------------------------------------

    def push(self, x: Hashable) -> Operation:
        return self.operation(inv("push", x), "ok")

    def pop(self, x: Hashable) -> Operation:
        return self.operation(inv("pop"), x)

    def pop_empty(self) -> Operation:
        return self.operation(inv("pop"), "empty")
