"""A read/increment counter: the simplest ADT where FC and RBC *coincide*.

State: an integer, initially 0.  Operations::

    C:[increment(i), ok]   i > 0 — effect s' = s + i
    C:[decrement(i), ok]   i > 0 — effect s' = s − i   (may go negative)
    C:[read, k]            precondition s = k; no effect

Updates are total (no preconditions) and form an abelian group, so any
two updates commute both forward and backward; a read fails to commute
with any update in *both* directions (the update changes the value the
read must return).  Hence::

    NFC(Counter) = NRBC(Counter) = { (upd, read), (read, upd) }

This makes the counter the library's control case: for this type the
choice of recovery method places *identical* constraints on concurrency
control, in contrast to the bank account (Figures 6-1/6-2) where the
constraints are incomparable.  The difference is caused entirely by the
bank account's *partial* operation (``withdraw``'s precondition):
totality plus commutative effects collapse the two notions.

Logical undo is sound (delta arithmetic).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.conflict import ConflictRelation, OperationClass
from ..core.events import Invocation, Operation, inv
from .base import ADT

INCREMENT = "increment(i)/ok"
DECREMENT = "decrement(i)/ok"
READ = "read/k"

#: The shared analytic matrix: reads conflict with updates, both ways.
COUNTER_MARKS: Tuple[Tuple[str, str], ...] = (
    (INCREMENT, READ),
    (READ, INCREMENT),
    (DECREMENT, READ),
    (READ, DECREMENT),
)


class Counter(ADT):
    """An integer counter with blind increments/decrements and a read."""

    analysis_context_depth = 3
    analysis_future_depth = 3
    supports_logical_undo = True

    def __init__(self, name: str = "CTR", domain: Sequence[int] = (1, 2)):
        super().__init__(name)
        self._domain: Tuple[int, ...] = tuple(domain)
        if any(i <= 0 for i in self._domain):
            raise ValueError("increment amounts must be positive")

    # -- specification ----------------------------------------------------------

    def initial_state(self) -> int:
        return 0

    def transitions(self, state: int, invocation: Invocation):
        if invocation.name == "increment" and len(invocation.args) == 1:
            (i,) = invocation.args
            if i > 0:
                yield "ok", state + i
        elif invocation.name == "decrement" and len(invocation.args) == 1:
            (i,) = invocation.args
            if i > 0:
                yield "ok", state - i
        elif invocation.name == "read" and not invocation.args:
            yield state, state

    # -- analysis hooks -----------------------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence[int]] = None
    ) -> Tuple[Invocation, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        invocations = [inv("read")]
        for i in domain:
            invocations.append(inv("increment", i))
            invocations.append(inv("decrement", i))
        return tuple(invocations)

    def readonly_invocations(
        self, domain: Optional[Sequence[int]] = None
    ) -> Tuple[Invocation, ...]:
        return (inv("read"),)

    def operation_classes(
        self, domain: Optional[Sequence[int]] = None
    ) -> Tuple[OperationClass, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        bound = sum(domain) + max(domain)
        return (
            OperationClass(
                INCREMENT,
                tuple(self.operation(inv("increment", i), "ok") for i in domain),
            ),
            OperationClass(
                DECREMENT,
                tuple(self.operation(inv("decrement", i), "ok") for i in domain),
            ),
            OperationClass(
                READ,
                tuple(
                    self.operation(inv("read"), k)
                    for k in range(-bound, bound + 1)
                ),
            ),
        )

    def classify(self, operation: Operation) -> str:
        if operation.name == "increment":
            return INCREMENT
        if operation.name == "decrement":
            return DECREMENT
        if operation.name == "read":
            return READ
        raise ValueError("not a counter operation: %s" % (operation,))

    # -- analytic conflict relations -------------------------------------------------

    def nfc_conflict(
        self, domain: Optional[Sequence[int]] = None
    ) -> ConflictRelation:
        return self.class_conflict(COUNTER_MARKS, name="NFC(CTR)")

    def nrbc_conflict(
        self, domain: Optional[Sequence[int]] = None
    ) -> ConflictRelation:
        return self.class_conflict(COUNTER_MARKS, name="NRBC(CTR)")

    # -- runtime hooks ----------------------------------------------------------------

    def undo(self, state: int, operation: Operation) -> int:
        if operation.name == "increment":
            return state - operation.args[0]
        if operation.name == "decrement":
            return state + operation.args[0]
        return state

    # -- conveniences -----------------------------------------------------------------

    def increment(self, i: int) -> Operation:
        return self.operation(inv("increment", i), "ok")

    def decrement(self, i: int) -> Operation:
        return self.operation(inv("decrement", i), "ok")

    def read(self, k: int) -> Operation:
        return self.operation(inv("read"), k)
