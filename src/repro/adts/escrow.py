"""An escrow account: a bank account without observers (after O'Neil).

The paper's conclusion (Section 8) points at O'Neil's escrow method [16]
as an algorithm whose conflict test depends on the current state and so
does not fit the ``I(X, Spec, View, Conflict)`` framework.  This ADT is
the closest *framework-compatible* relative: a quantity under escrow
with blind increments and guarded decrements, but **no balance reads**
— the operation that caused most of the bank account's conflicts.

State: a non-negative integer, initially a configurable opening amount.
Operations::

    ESC:[credit(i), ok]  i > 0 — effect s' = s + i
    ESC:[debit(i), ok]   i > 0 — precondition s ≥ i; effect s' = s − i
    ESC:[debit(i), no]   i > 0 — precondition s < i; no effect

The relations are the bank account's figures with the balance row and
column deleted:

* NFC: ``(debit-OK, debit-OK)``, ``(credit, debit-NO)`` and its mirror;
* NRBC: ``(credit, debit-NO)``, ``(debit-OK, credit)``,
  ``(debit-NO, debit-OK)``.

Because reads are gone, UIP admits fully concurrent successful debits
and credits — the quantitative point of the EXP-C2 escrow workload: the
recovery method's constraint dominates exactly when update/update
concurrency is all that is left.

Logical undo is sound (delta arithmetic), as for the bank account.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.conflict import ConflictRelation, OperationClass
from ..core.events import Invocation, Operation, inv
from .base import ADT

CREDIT = "credit(i)/ok"
DEBIT_OK = "debit(i)/OK"
DEBIT_NO = "debit(i)/NO"

ESCROW_NFC_MARKS: Tuple[Tuple[str, str], ...] = (
    (CREDIT, DEBIT_NO),
    (DEBIT_NO, CREDIT),
    (DEBIT_OK, DEBIT_OK),
)

ESCROW_NRBC_MARKS: Tuple[Tuple[str, str], ...] = (
    (CREDIT, DEBIT_NO),
    (DEBIT_OK, CREDIT),
    (DEBIT_NO, DEBIT_OK),
)


class EscrowAccount(ADT):
    """A quantity under escrow: credits, guarded debits, no reads."""

    analysis_context_depth = 4
    analysis_future_depth = 4
    supports_logical_undo = True

    def __init__(
        self,
        name: str = "ESC",
        domain: Sequence[int] = (1, 2, 3),
        opening: int = 0,
    ):
        super().__init__(name)
        self._domain: Tuple[int, ...] = tuple(domain)
        if any(i <= 0 for i in self._domain):
            raise ValueError("amounts must be positive")
        if opening < 0:
            raise ValueError("opening amount must be non-negative")
        self._opening = opening

    # -- specification -------------------------------------------------------------

    def initial_state(self) -> int:
        return self._opening

    def transitions(self, state: int, invocation: Invocation):
        if invocation.name == "credit" and len(invocation.args) == 1:
            (i,) = invocation.args
            if i > 0:
                yield "ok", state + i
        elif invocation.name == "debit" and len(invocation.args) == 1:
            (i,) = invocation.args
            if i > 0:
                if state >= i:
                    yield "ok", state - i
                else:
                    yield "no", state

    # -- analysis hooks ---------------------------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence[int]] = None
    ) -> Tuple[Invocation, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        invocations = []
        for i in domain:
            invocations.append(inv("credit", i))
            invocations.append(inv("debit", i))
        return tuple(invocations)

    def operation_classes(
        self, domain: Optional[Sequence[int]] = None
    ) -> Tuple[OperationClass, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return (
            OperationClass(
                CREDIT,
                tuple(self.operation(inv("credit", i), "ok") for i in domain),
            ),
            OperationClass(
                DEBIT_OK,
                tuple(self.operation(inv("debit", i), "ok") for i in domain),
            ),
            OperationClass(
                DEBIT_NO,
                tuple(self.operation(inv("debit", i), "no") for i in domain),
            ),
        )

    def classify(self, operation: Operation) -> str:
        if operation.name == "credit":
            return CREDIT
        if operation.name == "debit":
            return DEBIT_OK if operation.response == "ok" else DEBIT_NO
        raise ValueError("not an escrow operation: %s" % (operation,))

    # -- analytic conflict relations ------------------------------------------------------

    def nfc_conflict(
        self, domain: Optional[Sequence[int]] = None
    ) -> ConflictRelation:
        return self.class_conflict(ESCROW_NFC_MARKS, name="NFC(ESC)")

    def nrbc_conflict(
        self, domain: Optional[Sequence[int]] = None
    ) -> ConflictRelation:
        return self.class_conflict(ESCROW_NRBC_MARKS, name="NRBC(ESC)")

    # -- runtime hooks ----------------------------------------------------------------------

    def undo(self, state: int, operation: Operation) -> int:
        if operation.name == "credit":
            return state - operation.args[0]
        if operation.name == "debit" and operation.response == "ok":
            return state + operation.args[0]
        return state

    # -- conveniences ------------------------------------------------------------------------

    def credit(self, i: int) -> Operation:
        return self.operation(inv("credit", i), "ok")

    def debit_ok(self, i: int) -> Operation:
        return self.operation(inv("debit", i), "ok")

    def debit_no(self, i: int) -> Operation:
        return self.operation(inv("debit", i), "no")
