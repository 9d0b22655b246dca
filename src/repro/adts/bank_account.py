"""The paper's running example: a bank account (Sections 3.2, 6.2, 6.3).

State: a non-negative integer balance, initially 0.  Operations::

    BA:[deposit(i), ok]     i > 0   — effect: s' = s + i
    BA:[withdraw(i), ok]    i > 0   — precondition s ≥ i; effect s' = s − i
    BA:[withdraw(i), no]    i > 0   — precondition s < i; no effect
    BA:[balance, i]                 — precondition s = i; no effect

Forward commutativity (Figure 6-1, derivation in the paper's Section 6.2):

* ``deposit``/``withdraw-NO`` — after ``α`` with balance ``s < j`` and any
  ``i``, both ``deposit(i)`` and ``withdraw(j)/NO`` are legal, but
  ``deposit(i)·withdraw(j)/NO`` needs ``s + i < j``, which fails for large
  ``i`` — **x**.
* ``deposit``/``balance`` and ``withdraw-OK``/``balance`` — the update
  changes the value ``balance`` must return — **x**.
* ``withdraw-OK``/``withdraw-OK`` — with ``max(i, j) ≤ s < i + j`` each is
  legal alone but not in sequence — **x** (the famous pair: *allowed*
  under update-in-place, *conflicting* under deferred update).
* everything else commutes forward (e.g. ``withdraw-OK``/``withdraw-NO``:
  ``s ≥ i`` and ``s < j`` imply ``s − i < j``).

Right backward commutativity (Figure 6-2, Section 6.3; entry (row β,
col γ) marked when β does *not* right commute backward with γ):

* ``(deposit, withdraw-NO)`` — ``α·w(j)/NO·d(i)`` legal needs ``s < j``;
  pushing the deposit back needs ``s + i < j`` — **x**; the mirrored
  ``(withdraw-NO, deposit)``... see below.
* ``(deposit, balance)`` and ``(withdraw-OK, balance)`` — pushing an
  update before the balance changes the returned value — **x**.
* ``(withdraw-OK, deposit)`` — the paper's worked example: ``α·d(i)·w(j)/OK``
  legal needs ``s + i ≥ j``; pushed back, ``w(j)/OK`` needs ``s ≥ j`` —
  **x**.  (``(deposit, withdraw-OK)`` is *not* marked: a deposit pushed
  before a successful withdrawal only raises the balance.)
* ``(withdraw-NO, withdraw-OK)`` — ``α·w(j)/OK·w(i)/NO`` legal needs
  ``s ≥ j`` and ``s − j < i``; pushed back, ``w(i)/NO`` needs ``s < i``,
  not implied (s=5, j=3, i=4) — **x**.
* ``(balance, deposit)`` and ``(balance, withdraw-OK)`` — a balance read
  after an update cannot be pushed before it — **x**.
* notably *not* marked: ``(withdraw-OK, withdraw-OK)`` — pushing one
  successful withdrawal before another preserves legality (``s ≥ i + j``)
  and the final balance; and ``(withdraw-NO, balance)``/(``balance``,
  ``withdraw-NO``) — failed withdrawals don't change the state.

The two relations are **incomparable**: ``(withdraw-OK, withdraw-OK)``
is in NFC only; ``(withdraw-NO, withdraw-OK)`` is in NRBC only
(Section 6.4) — the headline example that update-in-place and deferred
update constrain concurrency control incomparably.

Logical undo (for the update-in-place runtime) is sound: deposits and
successful withdrawals are compensated by delta arithmetic, which
commutes with every concurrent update NRBC admits.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.conflict import ConflictRelation, OperationClass
from ..core.events import Invocation, Operation, inv
from .base import ADT

#: Class labels, matching the paper's figures.
DEPOSIT = "deposit(i)/ok"
WITHDRAW_OK = "withdraw(i)/OK"
WITHDRAW_NO = "withdraw(i)/NO"
BALANCE = "balance/i"

#: Figure 6-1 — pairs that do NOT commute forward (symmetric).
FIGURE_6_1_MARKS: Tuple[Tuple[str, str], ...] = (
    (DEPOSIT, WITHDRAW_NO),
    (WITHDRAW_NO, DEPOSIT),
    (DEPOSIT, BALANCE),
    (BALANCE, DEPOSIT),
    (WITHDRAW_OK, WITHDRAW_OK),
    (WITHDRAW_OK, BALANCE),
    (BALANCE, WITHDRAW_OK),
)

#: Figure 6-2 — (row β, col γ): β does NOT right commute backward with γ.
FIGURE_6_2_MARKS: Tuple[Tuple[str, str], ...] = (
    (DEPOSIT, WITHDRAW_NO),
    (DEPOSIT, BALANCE),
    (WITHDRAW_OK, DEPOSIT),
    (WITHDRAW_OK, BALANCE),
    (WITHDRAW_NO, WITHDRAW_OK),
    (BALANCE, DEPOSIT),
    (BALANCE, WITHDRAW_OK),
)


class BankAccount(ADT):
    """The paper's bank account ADT ``M(BA)``."""

    analysis_context_depth = 4  # balances are unbounded; bound the contexts
    analysis_future_depth = 4
    supports_logical_undo = True

    def __init__(
        self,
        name: str = "BA",
        domain: Sequence[int] = (1, 2, 3),
        opening: int = 0,
    ):
        super().__init__(name)
        self._domain: Tuple[int, ...] = tuple(domain)
        if any(i <= 0 for i in self._domain):
            raise ValueError("amounts must be positive")
        if opening < 0:
            raise ValueError("opening balance must be non-negative")
        self._opening = opening

    # -- specification ----------------------------------------------------------

    def initial_state(self) -> int:
        return self._opening

    def transitions(self, state: int, invocation: Invocation):
        if invocation.name == "deposit" and len(invocation.args) == 1:
            (i,) = invocation.args
            if i > 0:
                yield "ok", state + i
        elif invocation.name == "withdraw" and len(invocation.args) == 1:
            (i,) = invocation.args
            if i > 0:
                if state >= i:
                    yield "ok", state - i
                else:
                    yield "no", state
        elif invocation.name == "balance" and not invocation.args:
            yield state, state

    # -- analysis hooks ------------------------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence[int]] = None
    ) -> Tuple[Invocation, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        invocations = [inv("balance")]
        for i in domain:
            invocations.append(inv("deposit", i))
            invocations.append(inv("withdraw", i))
        return tuple(invocations)

    def readonly_invocations(
        self, domain: Optional[Sequence[int]] = None
    ) -> Tuple[Invocation, ...]:
        return (inv("balance"),)

    def operation_classes(
        self, domain: Optional[Sequence[int]] = None
    ) -> Tuple[OperationClass, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        # Balance instances range over the values reachable within the
        # analysis context depth; a small prefix suffices for witnesses.
        max_balance = sum(sorted(domain)[-2:]) + max(domain)
        return (
            OperationClass(
                DEPOSIT,
                tuple(self.operation(inv("deposit", i), "ok") for i in domain),
            ),
            OperationClass(
                WITHDRAW_OK,
                tuple(self.operation(inv("withdraw", i), "ok") for i in domain),
            ),
            OperationClass(
                WITHDRAW_NO,
                tuple(self.operation(inv("withdraw", i), "no") for i in domain),
            ),
            OperationClass(
                BALANCE,
                tuple(
                    self.operation(inv("balance"), k)
                    for k in range(0, max_balance + 1)
                ),
            ),
        )

    def classify(self, operation: Operation) -> str:
        if operation.name == "deposit":
            return DEPOSIT
        if operation.name == "withdraw":
            return WITHDRAW_OK if operation.response == "ok" else WITHDRAW_NO
        if operation.name == "balance":
            return BALANCE
        raise ValueError("not a bank-account operation: %s" % (operation,))

    # -- analytic conflict relations (the figures) -----------------------------------

    def nfc_conflict(
        self, domain: Optional[Sequence[int]] = None
    ) -> ConflictRelation:
        """NFC(BA) — exactly the Figure 6-1 marks, lifted to classes."""
        return self.class_conflict(FIGURE_6_1_MARKS, name="NFC(BA)")

    def nrbc_conflict(
        self, domain: Optional[Sequence[int]] = None
    ) -> ConflictRelation:
        """NRBC(BA) — exactly the Figure 6-2 marks, lifted to classes."""
        return self.class_conflict(FIGURE_6_2_MARKS, name="NRBC(BA)")

    # -- runtime hooks ---------------------------------------------------------------

    def undo(self, state: int, operation: Operation) -> int:
        if operation.name == "deposit":
            return state - operation.args[0]
        if operation.name == "withdraw" and operation.response == "ok":
            return state + operation.args[0]
        return state  # failed withdrawals and balance reads have no effect

    # -- conveniences -------------------------------------------------------------

    def deposit(self, i: int) -> Operation:
        return self.operation(inv("deposit", i), "ok")

    def withdraw_ok(self, i: int) -> Operation:
        return self.operation(inv("withdraw", i), "ok")

    def withdraw_no(self, i: int) -> Operation:
        return self.operation(inv("withdraw", i), "no")

    def balance(self, k: int) -> Operation:
        return self.operation(inv("balance"), k)
