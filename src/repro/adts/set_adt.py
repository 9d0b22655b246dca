"""A set with idempotent insert/delete and a membership test.

State: a finite subset of a fixed element domain, initially empty.
Operations (per element ``x``)::

    S:[insert(x), ok]    — effect s' = s ∪ {x}   (idempotent, total)
    S:[delete(x), ok]    — effect s' = s − {x}   (idempotent, total)
    S:[member(x), true]  — precondition x ∈ s; no effect
    S:[member(x), false] — precondition x ∉ s; no effect

Operations on *different* elements always commute (in both senses); the
analysis below is per-element.  Hand derivation:

Forward commutativity — non-commuting (symmetric) pairs:

* ``insert``/``delete`` — final states differ (x present vs absent);
* ``insert``/``member-false`` — after the insert the membership test can
  no longer answer false (``α·ins·mf ∉ Spec``);
* ``delete``/``member-true`` — symmetric to the previous;
* everything else commutes: ``insert``/``insert`` and
  ``delete``/``delete`` are idempotent; ``insert``/``member-true``
  requires ``x ∈ s`` for both to be enabled, and then the insert is a
  no-op; ``member-true``/``member-false`` are never enabled together
  (vacuous).

Right backward commutativity — ``(row β, col γ)`` marked when β cannot
be pushed before γ:

* ``(insert, member-false)`` — ``α·mf·ins`` legal needs ``x ∉ s``;
  pushed back, ``α·ins·mf`` is illegal.  But ``(member-false, insert)``
  is *unmarked*: ``α·ins·mf`` is never legal, so the condition is
  vacuous;
* ``(member-true, insert)`` — ``α·ins·mt`` is always legal; pushed
  back, ``mt`` needs ``x ∈ s`` *before* the insert — may fail.  But
  ``(insert, member-true)`` is unmarked;
* ``(delete, member-true)`` marked / ``(member-true, delete)`` vacuous;
* ``(member-false, delete)`` marked / ``(delete, member-false)``
  commutes (both orders legal with equal final states);
* ``(insert, delete)`` and ``(delete, insert)`` — final states differ —
  both marked.

NFC and NRBC are again incomparable: ``(member-false, insert)`` and
``(member-true, delete)`` are NFC-only; ``(member-true, insert)`` and
``(member-false, delete)`` are NRBC-only.  Observation: under
update-in-place a membership *observation* conflicts with a *later*
conflicting update, while under deferred update the conflict is
symmetric — a concrete instance of the paper's claim that the recovery
method reshapes, not merely rescales, the conflict relation.

Logical undo is unsound (idempotent updates lose the pre-state, and
NRBC admits concurrent inserts of the same element), so the
update-in-place runtime uses replay-based undo for sets.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Optional, Sequence, Tuple

from ..core.conflict import ClassifierConflict, ConflictRelation, OperationClass
from ..core.events import Invocation, Operation, inv
from .base import ADT, first_argument

INSERT = "insert(x)/ok"
DELETE = "delete(x)/ok"
MEMBER_TRUE = "member(x)/true"
MEMBER_FALSE = "member(x)/false"

#: Non-forward-commuting pairs (symmetric), same element.
SET_NFC_MARKS: Tuple[Tuple[str, str], ...] = (
    (INSERT, DELETE),
    (DELETE, INSERT),
    (INSERT, MEMBER_FALSE),
    (MEMBER_FALSE, INSERT),
    (DELETE, MEMBER_TRUE),
    (MEMBER_TRUE, DELETE),
)

#: (β, γ): β does not right commute backward with γ, same element.
SET_NRBC_MARKS: Tuple[Tuple[str, str], ...] = (
    (INSERT, DELETE),
    (DELETE, INSERT),
    (INSERT, MEMBER_FALSE),
    (MEMBER_TRUE, INSERT),
    (DELETE, MEMBER_TRUE),
    (MEMBER_FALSE, DELETE),
)


class SetADT(ADT):
    """A set over a finite element domain with insert/delete/member."""

    # Finite-state: exact analysis, no bounds needed.
    analysis_context_depth = None
    analysis_future_depth = None
    supports_logical_undo = False

    def __init__(self, name: str = "SET", domain: Sequence[Hashable] = ("a", "b")):
        super().__init__(name)
        self._domain: Tuple[Hashable, ...] = tuple(domain)

    # -- specification -------------------------------------------------------------

    def initial_state(self) -> FrozenSet[Hashable]:
        return frozenset()

    def transitions(self, state: FrozenSet[Hashable], invocation: Invocation):
        if invocation.name == "insert" and len(invocation.args) == 1:
            (x,) = invocation.args
            if x in self._domain:
                yield "ok", state | {x}
        elif invocation.name == "delete" and len(invocation.args) == 1:
            (x,) = invocation.args
            if x in self._domain:
                yield "ok", state - {x}
        elif invocation.name == "member" and len(invocation.args) == 1:
            (x,) = invocation.args
            if x in self._domain:
                yield (x in state), state

    # -- analysis hooks ---------------------------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Invocation, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        invocations = []
        for x in domain:
            invocations.append(inv("insert", x))
            invocations.append(inv("delete", x))
            invocations.append(inv("member", x))
        return tuple(invocations)

    def readonly_invocations(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Invocation, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return tuple(inv("member", x) for x in domain)

    def operation_classes(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[OperationClass, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return (
            OperationClass(
                INSERT,
                tuple(self.operation(inv("insert", x), "ok") for x in domain),
            ),
            OperationClass(
                DELETE,
                tuple(self.operation(inv("delete", x), "ok") for x in domain),
            ),
            OperationClass(
                MEMBER_TRUE,
                tuple(self.operation(inv("member", x), True) for x in domain),
            ),
            OperationClass(
                MEMBER_FALSE,
                tuple(self.operation(inv("member", x), False) for x in domain),
            ),
        )

    def classify(self, operation: Operation) -> str:
        if operation.name == "insert":
            return INSERT
        if operation.name == "delete":
            return DELETE
        if operation.name == "member":
            return MEMBER_TRUE if operation.response else MEMBER_FALSE
        raise ValueError("not a set operation: %s" % (operation,))

    # -- analytic conflict relations ------------------------------------------------------

    def nfc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        """NFC(SET): the class matrix, keyed by element."""
        return self._keyed(SET_NFC_MARKS, "NFC(SET)")

    def nrbc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        """NRBC(SET): the class matrix, keyed by element."""
        return self._keyed(SET_NRBC_MARKS, "NRBC(SET)")

    def _keyed(self, marks, name: str) -> ConflictRelation:
        return ClassifierConflict(self.classify, marks, key=first_argument, name=name)

    # -- conveniences ------------------------------------------------------------------------

    def insert(self, x: Hashable) -> Operation:
        return self.operation(inv("insert", x), "ok")

    def delete(self, x: Hashable) -> Operation:
        return self.operation(inv("delete", x), "ok")

    def member_true(self, x: Hashable) -> Operation:
        return self.operation(inv("member", x), True)

    def member_false(self, x: Hashable) -> Operation:
        return self.operation(inv("member", x), False)
