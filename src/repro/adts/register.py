"""A read/write register: the classical single-version read/write model.

State: a value from a finite domain (initially a designated default).
Operations::

    R:[write(v), ok]  — effect s' = v
    R:[read, v]       — precondition s = v; no effect

Commutativity degenerates to classical read/write conflict analysis:

* ``read``/``read`` commutes in both senses;
* ``write``/``write``, ``write``/``read`` and ``read``/``write`` all
  fail in both senses (a write changes both the value later reads must
  return and the state later futures observe).

So ``NFC(Register) = NRBC(Register)`` = the classical read/write
conflict matrix.  This recovers the setting analyzed by Hadzilacos
(paper, Section 1): for single-version read/write databases the choice
between update-in-place and deferred update does *not* affect the
required conflicts — which is exactly why the distinction went largely
unnoticed before typed operations entered the picture.

The register is genuinely finite-state, so the exact checker
(:class:`repro.analysis.finite.ExactChecker`) decides its relations with
no bounds.

Logical undo: writes are not compensable in general (old value is
overwritten), but since NRBC forces write-write conflicts, no two active
transactions ever hold concurrent writes — recording the overwritten
value at execution time and restoring it on abort is sound.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Tuple

from ..core.conflict import ConflictRelation, OperationClass
from ..core.events import Invocation, Operation, inv
from .base import ADT

WRITE = "write(v)/ok"
READ = "read/v"

REGISTER_MARKS: Tuple[Tuple[str, str], ...] = (
    (WRITE, WRITE),
    (WRITE, READ),
    (READ, WRITE),
)


class Register(ADT):
    """A single-value register over a finite value domain."""

    # Finite-state: exact analysis needs no bounds.
    analysis_context_depth = None
    analysis_future_depth = None
    supports_logical_undo = False  # undo handled via write-write exclusion + replay

    def __init__(
        self,
        name: str = "REG",
        domain: Sequence[Hashable] = ("a", "b"),
        initial: Hashable = "a",
    ):
        super().__init__(name)
        self._domain: Tuple[Hashable, ...] = tuple(domain)
        if initial not in self._domain:
            raise ValueError("initial value must be in the domain")
        self._initial = initial

    # -- specification ----------------------------------------------------------

    def initial_state(self) -> Hashable:
        return self._initial

    def transitions(self, state: Hashable, invocation: Invocation):
        if invocation.name == "write" and len(invocation.args) == 1:
            (v,) = invocation.args
            if v in self._domain:
                yield "ok", v
        elif invocation.name == "read" and not invocation.args:
            yield state, state

    # -- analysis hooks ------------------------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Invocation, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return tuple([inv("read")] + [inv("write", v) for v in domain])

    def readonly_invocations(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Invocation, ...]:
        return (inv("read"),)

    def operation_classes(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[OperationClass, ...]:
        domain = tuple(domain) if domain is not None else self._domain
        return (
            OperationClass(
                WRITE,
                tuple(self.operation(inv("write", v), "ok") for v in domain),
            ),
            OperationClass(
                READ,
                tuple(self.operation(inv("read"), v) for v in domain),
            ),
        )

    def classify(self, operation: Operation) -> str:
        if operation.name == "write":
            return WRITE
        if operation.name == "read":
            return READ
        raise ValueError("not a register operation: %s" % (operation,))

    # -- analytic conflict relations ---------------------------------------------------

    def nfc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        return self.class_conflict(REGISTER_MARKS, name="NFC(REG)")

    def nrbc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        return self.class_conflict(REGISTER_MARKS, name="NRBC(REG)")

    # -- conveniences -------------------------------------------------------------------

    def write(self, v: Hashable) -> Operation:
        return self.operation(inv("write", v), "ok")

    def read(self, v: Hashable) -> Operation:
        return self.operation(inv("read"), v)
