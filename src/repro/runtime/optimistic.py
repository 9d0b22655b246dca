"""Optimistic concurrency control: validate at commit instead of blocking.

The paper (Section 3.4) notes that dynamic atomicity characterizes both
locking protocols, which "delay or refuse conflicting operations", and
optimistic protocols [Kung–Robinson], which "allow conflicts to occur,
but abort conflicting transactions when they try to commit".  Both
enforce the same ``Conflict`` over the same ``View``; they differ in
*when*.  :class:`OptimisticObject` is therefore one more
:class:`~repro.runtime.system.ManagedObject` (deferred-update recovery:
private workspaces touch nothing shared until commit) in the ordinary
transaction system under the ordinary scheduler, whose enforcement is a
two-phase-commit vote instead of a lock wait:

* **execute** never blocks, and notes where the validation log stood
  when the transaction started;
* **prepare** is *backward validation*: vote no when an operation the
  transaction executed conflicts with one committed by another since it
  started (first-committer-wins).  The system then aborts it everywhere
  and the scheduler restarts it with reason ``"validation"``;
* **commit** appends the transaction's operations to the log.

With ``Conflict ⊇ NFC`` the protocol is dynamic atomic (tested against
the abstract checker) — the containment Theorem 10 demands of the
locking scheduler, reached by aborting instead of waiting.  EXP-C6
compares the two disciplines on the one instrument.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..adts.base import ADT
from ..core.conflict import ConflictRelation, EmptyConflict
from ..core.events import Invocation, Operation
from .system import ManagedObject, OperationOutcome


class OptimisticObject(ManagedObject):
    """One object under optimistic (commit-time-validated) control."""

    def __init__(self, adt: ADT, conflict: ConflictRelation):
        # The automaton runs under the empty relation, so no execution
        # ever blocks; ``conflict`` is the relation checked at prepare.
        super().__init__(adt, EmptyConflict(), "DU")
        self.conflict = conflict
        #: every operation committed here, in commit order.
        self._validation_log: List[Operation] = []
        #: txn -> length of the log when it first executed here; what it
        #: must validate against is the log from that point on.
        self._started: Dict[str, int] = {}
        self.validation_failures = 0

    def try_operation(
        self,
        txn: str,
        invocation: Invocation,
        rng: Optional[random.Random] = None,
        *,
        extra_blockers=None,
    ) -> OperationOutcome:
        self._started.setdefault(txn, len(self._validation_log))
        return super().try_operation(
            txn, invocation, rng, extra_blockers=extra_blockers
        )

    def prepare(self, txn: str) -> bool:
        """The base vote (no pending invocation) *and* backward validation."""
        if not super().prepare(txn):
            return False
        since = self._validation_log[self._started[txn]:]
        conflicts = self.conflict.conflicts
        for mine in self.recovery.executed_of(txn):
            if any(conflicts(mine, theirs) for theirs in since):
                self.validation_failures += 1
                return False
        return True

    def complete_commit(self, txn: str) -> None:
        self._validation_log.extend(self.recovery.executed_of(txn))
        del self._started[txn]
        super().complete_commit(txn)

    def abort(self, txn: str) -> None:
        self._started.pop(txn, None)
        super().abort(txn)
