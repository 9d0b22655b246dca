"""Recovery views: update-in-place and deferred-update (paper, Section 5).

Recovery is modeled by a function ``View`` from (history, active
transaction) to an operation sequence — the "serial state" used to
determine the legal responses to the transaction's pending invocation.
A view models recovery from aborts in that the serial state ignores the
operations of aborted transactions.

Two views abstract the two recovery methods in common use:

* **Update-in-place (UIP)** — a single current state is maintained;
  aborting a transaction *undoes* its operations.  Abstractly::

      UIP(H, A) = Opseq(H | (ACT − Aborted(H)))

  — the operations of all non-aborted transactions (committed *and*
  active), in the order in which they executed.  Note that UIP does not
  depend on ``A``: every transaction sees the same current state.

* **Deferred update (DU)** — intentions lists / private workspaces; the
  base state reflects only committed transactions, applied in commit
  order, and a transaction additionally sees its own operations::

      DU(H, A) = Opseq(Serial(H|Committed(H), Commit-order(H))) · Opseq(H|A)

The two differ both in the *order* of committed operations (execution
order vs commit order) and in the *visibility* of other active
transactions' operations (visible under UIP, invisible under DU).  These
subtleties are exactly what make the two methods demand different —
incomparable — notions of commutativity (Sections 6–7).

The recovery managers that maintain these views incrementally (undo
logs, intentions lists) live in :mod:`repro.core.recovery`; the test
suite shows they realize the abstract views.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List

from .events import OpSeq, Operation
from .history import History


class View(ABC):
    """A recovery abstraction: the serial state seen by an active transaction."""

    name: str = "view"

    @abstractmethod
    def __call__(self, history: History, txn: str) -> OpSeq:
        """The operation sequence ``View(H, A)`` (``txn`` must be active in ``history``)."""

    def cursor(self, spec, history: Iterable = ()):
        """The :class:`~repro.core.recovery.RecoveryManager` maintaining this view.

        The manager keeps the macro-state after ``View(H, A)`` under
        event deltas, so the object automaton answers legality/response
        queries in O(1) amortized instead of recomputing the view and
        replaying it through ``spec``.  ``history`` seeds it with an
        existing event sequence.  A view class without an incremental
        manager gets the from-scratch one, same interface.
        """
        from .recovery import cursor_for_view

        return cursor_for_view(self, spec, history)

    def _require_active(self, history: History, txn: str) -> None:
        if not history.is_active(txn):
            raise ValueError(
                "View is defined for active transactions; %r is not active" % txn
            )


class UpdateInPlace(View):
    """``UIP(H, A) = Opseq(H | (ACT − Aborted(H)))`` — Section 5."""

    name = "UIP"

    def __call__(self, history: History, txn: str) -> OpSeq:
        self._require_active(history, txn)
        aborted = history.aborted()
        if not aborted:
            return history.opseq()
        survivors = history.transactions() - aborted
        return history.project_transactions(survivors).opseq()


class DeferredUpdate(View):
    """``DU(H, A) = Opseq(Serial(H|Committed, Commit-order(H))) · Opseq(H|A)``."""

    name = "DU"

    def __call__(self, history: History, txn: str) -> OpSeq:
        self._require_active(history, txn)
        ops: List[Operation] = []
        for committed_txn in history.commit_order():
            ops.extend(history.operations_of(committed_txn))
        ops.extend(history.operations_of(txn))
        return tuple(ops)


class StrictUpdateInPlace(View):
    """A third view, for the paper's Section 5 open question.

    ``SUIP(H, A) = Opseq(H | (Committed(H) ∪ {A}))`` — committed
    operations in *execution* order (like UIP) but with other active
    transactions' effects invisible (like DU).  This is update-in-place
    with strict locking folded into the view: no dirty reads.

    The view-synthesis explorer (:mod:`repro.analysis.view_synthesis`)
    derives the conflicts this view requires and compares them with
    NRBC and NFC — an experimental answer to the paper's question of
    whether other ``View`` functions place weaker constraints on
    concurrency control (they don't here: SUIP needs conflicts from
    *both* sides, because execution order must agree with every
    possible commit order).
    """

    name = "SUIP"

    def __call__(self, history: History, txn: str) -> OpSeq:
        self._require_active(history, txn)
        visible = history.committed() | {txn}
        return history.project_transactions(visible).opseq()


#: Shared stateless instances.
UIP = UpdateInPlace()
DU = DeferredUpdate()
SUIP = StrictUpdateInPlace()
