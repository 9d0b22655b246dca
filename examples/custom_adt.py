"""Bring your own ADT: derive its concurrency control from the spec alone.

Run:  python examples/custom_adt.py

Defines a *seat-reservation* abstract data type from scratch — an ADT
not in the library — and shows the full pipeline a downstream user
follows:

1. write the serial specification (states, preconditions, effects);
2. derive the forward and right-backward commutativity tables
   mechanically (the type is finite-state, so the derivation is exact);
3. package the NFC/NRBC conflict relations;
4. run concurrent booking transactions under both recovery methods and
   audit every run with the abstract dynamic-atomicity checker.

Note the derived asymmetries: a failed booking (``book/taken``) is an
observation, and under update-in-place it conflicts with *earlier*
cancellations but not with later ones — structure invisible to
read/write locking and to invocation-based (result-blind) locking.
"""

import random
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.adts.base import ADT
from repro.analysis.finite import ExactChecker
from repro.analysis.tables import OperationClass
from repro.core.atomicity import is_dynamic_atomic
from repro.core.events import Invocation, Operation, inv
from repro.runtime import ManagedObject, TransactionSystem, run_scripts
from repro.runtime.scheduler import TransactionScript

BOOK_OK = "book(s)/ok"
BOOK_TAKEN = "book(s)/taken"
CANCEL = "cancel(s)/ok"
QUERY_FREE = "query(s)/free"
QUERY_TAKEN = "query(s)/taken"


class SeatMap(ADT):
    """A seat-reservation chart.

    State: the set of taken seats (initially empty).  Operations::

        book(s)   -> ok     if s is free   (takes the seat)
                  -> taken  if s is taken  (no effect)
        cancel(s) -> ok     if s is taken  (frees the seat; partial!)
        query(s)  -> free | taken          (no effect)
    """

    analysis_context_depth = None  # finite-state: exact analysis
    analysis_future_depth = None
    supports_logical_undo = False

    def __init__(self, name: str = "SEATS", seats: Sequence[str] = ("1A", "1B")):
        super().__init__(name)
        self._seats: Tuple[str, ...] = tuple(seats)

    def initial_state(self) -> FrozenSet[str]:
        return frozenset()

    def transitions(self, state: FrozenSet[str], invocation: Invocation):
        if invocation.name == "book":
            (s,) = invocation.args
            if s in self._seats:
                if s in state:
                    yield "taken", state
                else:
                    yield "ok", state | {s}
        elif invocation.name == "cancel":
            (s,) = invocation.args
            if s in self._seats and s in state:
                yield "ok", state - {s}
        elif invocation.name == "query":
            (s,) = invocation.args
            if s in self._seats:
                yield ("taken" if s in state else "free"), state

    # -- analysis hooks -------------------------------------------------------

    def invocation_alphabet(self, domain: Optional[Sequence[str]] = None):
        seats = tuple(domain) if domain is not None else self._seats
        out = []
        for s in seats:
            out += [inv("book", s), inv("cancel", s), inv("query", s)]
        return tuple(out)

    def operation_classes(self, domain: Optional[Sequence[str]] = None):
        seats = tuple(domain) if domain is not None else self._seats
        return (
            OperationClass(BOOK_OK, tuple(self.operation(inv("book", s), "ok") for s in seats)),
            OperationClass(BOOK_TAKEN, tuple(self.operation(inv("book", s), "taken") for s in seats)),
            OperationClass(CANCEL, tuple(self.operation(inv("cancel", s), "ok") for s in seats)),
            OperationClass(QUERY_FREE, tuple(self.operation(inv("query", s), "free") for s in seats)),
            OperationClass(QUERY_TAKEN, tuple(self.operation(inv("query", s), "taken") for s in seats)),
        )

    def classify(self, operation: Operation) -> str:
        if operation.name == "book":
            return BOOK_OK if operation.response == "ok" else BOOK_TAKEN
        if operation.name == "cancel":
            return CANCEL
        if operation.name == "query":
            return QUERY_FREE if operation.response == "free" else QUERY_TAKEN
        raise ValueError("not a seat-map operation: %s" % (operation,))


def main() -> None:
    seats = SeatMap()

    # -- exact mechanical derivation -------------------------------------------
    checker = ExactChecker(seats, seats.invocation_alphabet())
    classes = seats.operation_classes()
    fc = checker.forward_table(classes, title="SeatMap: forward commutativity")
    bc = checker.backward_table(
        classes, title="SeatMap: right backward commutativity"
    )
    print(fc.render_ascii())
    print()
    print(bc.render_ascii())
    print()
    nfc_only = fc.marks - bc.marks
    nrbc_only = bc.marks - fc.marks
    print("NFC-only conflicts :", sorted(nfc_only) or "(none)")
    print("NRBC-only conflicts:", sorted(nrbc_only) or "(none)")
    print()

    # -- run concurrent bookings under both recovery methods ---------------------
    def booking_scripts(rng: random.Random):
        scripts = []
        for i in range(6):
            steps = []
            for _ in range(2):
                kind = rng.choices(
                    ["book", "cancel", "query"], weights=[0.5, 0.2, 0.3]
                )[0]
                steps.append(("SEATS", inv(kind, rng.choice(["1A", "1B"]))))
            scripts.append(TransactionScript("T%d" % i, tuple(steps)))
        return scripts

    for recovery, conflict_name in (("UIP", "nrbc"), ("DU", "nfc")):
        relation = (
            checker.nrbc_relation(seats.ground_alphabet())
            if conflict_name == "nrbc"
            else checker.nfc_relation(seats.ground_alphabet())
        )
        committed = audited = 0
        for seed in range(6):
            adt = SeatMap()
            system = TransactionSystem([ManagedObject(adt, relation, recovery)])
            metrics = run_scripts(
                system, booking_scripts(random.Random(seed)), seed=seed
            )
            committed += metrics.committed
            audited += is_dynamic_atomic(system.history(), adt)
        print(
            "%s + %s: %d commits over 6 seeds, %d/6 histories dynamic atomic"
            % (recovery, relation.name, committed, audited)
        )


if __name__ == "__main__":
    main()
