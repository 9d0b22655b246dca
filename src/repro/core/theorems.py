"""Executable forms of the paper's Theorems 9 and 10 (Section 7).

* **Theorem 9** — ``I(X, Spec, UIP, Conflict)`` is correct iff
  ``NRBC(Spec) ⊆ Conflict``.
* **Theorem 10** — ``I(X, Spec, DU, Conflict)`` is correct iff
  ``NFC(Spec) ⊆ Conflict``.

The "only if" directions are constructive: from any commutativity
violation for a pair ``(P, Q)`` missing from the conflict relation, the
proofs build a concrete history that the automaton permits but that is
not dynamic atomic.  :func:`build_uip_counterexample` and
:func:`build_du_counterexample` perform those constructions literally;
:func:`find_uip_counterexample` / :func:`find_du_counterexample` first
search for the witness (via the bounded commutativity checkers) and then
build and *verify* the history — checking both that the appropriate
automaton accepts it and that the dynamic-atomicity checker rejects it.

The "if" directions are sampled rather than proved:
:func:`sample_correctness` draws randomized traces of the automaton and
checks each for (online) dynamic atomicity, providing high-confidence
executable evidence that a conflict relation containing NRBC (resp. NFC)
is safe for UIP (resp. DU).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .atomicity import (
    DynamicAtomicityViolation,
    find_dynamic_atomicity_violation,
)
from .commutativity import (
    BackwardCommutativityViolation,
    ForwardCommutativityViolation,
    OperationOrSeq,
    as_opseq,
    find_backward_violation,
    find_forward_violation,
)
from .conflict import ConflictRelation
from .events import Invocation, OpSeq, Operation
from .history import History, transaction_events
from .object_automaton import ObjectAutomaton, TransactionProgram, generate_trace
from .serial_spec import SerialSpec
from .views import DU, UIP, View


@dataclass(frozen=True)
class Counterexample:
    """A verified theorem counterexample.

    ``history`` is accepted by ``I(X, Spec, view, conflict)`` (for the
    relevant view and any conflict relation missing ``pair``) yet is not
    dynamic atomic; ``violation`` names a precedes-consistent order in
    which ``permanent(history)`` fails to serialize.
    """

    history: History
    pair: Tuple[OpSeq, OpSeq]
    violation: DynamicAtomicityViolation
    witness: object  # the commutativity violation that seeded the construction

    def __str__(self) -> str:
        p = " ".join(str(o) for o in self.pair[0])
        q = " ".join(str(o) for o in self.pair[1])
        return "counterexample for missing conflict (%s, %s): %s" % (
            p,
            q,
            self.violation,
        )


def _serial_block(txn: str, obj: str, ops: Sequence[Operation]) -> List:
    return transaction_events(txn, obj, ops, do_commit=False)


def build_uip_counterexample(
    spec: SerialSpec,
    witness: BackwardCommutativityViolation,
    txns: Sequence[str] = ("A", "B", "C", "D"),
) -> History:
    """The Theorem 9 "only if" history for an RBC violation of (P, Q).

    With ``α`` the witness context and ``ρ`` its distinguishing future
    (``αQPρ`` legal, ``αPQρ`` illegal)::

        A executes α;  A commits
        B executes Q
        C executes P            (requires (P, Q) ∉ Conflict)
        B commits;  C commits
        D executes ρ;  D commits

    ``B`` and ``C`` are concurrent (neither precedes the other), yet the
    history is not serializable in the precedes-consistent order
    ``A-C-B-D`` because ``αPQρ ∉ Spec``.
    """
    a, b, c, d = txns
    obj = spec.name
    alpha = witness.context
    p = witness.beta
    q = witness.gamma
    rho = witness.future
    events: List = []
    events += transaction_events(a, obj, alpha, do_commit=True)
    events += _serial_block(b, obj, q)
    events += _serial_block(c, obj, p)
    events += transaction_events(b, obj, (), do_commit=True)
    events += transaction_events(c, obj, (), do_commit=True)
    if rho:
        events += transaction_events(d, obj, rho, do_commit=True)
    return History(events)


def find_uip_counterexample(
    spec: SerialSpec,
    p: OperationOrSeq,
    q: OperationOrSeq,
    contexts: Iterable[Sequence[Operation]],
    alphabet: Iterable[Invocation],
    future_depth: int,
    *,
    conflict: Optional[ConflictRelation] = None,
    verify: bool = True,
) -> Optional[Counterexample]:
    """Search for and verify a Theorem 9 counterexample for the pair (p, q).

    Returns None when no RBC violation is found within the bounds (the
    pair appears to right-commute backward, so no counterexample exists).
    When ``conflict`` is supplied, verification also checks the automaton
    ``I(X, Spec, UIP, conflict)`` accepts the history — which requires
    ``conflict`` not to contain the (p, q) pair.
    """
    p = as_opseq(p)
    q = as_opseq(q)
    witness = find_backward_violation(
        spec, p, q, contexts, alphabet, future_depth
    )
    if witness is None:
        return None
    history = build_uip_counterexample(spec, witness)
    violation = find_dynamic_atomicity_violation(history, spec)
    if verify:
        if violation is None:
            raise AssertionError(
                "constructed UIP counterexample is dynamic atomic: %s" % history
            )
        if conflict is not None:
            reason = ObjectAutomaton.explain_rejection(spec, UIP, conflict, history)
            if reason is not None:
                raise AssertionError(
                    "UIP automaton rejected the counterexample: %s" % reason
                )
    return Counterexample(history, (p, q), violation, witness)


def build_du_counterexample(
    spec: SerialSpec,
    witness: ForwardCommutativityViolation,
    txns: Sequence[str] = ("A", "B", "C", "D"),
) -> History:
    """The Theorem 10 "only if" history for an FC violation of (P, Q).

    Two cases, following the proof.  With ``α`` the witness context and
    ``P = witness.beta``, ``Q = witness.gamma`` (``αP`` and ``αQ`` both
    legal):

    * ``αPQ ∉ Spec`` — the history is::

          A executes α;  A commits
          B executes Q
          C executes P          (requires (P, Q) ∉ Conflict)
          B commits;  C commits

      Dynamic atomicity would require serializability in both ``A-B-C``
      (``αQP``) and ``A-C-B`` (``αPQ``); the latter fails.

    * ``αPQ`` and ``αQP`` distinguishable by some future ``ρ`` — WLOG
      one of them followed by ``ρ`` is legal; the two middle
      transactions commit in the *legal* order so that ``D`` can execute
      ``ρ`` under deferred update, and the opposite
      (precedes-consistent) order fails.
    """
    a, b, c, d = txns
    obj = spec.name
    alpha = witness.context
    p = witness.beta
    q = witness.gamma
    events: List = []
    events += transaction_events(a, obj, alpha, do_commit=True)
    # Execution order: Q first (by B), then P (by C) — so that C's response
    # precondition tests the (P, Q) conflict pair, matching Theorem 9's
    # orientation.  FC is symmetric, so the witness covers both orders.
    events += _serial_block(b, obj, q)
    events += _serial_block(c, obj, p)

    if witness.kind == "illegal":
        events += transaction_events(b, obj, (), do_commit=True)
        events += transaction_events(c, obj, (), do_commit=True)
        return History(events)

    # Distinguishable case: commit in the order whose completion by rho is
    # legal.  The looks-like violation says alpha_seq·rho is legal while
    # beta_seq·rho is not, where alpha_seq/beta_seq are alpha+p+q or
    # alpha+q+p in some orientation.
    ll = witness.looks_like_violation
    rho = ll.future
    legal_seq = tuple(ll.alpha)
    pq = tuple(alpha) + tuple(p) + tuple(q)
    qp = tuple(alpha) + tuple(q) + tuple(p)
    if legal_seq == pq:
        first, second = c, b  # commit P's executor first: base state becomes αPQ
    elif legal_seq == qp:
        first, second = b, c
    else:  # pragma: no cover - witness always one of the two
        raise ValueError("witness does not match the (P, Q) pair")
    events += transaction_events(first, obj, (), do_commit=True)
    events += transaction_events(second, obj, (), do_commit=True)
    if rho:
        events += transaction_events(d, obj, rho, do_commit=True)
    return History(events)


def find_du_counterexample(
    spec: SerialSpec,
    p: OperationOrSeq,
    q: OperationOrSeq,
    contexts: Iterable[Sequence[Operation]],
    alphabet: Iterable[Invocation],
    future_depth: int,
    *,
    conflict: Optional[ConflictRelation] = None,
    verify: bool = True,
) -> Optional[Counterexample]:
    """Search for and verify a Theorem 10 counterexample for the pair (p, q)."""
    p = as_opseq(p)
    q = as_opseq(q)
    witness = find_forward_violation(spec, p, q, contexts, alphabet, future_depth)
    if witness is None:
        return None
    history = build_du_counterexample(spec, witness)
    violation = find_dynamic_atomicity_violation(history, spec)
    if verify:
        if violation is None:
            raise AssertionError(
                "constructed DU counterexample is dynamic atomic: %s" % history
            )
        if conflict is not None:
            reason = ObjectAutomaton.explain_rejection(spec, DU, conflict, history)
            if reason is not None:
                raise AssertionError(
                    "DU automaton rejected the counterexample: %s" % reason
                )
    return Counterexample(history, (p, q), violation, witness)


@dataclass(frozen=True)
class SampleReport:
    """Result of sampling the automaton's language for correctness evidence."""

    traces: int
    violations: Tuple[Tuple[History, DynamicAtomicityViolation], ...]

    @property
    def all_dynamic_atomic(self) -> bool:
        return not self.violations


def sample_correctness(
    spec: SerialSpec,
    view: View,
    conflict: ConflictRelation,
    program_factory: Callable[[random.Random], Sequence[TransactionProgram]],
    *,
    samples: int = 50,
    seed: int = 0,
    abort_probability: float = 0.15,
) -> SampleReport:
    """Sample traces of ``I(X, Spec, view, conflict)`` and check dynamic atomicity.

    This is the executable face of the theorems' "if" directions: with
    ``conflict ⊇ NRBC`` (UIP) or ``conflict ⊇ NFC`` (DU) every sampled
    trace must be dynamic atomic, and the report's ``violations`` tuple
    must be empty.  Conversely, under-constrained conflict relations are
    often caught red-handed by sampling alone.
    """
    rng = random.Random(seed)
    violations: List[Tuple[History, DynamicAtomicityViolation]] = []
    for _ in range(samples):
        programs = program_factory(rng)
        history = generate_trace(
            spec,
            view,
            conflict,
            programs,
            rng,
            abort_probability=abort_probability,
        )
        violation = find_dynamic_atomicity_violation(history, spec)
        if violation is not None:
            violations.append((history, violation))
    return SampleReport(samples, tuple(violations))
