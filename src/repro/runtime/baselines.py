"""Baseline conflict relations for the concurrency comparisons.

The theory's headline relations (NFC for deferred update, NRBC for
update-in-place) are compared against the concurrency-control baselines
the literature actually used:

* :func:`read_write_conflict` — **strict two-phase read/write locking**:
  classify each operation as a *reader* (never changes the state) or a
  *writer*, conflict on the classical rw-matrix.  This is the
  single-version model of Eswaran et al. [5] and the setting of
  Hadzilacos's recovery theory [8]; it is correct for either recovery
  method (it contains both NFC and NRBC — verified in tests) but
  maximally pessimistic among the relations here.
* :func:`invocation_conflict` — **invocation-based commutativity
  locking** (prior type-specific work, e.g. [9, 18]): the lock is
  chosen from the operation *name and arguments only*, before the
  result is known, so two invocations conflict if *any* pair of their
  possible ground operations conflicts.  The paper's framework lets the
  lock depend on the *result* (Section 6); this baseline quantifies
  what that generality buys (withdraw/OK vs withdraw/NO stop being
  distinguishable, for example).
* :func:`~repro.core.conflict.symmetric_closure` (from core) —
  **symmetric NRBC**: prior work assumed symmetric conflict relations;
  Theorem 9 shows the asymmetric NRBC suffices for UIP.  EXP-C3
  measures the cost of forcing symmetry.

Reader/writer classification is *mechanical*: an operation class is a
writer iff one of its ground operations changes some reachable state.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from ..adts.base import ADT
from ..core.conflict import ClassifierConflict, ConflictRelation
from ..core.events import Operation


def _mutating_labels(adt: ADT, domain: Optional[Sequence] = None) -> Set[str]:
    """The class labels whose instances can change some reachable state."""
    from ..analysis.alphabet import reachable_macro_contexts

    invocations = adt.invocation_alphabet(domain)
    contexts = reachable_macro_contexts(
        adt,
        invocations,
        max_depth=adt.analysis_context_depth,
        max_states=adt.analysis_max_states,
    )
    states = set()
    for mc in contexts:
        states.update(mc.macro)
    mutating: Set[str] = set()
    for cls in adt.operation_classes(domain):
        for operation in cls.instances:
            for state in states:
                for response, nxt in adt.transitions(state, operation.invocation):
                    if response == operation.response and nxt != state:
                        mutating.add(cls.label)
                        break
                if cls.label in mutating:
                    break
            if cls.label in mutating:
                break
    return mutating


def read_write_conflict(
    adt: ADT, domain: Optional[Sequence] = None
) -> ConflictRelation:
    """Strict 2PL-style read/write conflicts for an ADT.

    Writers conflict with everything (w/w, w/r, r/w); readers commute
    with readers.  Correct with both recovery methods — and the baseline
    every type-specific relation is trying to beat.
    """
    writers = _mutating_labels(adt, domain)
    labels = [cls.label for cls in adt.operation_classes(domain)]
    matrix = set()
    for a in labels:
        for b in labels:
            if a in writers or b in writers:
                matrix.add((a, b))
    return ClassifierConflict(
        adt.classify, matrix, name="2PL-rw(%s)" % adt.name
    )


def invocation_conflict(
    adt: ADT,
    base: ConflictRelation,
    domain: Optional[Sequence] = None,
) -> ConflictRelation:
    """Lift a conflict relation to invocation granularity.

    Two operations conflict iff *some* pair of ground operations sharing
    their invocations conflicts under ``base`` — the information
    available to a lock manager that must choose the lock *before* the
    operation executes (name + arguments, no result).  The result always
    contains ``base``.
    """
    by_invocation: Dict = {}
    for operation in adt.ground_alphabet(domain):
        by_invocation.setdefault(operation.invocation, []).append(operation)

    def conflicts(new: Operation, old: Operation) -> bool:
        new_variants = by_invocation.get(new.invocation, [new])
        old_variants = by_invocation.get(old.invocation, [old])
        return any(
            base.conflicts(a, b) for a in new_variants for b in old_variants
        )

    from ..core.conflict import PredicateConflict

    return PredicateConflict(
        conflicts, name="invocation(%s)" % base.name
    )
