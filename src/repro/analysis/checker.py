"""The macro-state commutativity engine.

Decides forward and right-backward commutativity for state-machine
specifications by quantifying over *reachable macro-states* instead of
raw contexts: for a :class:`~repro.core.automaton_spec.StateMachineSpec`,
two contexts reaching the same macro-state have exactly the same legal
futures, so they are interchangeable in every commutativity definition.

Inner loop — ``looks like`` between two sequences that share a context:
a breadth-first search over *pairs* of macro-states.  From the pair
``(after-αγβ, after-αβγ)`` every operation extends both sides; a pair
whose left side stays legal while the right side dies yields the
distinguishing future ``ρ``.  Visited-pair pruning makes the search
linear in the number of reachable macro-state pairs, which also makes it
a *decision procedure* (no bound needed) when the specification is
finite-state — see :class:`repro.analysis.finite.ExactChecker`.

With depth bounds (``context_depth`` / ``future_depth``) the engine is a
sound witness search for arbitrary (infinite-state) specifications: every
reported violation is real and machine-checkable; a clean bill of health
means "commutes up to the bounds".  The test suite pins the engine's
output on the paper's bank account to Figures 6-1 and 6-2.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.automaton_spec import StateMachineSpec
from ..core.commutativity import (
    BackwardCommutativityViolation,
    ForwardCommutativityViolation,
    OperationOrSeq,
    as_opseq,
)
from ..core.conflict import PairSetConflict
from ..core.equieffective import LooksLikeViolation
from ..core.events import Invocation, OpSeq, Operation
from .alphabet import MacroContext, reachable_macro_contexts
from .memo import PairMemo
from .tables import ConflictTable, OperationClass, table_from_verdicts

MacroState = FrozenSet


class CommutativityChecker:
    """FC/RBC decisions for one specification over a finite invocation alphabet.

    Parameters
    ----------
    spec:
        The state-machine serial specification.
    invocations:
        The invocation alphabet over which contexts and futures range.
    context_depth, future_depth:
        Depth bounds; ``None`` explores to closure (finite-state specs
        only, guarded by ``max_states``).
    max_states:
        Hard cap on macro-states visited during exploration.
    """

    def __init__(
        self,
        spec: StateMachineSpec,
        invocations: Iterable[Invocation],
        *,
        context_depth: Optional[int] = None,
        future_depth: Optional[int] = None,
        max_states: int = 100_000,
    ):
        self.spec = spec
        self.invocations: Tuple[Invocation, ...] = tuple(invocations)
        self.context_depth = context_depth
        self.future_depth = future_depth
        self.max_states = max_states
        self._contexts: List[MacroContext] = reachable_macro_contexts(
            spec, self.invocations, max_depth=context_depth, max_states=max_states
        )
        # FC is symmetric as a predicate (Lemma 8), but a violation object
        # names (β, γ) asymmetrically — mirror only the clean verdict.
        self._fc_cache: PairMemo = PairMemo(mirror=lambda v: v is None)
        self._rbc_cache: PairMemo = PairMemo()
        # Class-level verdicts are plain booleans; the FC table is fully
        # symmetric, so both verdicts mirror.
        self._fc_class_memo: PairMemo = PairMemo(mirror=True)
        self._rbc_class_memo: PairMemo = PairMemo()

    # -- macro-state helpers ---------------------------------------------------

    @property
    def contexts(self) -> Sequence[MacroContext]:
        """The reachable macro-states with representative contexts."""
        return tuple(self._contexts)

    def _enabled_from(self, macro: MacroState, invocation: Invocation) -> Set:
        responses: Set = set()
        for state in macro:
            for response, _next in self.spec.transitions(state, invocation):
                responses.add(response)
        return responses

    def _macro_looks_like_violation(
        self, a_macro: MacroState, b_macro: MacroState
    ) -> Optional[OpSeq]:
        """A shortest future legal after ``a_macro`` but not after ``b_macro``.

        Returns None when no such future exists (within ``future_depth``
        if bounded).  ``a_macro`` empty means the left sequence is
        illegal, so "looks like" holds vacuously.
        """
        if not a_macro:
            return None
        if not b_macro:
            return ()
        visited: Set[Tuple[MacroState, MacroState]] = {(a_macro, b_macro)}
        queue = deque([(a_macro, b_macro, ())])
        while queue:
            a, b, future = queue.popleft()
            if self.future_depth is not None and len(future) >= self.future_depth:
                continue
            for invocation in self.invocations:
                for response in self._enabled_from(a, invocation):
                    operation = self.spec.operation(invocation, response)
                    a2 = self.spec.step_macro(a, operation)
                    if not a2:
                        continue
                    b2 = self.spec.step_macro(b, operation)
                    future2 = future + (operation,)
                    if not b2:
                        return future2
                    if (a2, b2) not in visited:
                        if len(visited) >= self.max_states:
                            raise RuntimeError(
                                "looks-like search exceeded %d macro-state pairs"
                                % self.max_states
                            )
                        visited.add((a2, b2))
                        queue.append((a2, b2, future2))
        return None

    # -- pairwise decisions -------------------------------------------------------

    def fc_violation(
        self, beta: OperationOrSeq, gamma: OperationOrSeq
    ) -> Optional[ForwardCommutativityViolation]:
        """A forward-commutativity violation for (beta, gamma), or None."""
        beta = as_opseq(beta)
        gamma = as_opseq(gamma)
        return self._fc_cache.lookup(
            beta, gamma, lambda: self._fc_violation_uncached(beta, gamma)
        )

    def _fc_violation_uncached(
        self, beta: OpSeq, gamma: OpSeq
    ) -> Optional[ForwardCommutativityViolation]:
        run = self.spec.run_macro
        for mc in self._contexts:
            m_beta = run(mc.macro, beta)
            if not m_beta:
                continue
            m_gamma = run(mc.macro, gamma)
            if not m_gamma:
                continue
            m_bg = run(m_beta, gamma)
            if not m_bg:
                return ForwardCommutativityViolation(
                    beta, gamma, mc.context, "illegal"
                )
            m_gb = run(m_gamma, beta)
            seq_bg = mc.context + beta + gamma
            seq_gb = mc.context + gamma + beta
            future = self._macro_looks_like_violation(m_bg, m_gb)
            if future is not None:
                return ForwardCommutativityViolation(
                    beta,
                    gamma,
                    mc.context,
                    "distinguishable",
                    LooksLikeViolation(seq_bg, seq_gb, future),
                )
            future = self._macro_looks_like_violation(m_gb, m_bg)
            if future is not None:
                return ForwardCommutativityViolation(
                    beta,
                    gamma,
                    mc.context,
                    "distinguishable",
                    LooksLikeViolation(seq_gb, seq_bg, future),
                )
        return None

    def rbc_violation(
        self, beta: OperationOrSeq, gamma: OperationOrSeq
    ) -> Optional[BackwardCommutativityViolation]:
        """A right-backward-commutativity violation for (beta, gamma), or None.

        ``beta`` right commutes backward with ``gamma`` iff for every
        context ``α``, ``αγβ`` looks like ``αβγ``.
        """
        beta = as_opseq(beta)
        gamma = as_opseq(gamma)
        return self._rbc_cache.lookup(
            beta, gamma, lambda: self._rbc_violation_uncached(beta, gamma)
        )

    def _rbc_violation_uncached(
        self, beta: OpSeq, gamma: OpSeq
    ) -> Optional[BackwardCommutativityViolation]:
        run = self.spec.run_macro
        for mc in self._contexts:
            m_gb = run(mc.macro, gamma + beta)
            if not m_gb:
                continue  # β never runs right after γ here: vacuous
            m_bg = run(mc.macro, beta + gamma)
            future = self._macro_looks_like_violation(m_gb, m_bg)
            if future is not None:
                seq_gb = mc.context + gamma + beta
                seq_bg = mc.context + beta + gamma
                return BackwardCommutativityViolation(
                    beta,
                    gamma,
                    mc.context,
                    LooksLikeViolation(seq_gb, seq_bg, future),
                )
        return None

    def commute_forward(self, beta: OperationOrSeq, gamma: OperationOrSeq) -> bool:
        return self.fc_violation(beta, gamma) is None

    def right_commutes_backward(
        self, beta: OperationOrSeq, gamma: OperationOrSeq
    ) -> bool:
        return self.rbc_violation(beta, gamma) is None

    # -- relations over a finite alphabet ----------------------------------------

    def nfc_pairs(
        self, alphabet: Iterable[Operation]
    ) -> FrozenSet[Tuple[Operation, Operation]]:
        """All non-forward-commuting ground pairs over ``alphabet``."""
        alphabet = tuple(alphabet)
        pairs: Set[Tuple[Operation, Operation]] = set()
        for i, a in enumerate(alphabet):
            for b in alphabet[i:]:
                if self.fc_violation(a, b) is not None:
                    pairs.add((a, b))
                    pairs.add((b, a))
        return frozenset(pairs)

    def nrbc_pairs(
        self, alphabet: Iterable[Operation]
    ) -> FrozenSet[Tuple[Operation, Operation]]:
        """All ground pairs (β, γ) with β not right-commuting backward with γ."""
        alphabet = tuple(alphabet)
        pairs: Set[Tuple[Operation, Operation]] = set()
        for a in alphabet:
            for b in alphabet:
                if self.rbc_violation(a, b) is not None:
                    pairs.add((a, b))
        return frozenset(pairs)

    def nfc_relation(self, alphabet: Iterable[Operation]) -> PairSetConflict:
        """NFC(Spec) over ``alphabet`` packaged as a conflict relation."""
        alphabet = tuple(alphabet)
        return PairSetConflict(
            self.nfc_pairs(alphabet),
            alphabet=alphabet,
            name="NFC(%s)" % self.spec.name,
        )

    def nrbc_relation(self, alphabet: Iterable[Operation]) -> PairSetConflict:
        """NRBC(Spec) over ``alphabet`` packaged as a conflict relation."""
        alphabet = tuple(alphabet)
        return PairSetConflict(
            self.nrbc_pairs(alphabet),
            alphabet=alphabet,
            name="NRBC(%s)" % self.spec.name,
        )

    # -- class-level tables ----------------------------------------------------

    def forward_table(
        self, classes: Sequence[OperationClass], title: str = None
    ) -> ConflictTable:
        """The Figure 6-1-style table: ``x`` iff some instances fail to commute forward."""
        title = title or "Forward Commutativity Relation for %s" % self.spec.name
        return table_from_verdicts(
            title,
            classes,
            lambda row, col: self._class_violates(row, col, forward=True),
            memo=self._fc_class_memo,
        )

    def backward_table(
        self, classes: Sequence[OperationClass], title: str = None
    ) -> ConflictTable:
        """The Figure 6-2-style table: ``x`` iff some row instance does not
        right commute backward with some column instance."""
        title = title or (
            "Right Backward Commutativity Relation for %s" % self.spec.name
        )
        return table_from_verdicts(
            title,
            classes,
            lambda row, col: self._class_violates(row, col, forward=False),
            memo=self._rbc_class_memo,
        )

    def _class_violates(
        self, row: OperationClass, col: OperationClass, *, forward: bool
    ) -> bool:
        for a in row.instances:
            for b in col.instances:
                if forward:
                    if self.fc_violation(a, b) is not None:
                        return True
                else:
                    if self.rbc_violation(a, b) is not None:
                        return True
        return False
