"""View synthesis: derive the conflicts an arbitrary recovery view requires.

The paper characterizes the conflict relations that work with the two
standard views — NRBC for update-in-place, NFC for deferred update —
and leaves open (Section 5) whether *other* ``View`` functions place
weaker constraints on concurrency control.  This module attacks the
question experimentally for any view:

For an ordered operation pair ``(P, Q)``, decide whether the object
automaton ``I(X, Spec, View, Conflict)`` can produce a
non-dynamic-atomic history when ``Conflict`` permits ``P`` to respond
while another active transaction holds ``Q``.  The probe family
generalizes the constructions in the proofs of Theorems 9 and 10:

    A executes a context α and commits
    B executes Q              (response validated against View)
    C executes P              (the probed concurrency: (P, Q) allowed)
    ... then every completion in {B,C commit in either order,
        B aborts then C commits, C aborts then B commits},
    optionally followed by a probe transaction D executing a bounded
    legal continuation ρ.

Every generated history is, by construction, a schedule of
``I(X, Spec, View, ∅ ∪ {(P,Q) allowed})``; if any is not dynamic
atomic, the pair ``(P, Q)`` **must** conflict under this view
(soundness: the history is a concrete counterexample).  The family is
*complete* for UIP and DU — it contains the paper's proof histories, so
the synthesized relations provably equal NRBC and NFC there (and the
tests pin this).  For novel views the result is a verified lower bound
on the required conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from ..core.atomicity import find_dynamic_atomicity_violation
from ..core.conflict import PairSetConflict
from ..core.events import Invocation, OpSeq, Operation
from ..core.history import History, transaction_events
from ..core.object_automaton import ObjectAutomaton
from ..core.serial_spec import SerialSpec
from ..core.views import View
from .alphabet import MacroContext


@dataclass(frozen=True)
class RequiredConflict:
    """Evidence that (P, Q) must conflict under the probed view."""

    pair: Tuple[Operation, Operation]
    history: History
    failing_order: Tuple[str, ...]

    def __str__(self) -> str:
        return "(%s, %s) required: order %s fails" % (
            self.pair[0],
            self.pair[1],
            "-".join(self.failing_order),
        )


#: The completion patterns, as (first_finisher, first_action, second_action).
_COMPLETIONS = (
    ("B", "commit", "commit"),
    ("C", "commit", "commit"),
    ("B", "abort", "commit"),
    ("C", "abort", "commit"),
)


class ViewSynthesizer:
    """Derive required conflicts for an arbitrary view over a finite alphabet."""

    def __init__(
        self,
        spec: SerialSpec,
        view: View,
        invocations: Iterable[Invocation],
        contexts: Sequence[MacroContext],
        *,
        rho_depth: int = 2,
    ):
        self.spec = spec
        self.view = view
        self.invocations = tuple(invocations)
        self.contexts = tuple(contexts)
        self.rho_depth = rho_depth

    # -- probing one pair ----------------------------------------------------------

    def probe_pair(
        self, p: Operation, q: Operation
    ) -> Optional[RequiredConflict]:
        """A verified counterexample for allowing (P, Q), or None."""
        for mc in self.contexts:
            alpha = mc.context
            for finisher, first_action, second_action in _COMPLETIONS:
                witness = self._probe(alpha, p, q, finisher, first_action, second_action)
                if witness is not None:
                    return witness
        return None

    def _probe(
        self,
        alpha: OpSeq,
        p: Operation,
        q: Operation,
        finisher: str,
        first_action: str,
        second_action: str,
    ) -> Optional[RequiredConflict]:
        base = self._base_history(alpha, p, q, finisher, first_action, second_action)
        if base is None:
            return None
        automaton, survivors = base
        # Check the completion without a probe transaction first.
        witness = self._check(automaton.history, (p, q))
        if witness is not None:
            return witness
        # Then extend with bounded probe continuations by D.
        return self._probe_with_d(automaton, (p, q), (), self.rho_depth)

    def _base_history(
        self,
        alpha: OpSeq,
        p: Operation,
        q: Operation,
        finisher: str,
        first_action: str,
        second_action: str,
    ):
        """Drive the automaton through the skeleton; None if infeasible.

        Feasibility is determined by the *view*: B's and C's responses
        must be enabled (conflicts are moot — the probe grants (P, Q)
        and B and C execute nothing else concurrently).
        """
        from ..core.conflict import EmptyConflict

        automaton = ObjectAutomaton(self.spec, self.view, EmptyConflict())
        for event in transaction_events("A", self.spec.name, alpha, do_commit=True):
            automaton.step(event)
        # B executes Q.
        automaton.invoke("B", q.invocation)
        if q.response not in automaton.enabled_responses("B"):
            return None
        automaton.respond("B", q.response)
        # C executes P while B is active — the probed pair.
        automaton.invoke("C", p.invocation)
        if p.response not in automaton.enabled_responses("C"):
            return None
        automaton.respond("C", p.response)
        first, second = ("B", "C") if finisher == "B" else ("C", "B")
        if first_action == "commit":
            automaton.commit(first)
        else:
            automaton.abort(first)
        if second_action == "commit":
            automaton.commit(second)
        else:  # pragma: no cover - completions always commit the second
            automaton.abort(second)
        return automaton, (first, second)

    def _probe_with_d(
        self,
        automaton: ObjectAutomaton,
        pair: Tuple[Operation, Operation],
        rho: OpSeq,
        budget: int,
    ) -> Optional[RequiredConflict]:
        """DFS over D's legal continuations, checking DA at each step."""
        if budget <= 0:
            return None
        for invocation in self.invocations:
            probe = automaton.clone()
            probe.invoke("D", invocation)
            for response in sorted(probe.enabled_responses("D"), key=repr):
                extended = automaton.clone()
                extended.invoke("D", invocation)
                extended.respond("D", response)
                closed = extended.clone()
                closed.commit("D")
                witness = self._check(closed.history, pair)
                if witness is not None:
                    return witness
                witness = self._probe_with_d(
                    extended,
                    pair,
                    rho + (self.spec.operation(invocation, response),),
                    budget - 1,
                )
                if witness is not None:
                    return witness
        return None

    def _check(
        self, history: History, pair: Tuple[Operation, Operation]
    ) -> Optional[RequiredConflict]:
        violation = find_dynamic_atomicity_violation(history, self.spec)
        if violation is None:
            return None
        return RequiredConflict(pair, history, violation.order)

    # -- full relations ---------------------------------------------------------------

    def required_pairs(
        self, alphabet: Iterable[Operation]
    ) -> Dict[Tuple[Operation, Operation], RequiredConflict]:
        """Probe every ordered pair over ``alphabet``; map pair -> evidence."""
        alphabet = tuple(alphabet)
        found: Dict[Tuple[Operation, Operation], RequiredConflict] = {}
        for p, q in product(alphabet, repeat=2):
            witness = self.probe_pair(p, q)
            if witness is not None:
                found[(p, q)] = witness
        return found

    def required_relation(self, alphabet: Iterable[Operation]) -> PairSetConflict:
        """The synthesized conflict relation (a verified lower bound)."""
        alphabet = tuple(alphabet)
        pairs = self.required_pairs(alphabet)
        return PairSetConflict(
            pairs.keys(),
            alphabet=alphabet,
            name="required(%s, %s)" % (self.view.name, self.spec.name),
        )
