"""Atomicity, serializability and dynamic atomicity (paper, Section 3).

The hierarchy of correctness notions, all made executable here:

* A serial failure-free history is **acceptable** iff at every object
  ``X``, ``Opseq(H|X)`` is legal according to ``Spec(X)``.
* A failure-free history ``H`` is **serializable in the order T** iff
  ``Serial(H, T)`` is acceptable, and **serializable** iff some total
  order works.
* ``H`` is **atomic** iff ``permanent(H) = H|Committed(H)`` is
  serializable — recoverability is formalized by discarding events of
  non-committed transactions.
* ``H`` is **dynamic atomic** iff ``permanent(H)`` is serializable in
  *every* total order consistent with ``precedes(H)`` (Section 3.4) —
  the local atomicity property used as the correctness criterion for
  object implementations (Theorem 2: all objects dynamic atomic ⇒ all
  system histories atomic).
* ``H`` is **online dynamic atomic** iff for every *commit set* ``CS``
  (``Committed(H) ⊆ CS``, ``CS ∩ Aborted(H) = ∅``), ``H|CS`` is
  serializable in every total order consistent with ``precedes(H|CS)``
  (Section 7) — the induction invariant in the proof of Theorem 9.

Serializability asks for *some* total order and dynamic atomicity for
*every* linear extension of ``precedes``; both are answered by one
search (:func:`_search`) over the tree of precedes-respecting
serialization prefixes, carrying one macro-state per object:

* **Prefix pruning** — serial specifications are prefix-closed, so once
  a prefix is illegal at some object every completion is illegal: for
  the ∃-question the subtree is cut, for the ∀-question any completion
  is the counterexample.
* **Configuration memoization** — two prefixes over the same *set* of
  transactions that reach identical per-object macro-states have
  identical futures; each configuration is explored once.  Commuting
  transactions collapse factorially many orders into one configuration,
  which is exactly the history a commutativity-based scheduler emits.

Prefixes are tried in lexicographic order, so the witness returned is
the lexicographically first one — the same order, and the same
:class:`DynamicAtomicityViolation`, that enumerating the linear
extensions one by one would report.  That enumerator lives on as the
oracle ``repro.reference.enumerate_*``; the property suite pins the two
to identical witnesses.  The worst case is still exponential (many
mutually non-commuting concurrent transactions); there is no budget
knob, a check either answers or is still running.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .automaton_spec import StateMachineSpec
from .events import Invocation, Operation
from .history import History, serial_history
from .serial_spec import SerialSpec

SpecsLike = Union[SerialSpec, Mapping[str, SerialSpec], Iterable[SerialSpec]]


def normalize_specs(specs: SpecsLike) -> Dict[str, SerialSpec]:
    """Accept a single spec, a mapping, or an iterable of specs."""
    if isinstance(specs, SerialSpec):
        return {specs.name: specs}
    if isinstance(specs, Mapping):
        return dict(specs)
    return {spec.name: spec for spec in specs}


def is_acceptable(history: History, specs: SpecsLike) -> bool:
    """A serial failure-free history is acceptable iff legal at every object."""
    spec_map = normalize_specs(specs)
    for obj in history.objects():
        spec = spec_map.get(obj)
        if spec is None:
            raise KeyError("no serial specification for object %r" % obj)
        if not spec.is_legal(history.project_objects(obj).opseq()):
            return False
    return True


def serializable_in_order(
    history: History, order: Sequence[str], specs: SpecsLike
) -> bool:
    """``Serial(history, order)`` is acceptable (history must be failure-free)."""
    if not history.failure_free():
        raise ValueError("serializability is defined for failure-free histories")
    return is_acceptable(serial_history(history, order), specs)


# ---------------------------------------------------------------------------
# the order search
# ---------------------------------------------------------------------------


class _ObjectSimulator:
    """Per-object incremental legality: macro-states where the spec is a
    state machine, the whole serialized prefix otherwise."""

    def __init__(self, spec: SerialSpec):
        self.spec = spec
        self._is_macro = isinstance(spec, StateMachineSpec)

    def initial(self):
        if self._is_macro:
            return self.spec.initial_macro_state()
        return ()

    def extend(self, state, ops: Sequence[Operation]):
        """Advance by a transaction's operations; None when illegal."""
        if self._is_macro:
            return self.spec.run_macro(state, ops) or None
        prefix = state + tuple(ops)
        return prefix if self.spec.is_legal(prefix) else None


class _Problem:
    """One failure-free history prepared for :func:`_search`: its
    transactions in sorted order, each one's predecessors under
    ``precedes``, and each one's operations per object."""

    def __init__(
        self,
        history: History,
        specs: SpecsLike,
        precedes: Iterable[Tuple[str, str]] = (),
    ):
        spec_map = normalize_specs(specs)
        self.txns: Tuple[str, ...] = tuple(sorted(history.transactions()))
        before: Dict[str, Set[str]] = {t: set() for t in self.txns}
        for a, b in precedes:
            if a in before and b in before and a != b:
                before[b].add(a)
        self.before = {t: frozenset(s) for t, s in before.items()}
        # One pass, pairing each response with its transaction's pending
        # invocation as ``History.opseq`` does.
        pending: Dict[str, Invocation] = {}
        self.ops_by_txn: Dict[str, Dict[str, List[Operation]]] = {t: {} for t in self.txns}
        for e in history:
            if e.is_invocation:
                pending[e.txn] = e.invocation
            elif e.is_response:
                operation = Operation(e.obj, pending.pop(e.txn), e.response)
                self.ops_by_txn[e.txn].setdefault(e.obj, []).append(operation)
        self.simulators: Dict[str, _ObjectSimulator] = {}
        for obj in sorted({o for per in self.ops_by_txn.values() for o in per}):
            spec = spec_map.get(obj)
            if spec is None:
                raise KeyError("no serial specification for object %r" % obj)
            self.simulators[obj] = _ObjectSimulator(spec)

    def apply(self, states: Dict[str, object], txn: str):
        """States after serializing ``txn`` next, or None if illegal."""
        new_states = dict(states)
        for obj, ops in self.ops_by_txn[txn].items():
            nxt = self.simulators[obj].extend(states[obj], ops)
            if nxt is None:
                return None
            new_states[obj] = nxt
        return new_states

    def complete(self, prefix: Sequence[str]) -> Tuple[str, ...]:
        """The lexicographically first total order consistent with
        ``precedes`` that starts with ``prefix``."""
        order, placed = list(prefix), set(prefix)
        while len(order) < len(self.txns):
            nxt = next(
                t for t in self.txns
                if t not in placed and self.before[t] <= placed
            )
            order.append(nxt)
            placed.add(nxt)
        return tuple(order)


def _search(problem: _Problem, *, every_order: bool) -> Optional[Tuple[str, ...]]:
    """Walk the precedes-respecting serialization prefixes, depth first in
    lexicographic order, visiting each (transaction set, per-object state)
    configuration once.

    ``every_order=False`` (∃): the first total order that is legal at
    every object, or None — an illegal prefix prunes its subtree.
    ``every_order=True`` (∀): the first total order that is *illegal*, or
    None when every linear extension serializes — specs are prefix-closed,
    so the first illegal prefix, completed with the first order that
    continues it, is that witness.

    The walk keeps its own stack of ``(done, states, candidates)``
    frames, one per prefix length, so no history is too long for it.
    """
    txns, before = problem.txns, problem.before
    visited: Set = set()
    prefix: List[str] = []
    stack: List[Tuple[FrozenSet[str], Dict, Iterator[str]]] = []
    done: FrozenSet[str] = frozenset()
    states = {obj: sim.initial() for obj, sim in problem.simulators.items()}
    while True:
        # Enter the configuration (done, states).
        if len(done) == len(txns):
            if not every_order:
                return tuple(prefix)
        else:
            key = (done, tuple(sorted(states.items())))
            if key not in visited:
                visited.add(key)
                stack.append((done, states, iter(txns)))
        # Step to the next child of the deepest frame with one left.
        while stack:
            done, states, candidates = stack[-1]
            del prefix[len(stack) - 1:]
            for txn in candidates:
                if txn in done or not before[txn] <= done:
                    continue
                nxt = problem.apply(states, txn)
                if nxt is None:
                    if every_order:
                        return problem.complete(prefix + [txn])
                    continue
                prefix.append(txn)
                done, states = done | {txn}, nxt
                break
            else:
                stack.pop()
                continue
            break
        else:
            return None


def find_serialization_order(
    history: History, specs: SpecsLike
) -> Optional[Tuple[str, ...]]:
    """Some total order in which the failure-free history serializes, or None."""
    if not history.failure_free():
        raise ValueError("serializability is defined for failure-free histories")
    return _search(_Problem(history, specs), every_order=False)


def is_serializable(history: History, specs: SpecsLike) -> bool:
    """∃ a total order in which the failure-free history serializes."""
    return find_serialization_order(history, specs) is not None


def is_atomic(history: History, specs: SpecsLike) -> bool:
    """``permanent(history)`` is serializable."""
    return is_serializable(history.permanent(), specs)


@dataclass(frozen=True)
class DynamicAtomicityViolation:
    """A total order consistent with ``precedes`` that fails to serialize."""

    order: Tuple[str, ...]
    commit_set: Optional[FrozenSet[str]] = None

    def __str__(self) -> str:
        msg = "not serializable in the precedes-consistent order %s" % (
            "-".join(self.order),
        )
        if self.commit_set is not None:
            msg += " (commit set {%s})" % ", ".join(sorted(self.commit_set))
        return msg


def find_dynamic_atomicity_violation(
    history: History, specs: SpecsLike
) -> Optional[DynamicAtomicityViolation]:
    """A precedes-consistent order in which ``permanent(history)`` fails, or None.

    ``history`` is dynamic atomic iff this returns None: ``permanent(H)``
    must be serializable in *every* total order consistent with
    ``precedes(H)``.
    """
    problem = _Problem(history.permanent(), specs, history.precedes())
    order = _search(problem, every_order=True)
    return None if order is None else DynamicAtomicityViolation(order)


def is_dynamic_atomic(history: History, specs: SpecsLike) -> bool:
    """``permanent(H)`` serializable in every order consistent with ``precedes(H)``."""
    return find_dynamic_atomicity_violation(history, specs) is None


def commit_sets(history: History) -> Iterator[FrozenSet[str]]:
    """All commit sets for ``history``, restricted to transactions appearing in it.

    A commit set contains every committed transaction, no aborted one,
    and any subset of the active transactions (Section 7).  Transactions
    outside the history would contribute no events and are omitted.
    """
    committed = history.committed()
    active = sorted(history.active())
    for r in range(len(active) + 1):
        for extra in combinations(active, r):
            yield committed | frozenset(extra)


def find_online_violation(
    history: History, specs: SpecsLike
) -> Optional[DynamicAtomicityViolation]:
    """A commit set and order witnessing failure of online dynamic atomicity."""
    for cs in commit_sets(history):
        projected = history.project_transactions(cs)
        problem = _Problem(projected, specs, projected.precedes())
        order = _search(problem, every_order=True)
        if order is not None:
            return DynamicAtomicityViolation(order, commit_set=cs)
    return None


def is_online_dynamic_atomic(history: History, specs: SpecsLike) -> bool:
    """``H|CS`` serializable in every precedes-consistent order, for every commit set."""
    return find_online_violation(history, specs) is None
