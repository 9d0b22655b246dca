"""Base class for the library's transactional abstract data types.

Each ADT is a :class:`~repro.core.automaton_spec.StateMachineSpec` (the
paper's serial-specification style: states, preconditions, effects)
extended with the hooks the analysis layer and the runtime need:

* a finite *invocation alphabet* and *operation classes* over a bounded
  argument domain — the rows/columns of Figure-style conflict tables and
  the ground alphabet for NFC/NRBC derivation;
* an operation *classifier* mapping any ground operation to its class
  label, used by class-level (lock-manager-style) conflict relations;
* ``apply`` — deterministic state transition used by the concrete
  runtime to materialize object state;
* optional *logical undo* (``undo``) for update-in-place recovery.
  Logical undo is only sound when the ADT's NRBC conflicts serialize the
  updates it cannot compensate under concurrency (e.g. delta arithmetic
  is always compensable; idempotent writes are not); ADTs advertise
  soundness via ``supports_logical_undo``, and the update-in-place
  recovery manager falls back to replay-based undo otherwise;
* analytic NFC/NRBC conflict relations (``nfc_conflict`` /
  ``nrbc_conflict``), hand-derived per ADT exactly as the paper derives
  Figures 6-1 and 6-2 and cross-checked against the mechanical checker
  in the test suite.  ADTs without a hand derivation inherit a
  mechanically-derived relation over the default domain.

The module imports nothing from :mod:`repro.analysis` until
:meth:`ADT.build_checker` is called.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from ..core.automaton_spec import State, StateMachineSpec
from ..core.conflict import ClassifierConflict, ConflictRelation
from ..core.events import Invocation, Operation


def first_argument(operation: Operation) -> Hashable:
    """The component a keyed ADT's operation touches (a key-value
    store's key, a set's element): the ``key`` of its conflict tables."""
    return operation.args[0]


class UndoNotSupported(NotImplementedError):
    """The ADT does not provide sound logical undo; use replay-based recovery."""


class ADT(StateMachineSpec):
    """A transactional abstract data type: spec + analysis + runtime hooks."""

    #: Bounds used when conflict relations are derived mechanically; ADTs
    #: with unboundedly many states must set a context depth.
    analysis_context_depth: Optional[int] = None
    analysis_future_depth: Optional[int] = None
    analysis_max_states: int = 100_000

    #: Whether :meth:`undo` is sound under the ADT's own NRBC conflicts.
    supports_logical_undo: bool = False

    def __init__(self, name: str):
        super().__init__(name)
        self._derived_cache: Dict[Tuple[str, Tuple], ConflictRelation] = {}

    # -- specification ----------------------------------------------------------

    def initial_state(self) -> State:
        """The (single) initial state; override for nondeterministic starts."""
        raise NotImplementedError

    def initial_states(self) -> Iterable[State]:
        return (self.initial_state(),)

    # -- bounded-domain analysis hooks -------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Invocation, ...]:
        """All invocations over the (bounded) argument domain."""
        raise NotImplementedError

    def readonly_invocations(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Invocation, ...]:
        """The pure observer invocations: those that never change the
        abstract state from any reachable state (e.g. ``read``,
        ``balance``, ``member``).  The multiversion snapshot path serves
        exactly these without locks; ADTs whose every invocation mutates
        (queues, stacks) keep the empty default and opt out of
        ``read_mix`` workloads.
        """
        return ()

    def operation_classes(
        self, domain: Optional[Sequence[Hashable]] = None
    ):
        """The operation classes (Figure rows/columns) over the domain.

        Returns a tuple of :class:`repro.core.conflict.OperationClass`.
        """
        raise NotImplementedError

    def classify(self, operation: Operation) -> str:
        """The class label of a ground operation (total on this ADT's operations)."""
        raise NotImplementedError

    def ground_alphabet(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Operation, ...]:
        """Every ground operation of every class over the domain."""
        ops = []
        for cls in self.operation_classes(domain):
            ops.extend(cls.instances)
        return tuple(ops)

    def build_checker(
        self,
        domain: Optional[Sequence[Hashable]] = None,
        *,
        context_depth: Optional[int] = "default",
        future_depth: Optional[int] = "default",
        max_states: Optional[int] = None,
    ):
        """A :class:`~repro.analysis.checker.CommutativityChecker` for this ADT."""
        from ..analysis.checker import CommutativityChecker

        if context_depth == "default":
            context_depth = self.analysis_context_depth
        if future_depth == "default":
            future_depth = self.analysis_future_depth
        return CommutativityChecker(
            self,
            self.invocation_alphabet(domain),
            context_depth=context_depth,
            future_depth=future_depth,
            max_states=max_states or self.analysis_max_states,
        )

    # -- conflict relations -------------------------------------------------------

    def nfc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        """NFC(Spec): the conflicts deferred-update recovery requires (Thm 10).

        The default derives the relation mechanically over the bounded
        domain and lifts it to operation classes; ADTs with hand-derived
        matrices override this.
        """
        return self._derived_class_conflict("nfc", domain)

    def nrbc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        """NRBC(Spec): the conflicts update-in-place recovery requires (Thm 9)."""
        return self._derived_class_conflict("nrbc", domain)

    def class_conflict(
        self, matrix: Iterable[Tuple[str, str]], name: str
    ) -> ClassifierConflict:
        """Package a class-level conflict matrix with this ADT's classifier."""
        return ClassifierConflict(self.classify, matrix, name=name)

    def _derived_class_conflict(
        self, relation: str, domain: Optional[Sequence[Hashable]]
    ) -> ConflictRelation:
        key = (relation, tuple(domain) if domain is not None else None)
        cached = self._derived_cache.get(key)
        if cached is not None:
            return cached
        checker = self.build_checker(domain)
        classes = self.operation_classes(domain)
        if relation == "nfc":
            table = checker.forward_table(classes)
        else:
            table = checker.backward_table(classes)
        conflict = self.class_conflict(
            table.marks, name="%s(%s) derived" % (relation.upper(), self.name)
        )
        self._derived_cache[key] = conflict
        return conflict

    # -- runtime hooks -------------------------------------------------------------

    def apply(self, state: State, operation: Operation) -> State:
        """The unique next state for ``operation`` from ``state``.

        Raises ``ValueError`` if the operation is not enabled or the
        transition is ambiguous (nondeterministic ADTs with several next
        states for one response must override).
        """
        matches = [
            nxt
            for response, nxt in self.transitions(state, operation.invocation)
            if response == operation.response
        ]
        if not matches:
            raise ValueError(
                "operation %s not enabled in state %r" % (operation, state)
            )
        if len(set(map(self._state_key, matches))) > 1:
            raise ValueError(
                "ambiguous transition for %s in state %r" % (operation, state)
            )
        return matches[0]

    @staticmethod
    def _state_key(state: State) -> Hashable:
        return state

    def undo(self, state: State, operation: Operation) -> State:
        """Logically undo ``operation`` against the *current* state.

        Only meaningful when ``supports_logical_undo`` is True: the
        inverse must commute with every concurrent operation the ADT's
        NRBC conflict relation admits (delta arithmetic, multiset
        add/remove, ...).
        """
        raise UndoNotSupported(
            "%s does not support logical undo" % type(self).__name__
        )
