"""State-machine serial specifications (the paper's I/O-automaton style).

The paper describes serial specifications by I/O automata whose actions
are the operations of the object (Section 3.2): a state set with initial
states, and for each operation a precondition and an effect.  A sequence
of operations is *legal* iff it is a schedule of the automaton, i.e. some
run exists.

:class:`StateMachineSpec` realizes this: a specification is given by

* a set of initial states (usually one), and
* a transition generator ``transitions(state, invocation)`` yielding
  ``(response, next_state)`` pairs — the operations
  ``[invocation, response]`` enabled in ``state`` together with their
  effects.

Operations may be **partial** (no pair yielded) and **non-deterministic**
(several pairs yielded, or several initial states); legality is decided
by simulating the *set* of reachable states, exactly as for a
nondeterministic finite automaton.  States must be hashable.

The class also exposes the machinery the analysis layer needs:
``states_after`` (the macro-state a sequence reaches) and
``enabled_operations`` (the one-step futures of a macro-state, given an
invocation alphabet).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import (
    Callable,
    FrozenSet,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .events import Invocation, Operation
from .serial_spec import SerialSpec

State = Hashable
TransitionFn = Callable[[State, Invocation], Iterable[Tuple[Hashable, State]]]


class StateMachineSpec(SerialSpec):
    """A serial specification defined by a (possibly nondeterministic) state machine.

    Subclasses override :meth:`initial_states` and :meth:`transitions`;
    alternatively, :class:`FunctionalSpec` wraps plain functions.

    The spec's language is automatically prefix-closed: a sequence is
    legal iff a run exists, and runs restrict to prefixes.
    """

    # -- to be provided by subclasses ------------------------------------------

    @abstractmethod
    def initial_states(self) -> Iterable[State]:
        """The initial states (non-empty; one state for deterministic types)."""

    @abstractmethod
    def transitions(
        self, state: State, invocation: Invocation
    ) -> Iterable[Tuple[Hashable, State]]:
        """``(response, next_state)`` pairs enabled in ``state`` for ``invocation``."""

    # -- language membership via subset simulation ------------------------------

    def states_after(self, opseq: Sequence[Operation]) -> FrozenSet[State]:
        """The macro-state: every state some run reaches via ``opseq``.

        Empty iff ``opseq`` is not legal.
        """
        current: Set[State] = set(self.initial_states())
        for o in opseq:
            if not current:
                return frozenset()
            nxt: Set[State] = set()
            for s in current:
                for response, s2 in self.transitions(s, o.invocation):
                    if response == o.response:
                        nxt.add(s2)
            current = nxt
        return frozenset(current)

    def is_legal(self, opseq: Sequence[Operation]) -> bool:
        return bool(self.states_after(opseq))

    def responses(
        self, opseq: Sequence[Operation], invocation: Invocation
    ) -> FrozenSet[Hashable]:
        found: Set[Hashable] = set()
        for s in self.states_after(opseq):
            for response, _s2 in self.transitions(s, invocation):
                found.add(response)
        return frozenset(found)

    # -- macro-state stepping (used by the exact analysis) ----------------------

    def initial_macro_state(self) -> FrozenSet[State]:
        """The macro-state of the empty sequence."""
        return frozenset(self.initial_states())

    def step_macro(
        self, macro: FrozenSet[State], operation: Operation
    ) -> FrozenSet[State]:
        """Advance a macro-state by one operation (empty = illegal)."""
        nxt: Set[State] = set()
        for s in macro:
            for response, s2 in self.transitions(s, operation.invocation):
                if response == operation.response:
                    nxt.add(s2)
        return frozenset(nxt)

    def run_macro(
        self, macro: FrozenSet[State], opseq: Sequence[Operation]
    ) -> FrozenSet[State]:
        """Advance a macro-state by an operation sequence."""
        for o in opseq:
            if not macro:
                return frozenset()
            macro = self.step_macro(macro, o)
        return macro

    def enabled_operations(
        self, macro: FrozenSet[State], invocations: Iterable[Invocation]
    ) -> FrozenSet[Operation]:
        """The operations enabled from ``macro`` over the given invocation alphabet."""
        ops: Set[Operation] = set()
        for s in macro:
            for invocation in invocations:
                for response, _s2 in self.transitions(s, invocation):
                    ops.add(self.operation(invocation, response))
        return frozenset(ops)


class FunctionalSpec(StateMachineSpec):
    """A :class:`StateMachineSpec` assembled from plain functions.

    Example — the paper's bank account (Section 3.2)::

        def transitions(state, invocation):
            if invocation.name == "deposit":
                (i,) = invocation.args
                yield "ok", state + i
            elif invocation.name == "withdraw":
                (i,) = invocation.args
                if state >= i:
                    yield "ok", state - i
                else:
                    yield "no", state
            elif invocation.name == "balance":
                yield state, state

        spec = FunctionalSpec("BA", initial=0, transitions=transitions)
    """

    def __init__(
        self,
        name: str,
        *,
        transitions: TransitionFn,
        initial: State = None,
        initials: Optional[Iterable[State]] = None,
    ):
        super().__init__(name)
        if initials is None:
            initials = (initial,)
        self._initials: Tuple[State, ...] = tuple(initials)
        if not self._initials:
            raise ValueError("a specification needs at least one initial state")
        self._transitions = transitions

    def initial_states(self) -> Iterable[State]:
        return self._initials

    def transitions(
        self, state: State, invocation: Invocation
    ) -> Iterable[Tuple[Hashable, State]]:
        return self._transitions(state, invocation)

    def renamed(self, name: str) -> "FunctionalSpec":
        return FunctionalSpec(
            name, transitions=self._transitions, initials=self._initials
        )
