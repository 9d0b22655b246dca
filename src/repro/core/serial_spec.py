"""Serial specifications: prefix-closed sets of operation sequences.

The serial specification ``Spec(X)`` of an object ``X`` captures its
acceptable behavior in a sequential, failure-free environment (paper,
Section 3.2).  Formally it is a prefix-closed set of operation sequences;
an operation sequence in the set is called *legal*.

:class:`SerialSpec` is the abstract interface the rest of the library is
written against.  Concrete specifications are usually
:class:`~repro.core.automaton_spec.StateMachineSpec` instances (the
paper's I/O-automaton style, with preconditions and effects); this module
also provides :class:`LanguageSpec`, an explicit finite-language
specification useful in tests and for adversarially-constructed
counterexamples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Hashable, Iterable, Sequence, Set, Tuple

from .events import Invocation, OpSeq, Operation


class SerialSpec(ABC):
    """A prefix-closed set of operation sequences for one object.

    Subclasses must implement :meth:`is_legal` (membership) and
    :meth:`responses` (the legal responses to an invocation after a legal
    sequence — the generator of the language, used by the object automaton
    and the analysis tools).

    A specification carries the ``name`` of the object it describes;
    operations in sequences passed to the spec must carry the same name.
    Use :meth:`renamed` to obtain the same behavior under another object
    name (objects of the same type share one specification up to naming).
    """

    def __init__(self, name: str):
        self._name = name
        #: (invocation, response) -> the one :class:`Operation` for the
        #: pair, filled as pairs are asked for.  Operations are values,
        #: so an entry is never invalid.
        self._operations: Dict[Tuple[Invocation, Hashable], Operation] = {}

    @property
    def name(self) -> str:
        """The object name this specification describes."""
        return self._name

    # -- language membership ------------------------------------------------

    @abstractmethod
    def is_legal(self, opseq: Sequence[Operation]) -> bool:
        """True iff ``opseq`` is a member of the specification."""

    @abstractmethod
    def responses(
        self, opseq: Sequence[Operation], invocation: Invocation
    ) -> FrozenSet[Hashable]:
        """The responses ``r`` such that ``opseq · X:[invocation, r]`` is legal.

        ``opseq`` must itself be legal.  An empty result means the
        invocation is not enabled after ``opseq`` (operations may be
        *partial*); several results mean the operation is
        *non-deterministic*.
        """

    # -- conveniences ---------------------------------------------------------

    def operation(self, invocation: Invocation, response: Hashable) -> Operation:
        """The operation ``X:[invocation, response]`` on this spec's object.

        Interned: asking twice hands back the same object, already
        frozen and hashed, so the memos keyed on operations hit on
        identity.  Callers may rely on equality only — an equal
        operation built any other way is the same operation.
        """
        key = (invocation, response)
        try:
            operation = self._operations.get(key)
        except TypeError:  # a response still to be frozen (a list, a dict)
            return Operation(self._name, invocation, response)
        if operation is None:
            operation = Operation(self._name, invocation, response)
            self._operations[key] = operation
        return operation

    def extend_legal(
        self, opseq: Sequence[Operation], operation: Operation
    ) -> bool:
        """True iff ``opseq · operation`` is legal, given legal ``opseq``."""
        return self.is_legal(tuple(opseq) + (operation,))

    def check_object_names(self, opseq: Sequence[Operation]) -> None:
        """Raise ValueError if any operation in ``opseq`` names another object."""
        for o in opseq:
            if o.obj != self._name:
                raise ValueError(
                    "operation %s does not belong to object %s" % (o, self._name)
                )

    def renamed(self, name: str) -> "SerialSpec":
        """The same specification for an object called ``name``."""
        raise NotImplementedError(
            "%s does not support renaming" % type(self).__name__
        )


class LanguageSpec(SerialSpec):
    """A serial specification given by an explicit finite set of sequences.

    The set is prefix-closed automatically: constructing a
    ``LanguageSpec`` from generators adds every prefix of every given
    sequence.  Operations are compared ignoring their object field if they
    already carry this spec's name, otherwise they are relocated.

    Primarily a test vehicle: small pathological languages make sharp
    counterexamples for the commutativity theory (e.g. specifications
    where ``looks like`` is not symmetric).
    """

    def __init__(self, name: str, sequences: Iterable[Sequence[Operation]]):
        super().__init__(name)
        language: Set[OpSeq] = {()}
        for seq in sequences:
            seq = tuple(o.at(name) for o in seq)
            for i in range(len(seq) + 1):
                language.add(seq[:i])
        self._language: FrozenSet[OpSeq] = frozenset(language)

    @property
    def language(self) -> FrozenSet[OpSeq]:
        """The full (finite, prefix-closed) language."""
        return self._language

    def is_legal(self, opseq: Sequence[Operation]) -> bool:
        return tuple(o.at(self._name) for o in opseq) in self._language

    def responses(
        self, opseq: Sequence[Operation], invocation: Invocation
    ) -> FrozenSet[Hashable]:
        prefix = tuple(o.at(self._name) for o in opseq)
        found: Set[Hashable] = set()
        want = len(prefix) + 1
        for seq in self._language:
            if (
                len(seq) == want
                and seq[:-1] == prefix
                and seq[-1].invocation == invocation
            ):
                found.add(seq[-1].response)
        return frozenset(found)

    def alphabet(self) -> FrozenSet[Operation]:
        """Every operation appearing in some sequence of the language."""
        ops: Set[Operation] = set()
        for seq in self._language:
            ops.update(seq)
        return frozenset(ops)

    def renamed(self, name: str) -> "LanguageSpec":
        return LanguageSpec(name, self._language)


def is_prefix_closed(sequences: Iterable[OpSeq]) -> bool:
    """True iff the given set of operation sequences is prefix-closed."""
    pool = set(sequences)
    return all(seq[:-1] in pool for seq in pool if seq)
