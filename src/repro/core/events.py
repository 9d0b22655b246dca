"""Events and operations: the vocabulary of the computational model.

The model of computation (paper, Section 2) is event-based.  Transactions
interact with objects through four kinds of events at the
transaction/object interface:

* *invocation* events ``<inv, X, A>`` — transaction ``A`` invokes an
  operation of object ``X``; ``inv`` carries the operation name and its
  arguments,
* *response* events ``<res, X, A>`` — object ``X`` returns the result
  ``res`` for ``A``'s pending invocation,
* *commit* events ``<commit, X, A>`` — ``X`` learns that ``A`` committed,
* *abort* events ``<abort, X, A>`` — ``X`` learns that ``A`` aborted.

An :class:`Operation` is the pairing of an invocation with the response it
received, tagged with the object it executed on — written
``X:[insert(3),ok]`` in the paper's notation (Section 3.2).  Serial
specifications are sets of *operation sequences*, so operations (not
events) are the alphabet of the commutativity theory.

Everything in this module is immutable and hashable: events appear inside
histories, operations inside operation sequences, and both are used as
dictionary keys and set members throughout the library.
:class:`Invocation` and :class:`Operation` compute their hash once, at
construction — the value the generated ``__hash__`` would give — and
pickle through their constructors, so a hash is never carried into
another process (string hashing is per process).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Tuple


def _freeze(value: Any) -> Hashable:
    """Return a hashable, immutable rendition of ``value``.

    Invocation arguments and responses must be hashable so that events and
    operations can live in sets and dictionaries.  Lists, sets and dicts
    are converted to tuples / frozensets recursively; anything already
    hashable passes through unchanged.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((_freeze(k), _freeze(v)) for k, v in value.items()))
    hash(value)  # raises TypeError for unhashable exotic values
    return value


@dataclass(frozen=True, order=True)
class Invocation:
    """An operation name applied to arguments, e.g. ``withdraw(3)``.

    The paper's ``inv`` field "includes both the name of the operation and
    its arguments".  Arguments are stored as a tuple and frozen so the
    invocation is hashable.
    """

    name: str
    args: Tuple[Hashable, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(_freeze(a) for a in self.args))
        # The value the generated ``__hash__`` would compute, computed
        # once: invocations key every memo on the attempt path.
        object.__setattr__(self, "_hash", hash((self.name, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Through the constructor, so the hash is this process's own:
        # string hashing is per process.
        return (Invocation, (self.name, self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return "%s(%s)" % (self.name, ", ".join(repr(a) for a in self.args))


def inv(name: str, *args: Any) -> Invocation:
    """Convenience constructor: ``inv("withdraw", 3)``."""
    return Invocation(name, tuple(args))


@dataclass(frozen=True, order=True)
class Operation:
    """An invocation paired with its response, on a named object.

    This is the paper's formal notion of an operation (Section 3.2): a
    single *execution* of an operation in the informal sense.  The object
    name participates in equality so that, e.g., ``X:[insert(3),ok]`` and
    ``Y:[insert(3),ok]`` are distinct operations.
    """

    obj: str
    invocation: Invocation
    response: Hashable

    def __post_init__(self) -> None:
        object.__setattr__(self, "response", _freeze(self.response))
        object.__setattr__(
            self, "_hash", hash((self.obj, self.invocation, self.response))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Operation, (self.obj, self.invocation, self.response))

    @property
    def name(self) -> str:
        """The operation name, e.g. ``"withdraw"``."""
        return self.invocation.name

    @property
    def args(self) -> Tuple[Hashable, ...]:
        """The invocation arguments."""
        return self.invocation.args

    def at(self, obj: str) -> "Operation":
        """The same invocation/response pair relocated to object ``obj``."""
        return Operation(obj, self.invocation, self.response)

    def __str__(self) -> str:
        return "%s:[%s,%s]" % (self.obj, self.invocation, self.response)


def op(obj: str, name: str, *args: Any, response: Any = "ok") -> Operation:
    """Convenience constructor: ``op("BA", "withdraw", 3, response="no")``."""
    return Operation(obj, Invocation(name, tuple(args)), response)


#: An operation sequence — the elements of serial specifications.
OpSeq = Tuple[Operation, ...]


@dataclass(frozen=True)
class Event:
    """Base class for the four event kinds.

    Every event ``<e, X, A>`` *involves* an object ``X`` (``obj``) and a
    transaction ``A`` (``txn``).
    """

    obj: str
    txn: str

    @property
    def is_invocation(self) -> bool:
        return isinstance(self, InvocationEvent)

    @property
    def is_response(self) -> bool:
        return isinstance(self, ResponseEvent)

    @property
    def is_commit(self) -> bool:
        return isinstance(self, CommitEvent)

    @property
    def is_abort(self) -> bool:
        return isinstance(self, AbortEvent)

    def involves(self, *, obj: str = None, txn: str = None) -> bool:
        """True when the event involves the given object and/or transaction."""
        if obj is not None and self.obj != obj:
            return False
        if txn is not None and self.txn != txn:
            return False
        return True


@dataclass(frozen=True)
class InvocationEvent(Event):
    """``<inv, X, A>`` — transaction ``txn`` invokes ``invocation`` on ``obj``."""

    invocation: Invocation = field(default=None)

    def __post_init__(self) -> None:
        if self.invocation is None:
            raise ValueError("InvocationEvent requires an invocation")

    def __str__(self) -> str:
        return "<%s, %s, %s>" % (self.invocation, self.obj, self.txn)


@dataclass(frozen=True)
class ResponseEvent(Event):
    """``<res, X, A>`` — ``obj`` responds ``response`` to ``txn``'s pending invocation."""

    response: Hashable = field(default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "response", _freeze(self.response))

    def __str__(self) -> str:
        return "<%s, %s, %s>" % (self.response, self.obj, self.txn)


@dataclass(frozen=True)
class CommitEvent(Event):
    """``<commit, X, A>`` — ``obj`` learns that ``txn`` committed."""

    def __str__(self) -> str:
        return "<commit, %s, %s>" % (self.obj, self.txn)


@dataclass(frozen=True)
class AbortEvent(Event):
    """``<abort, X, A>`` — ``obj`` learns that ``txn`` aborted."""

    def __str__(self) -> str:
        return "<abort, %s, %s>" % (self.obj, self.txn)


def invoke(invocation: Invocation, obj: str, txn: str) -> InvocationEvent:
    """Build an invocation event ``<invocation, obj, txn>``."""
    return InvocationEvent(obj=obj, txn=txn, invocation=invocation)


def respond(response: Any, obj: str, txn: str) -> ResponseEvent:
    """Build a response event ``<response, obj, txn>``."""
    return ResponseEvent(obj=obj, txn=txn, response=response)


def commit(obj: str, txn: str) -> CommitEvent:
    """Build a commit event ``<commit, obj, txn>``."""
    return CommitEvent(obj=obj, txn=txn)


def abort(obj: str, txn: str) -> AbortEvent:
    """Build an abort event ``<abort, obj, txn>``."""
    return AbortEvent(obj=obj, txn=txn)
