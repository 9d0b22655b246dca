"""A key-value store: per-key put/get/remove (a keyed register with absence).

State: a partial map from keys to values, initially empty.  Operations
(per key ``k``; values from a finite domain)::

    KV:[put(k, v), ok]    — effect s' = s[k ↦ v]          (total)
    KV:[get(k), v]        — precondition s(k) = v          ("hit")
    KV:[get(k), None]     — precondition k ∉ dom(s)        ("miss")
    KV:[remove(k), ok]    — effect s' = s − {k}            (total)

Operations on different keys always commute; the same-key analysis:

Forward commutativity — non-commuting (symmetric) pairs:
``put``/``put`` (last-writer order observable), ``put``/``get-hit``,
``put``/``get-miss``, ``put``/``remove``, ``remove``/``get-hit``.
Commuting: ``remove``/``remove`` (idempotent), ``remove``/``get-miss``
(a miss stays a miss), ``get``/``get`` (same key, same value),
``get-hit``/``get-miss`` (never both enabled: vacuous).

Right backward commutativity — ``(β, γ)`` marked:
``(put, put)``, ``(put, get-hit)`` and ``(get-hit, put)`` (a hit of a
*different* value cannot cross a put in either direction — class-level),
``(put, get-miss)`` but **not** ``(get-miss, put)`` (a miss after a put
is never legal: vacuous), ``(put, remove)`` / ``(remove, put)``,
``(remove, get-hit)`` but **not** ``(get-hit, remove)`` (vacuous), and
``(get-miss, remove)`` but **not** ``(remove, get-miss)`` (a remove
after a miss commutes back: still removed / still absent).

The NFC/NRBC gap mirrors the set: observations conflict asymmetrically
under update-in-place.

Logical undo is unsound in general (puts overwrite), so the
update-in-place runtime replays; NRBC serializes same-key updates
anyway, so replay costs are bounded by abort rates.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

from ..core.conflict import ClassifierConflict, ConflictRelation, OperationClass
from ..core.events import Invocation, Operation, inv
from .base import ADT, first_argument

PUT = "put(k,v)/ok"
GET_HIT = "get(k)/v"
GET_MISS = "get(k)/None"
REMOVE = "remove(k)/ok"

KV_NFC_MARKS: Tuple[Tuple[str, str], ...] = (
    (PUT, PUT),
    (PUT, GET_HIT),
    (GET_HIT, PUT),
    (PUT, GET_MISS),
    (GET_MISS, PUT),
    (PUT, REMOVE),
    (REMOVE, PUT),
    (REMOVE, GET_HIT),
    (GET_HIT, REMOVE),
)

KV_NRBC_MARKS: Tuple[Tuple[str, str], ...] = (
    (PUT, PUT),
    (PUT, GET_HIT),
    (GET_HIT, PUT),
    (PUT, GET_MISS),
    (PUT, REMOVE),
    (REMOVE, PUT),
    (REMOVE, GET_HIT),
    (GET_MISS, REMOVE),
)


class KVStore(ADT):
    """A key-value store over finite key and value domains."""

    analysis_context_depth = None  # finite-state
    analysis_future_depth = None
    supports_logical_undo = False

    def __init__(
        self,
        name: str = "KV",
        keys: Sequence[Hashable] = ("k1", "k2"),
        values: Sequence[Hashable] = ("u", "v"),
    ):
        super().__init__(name)
        self._keys: Tuple[Hashable, ...] = tuple(keys)
        self._values: Tuple[Hashable, ...] = tuple(values)

    # -- specification -------------------------------------------------------------

    def initial_state(self) -> Tuple:
        return ()  # sorted tuple of (key, value) pairs — hashable map encoding

    @staticmethod
    def _as_dict(state: Tuple) -> Dict:
        return dict(state)

    @staticmethod
    def _as_state(mapping: Dict) -> Tuple:
        return tuple(sorted(mapping.items(), key=repr))

    def transitions(self, state: Tuple, invocation: Invocation):
        mapping = self._as_dict(state)
        if invocation.name == "put" and len(invocation.args) == 2:
            k, v = invocation.args
            if k in self._keys and v in self._values:
                mapping[k] = v
                yield "ok", self._as_state(mapping)
        elif invocation.name == "get" and len(invocation.args) == 1:
            (k,) = invocation.args
            if k in self._keys:
                yield mapping.get(k), state
        elif invocation.name == "remove" and len(invocation.args) == 1:
            (k,) = invocation.args
            if k in self._keys:
                mapping.pop(k, None)
                yield "ok", self._as_state(mapping)

    # -- analysis hooks ---------------------------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Invocation, ...]:
        keys = tuple(domain) if domain is not None else self._keys
        invocations = []
        for k in keys:
            invocations.append(inv("get", k))
            invocations.append(inv("remove", k))
            for v in self._values:
                invocations.append(inv("put", k, v))
        return tuple(invocations)

    def readonly_invocations(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[Invocation, ...]:
        keys = tuple(domain) if domain is not None else self._keys
        return tuple(inv("get", k) for k in keys)

    def operation_classes(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> Tuple[OperationClass, ...]:
        keys = tuple(domain) if domain is not None else self._keys
        return (
            OperationClass(
                PUT,
                tuple(
                    self.operation(inv("put", k, v), "ok")
                    for k in keys
                    for v in self._values
                ),
            ),
            OperationClass(
                GET_HIT,
                tuple(
                    self.operation(inv("get", k), v)
                    for k in keys
                    for v in self._values
                ),
            ),
            OperationClass(
                GET_MISS,
                tuple(self.operation(inv("get", k), None) for k in keys),
            ),
            OperationClass(
                REMOVE,
                tuple(self.operation(inv("remove", k), "ok") for k in keys),
            ),
        )

    def classify(self, operation: Operation) -> str:
        if operation.name == "put":
            return PUT
        if operation.name == "get":
            return GET_MISS if operation.response is None else GET_HIT
        if operation.name == "remove":
            return REMOVE
        raise ValueError("not a KV operation: %s" % (operation,))

    # -- analytic conflict relations ------------------------------------------------------

    def nfc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        return ClassifierConflict(
            self.classify, KV_NFC_MARKS, key=first_argument, name="NFC(KV)"
        )

    def nrbc_conflict(
        self, domain: Optional[Sequence[Hashable]] = None
    ) -> ConflictRelation:
        return ClassifierConflict(
            self.classify, KV_NRBC_MARKS, key=first_argument, name="NRBC(KV)"
        )

    # -- conveniences ------------------------------------------------------------------------

    def put(self, k: Hashable, v: Hashable) -> Operation:
        return self.operation(inv("put", k, v), "ok")

    def get(self, k: Hashable, v: Hashable) -> Operation:
        return self.operation(inv("get", k), v)

    def get_miss(self, k: Hashable) -> Operation:
        return self.operation(inv("get", k), None)

    def remove(self, k: Hashable) -> Operation:
        return self.operation(inv("remove", k), "ok")
