"""An ADT's two conflict tables, side by side.

The class matrix is :class:`~repro.core.conflict.ClassifierConflict`'s
own representation (one row of class indices per class; see
:mod:`repro.core.conflict`), so there is nothing to compile:
:func:`~repro.core.conflict.maybe_compile` — re-exported here, where the
end-to-end ledger looks it up — only says whether a relation is a table,
and :func:`compile_adt_tables` pairs an ADT's two with its class
alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.conflict import ClassifierConflict, OperationClass, maybe_compile


@dataclass(frozen=True)
class CompiledADTTables:
    """Both table relations of one ADT, plus the alphabet they cover
    (a relation that is not a table — a product's, the priority
    queue's — reads None)."""

    adt_name: str
    classes: Tuple[OperationClass, ...]
    nfc: Optional[ClassifierConflict]
    nrbc: Optional[ClassifierConflict]


def compile_adt_tables(adt, domain=None) -> CompiledADTTables:
    """The NFC and NRBC tables of ``adt`` (a
    :class:`~repro.adts.base.ADT`) over ``domain``.  Runs the
    commutativity checker only if the ADT itself derives its relations
    mechanically."""
    return CompiledADTTables(
        adt.name,
        tuple(adt.operation_classes(domain)),
        maybe_compile(adt.nfc_conflict(domain)),
        maybe_compile(adt.nrbc_conflict(domain)),
    )
