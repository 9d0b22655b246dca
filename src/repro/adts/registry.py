"""The built-in ADT registry: kind names, factories and default object names.

Lives beside the ADTs (rather than in :mod:`repro.cli`) so non-CLI
consumers — the torture harness, experiments, user scripts — can build
any built-in ADT by its short kind name without importing the
command-line machinery.  The CLI re-exports everything here.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .bank_account import BankAccount
from .counter import Counter
from .escrow import EscrowAccount
from .fifo_queue import FifoQueue
from .kv_store import KVStore
from .priority_queue import PriorityQueue
from .register import Register
from .semiqueue import SemiQueue
from .set_adt import SetADT
from .stack import Stack

#: name -> factory taking the object name.
ADT_REGISTRY: Dict[str, Callable[[str], object]] = {
    "bank": lambda name: BankAccount(name),
    "counter": lambda name: Counter(name),
    "register": lambda name: Register(name),
    "set": lambda name: SetADT(name),
    "kv": lambda name: KVStore(name),
    "pqueue": lambda name: PriorityQueue(name),
    "fifo": lambda name: FifoQueue(name),
    "semiqueue": lambda name: SemiQueue(name),
    "stack": lambda name: Stack(name),
    "escrow": lambda name: EscrowAccount(name),
}

#: default object names per ADT kind (match the classes' defaults).
DEFAULT_NAMES = {
    "bank": "BA",
    "counter": "CTR",
    "register": "REG",
    "set": "SET",
    "kv": "KV",
    "pqueue": "PQ",
    "fifo": "Q",
    "semiqueue": "SQ",
    "stack": "ST",
    "escrow": "ESC",
}


def check_kind(kind: str) -> None:
    """``ValueError`` unless ``kind`` names a registered ADT."""
    if kind not in ADT_REGISTRY:
        raise ValueError(
            "unknown ADT %r (choose from: %s)" % (kind, ", ".join(sorted(ADT_REGISTRY)))
        )


def make_adt(kind: str, name: Optional[str] = None):
    check_kind(kind)
    return ADT_REGISTRY[kind](name or DEFAULT_NAMES[kind])


def registered_kinds():
    """Every registered ADT kind name, sorted — the analysis sweep axis."""
    return tuple(sorted(ADT_REGISTRY))


def analysis_instance(kind: str):
    """A fresh default-domain instance of ``kind`` for table analysis.

    The instance carries its own invocation alphabet, operation classes
    and analysis depth bounds, so callers (the property suite, the
    benches) need only the kind name to enumerate an ADT's full
    conflict-table universe.
    """
    return make_adt(kind)

