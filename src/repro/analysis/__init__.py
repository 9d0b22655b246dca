"""Analysis tools: mechanical derivation of commutativity and conflict tables.

The core package defines forward and right-backward commutativity by
quantification over all contexts and futures; this package makes those
definitions *computable*:

* :mod:`repro.analysis.alphabet` — enumerate reachable operations and
  macro-state contexts for a specification over a finite invocation
  alphabet.
* :mod:`repro.analysis.checker` — the macro-state commutativity engine:
  bounded (sound witness search for any state-machine spec) or
  exhaustive (exact for finite-state specs), producing NFC/NRBC
  relations and class-level conflict tables.
* :mod:`repro.analysis.finite` — the exact wrapper plus finiteness
  utilities.
* :mod:`repro.analysis.tables` — conflict-table rendering and comparison
  (regenerates the paper's Figures 6-1 and 6-2).
"""

from .alphabet import (
    MacroContext,
    reachable_macro_contexts,
    reachable_operations,
)
from .checker import CommutativityChecker
from .compile_tables import CompiledADTTables, compile_adt_tables, maybe_compile
from .finite import ExactChecker, is_finite_state
from .memo import PairMemo
from .tables import (
    ConflictTable,
    OperationClass,
    render_ascii,
    render_markdown,
    table_from_verdicts,
)
from .view_synthesis import RequiredConflict, ViewSynthesizer

__all__ = [
    "MacroContext",
    "reachable_macro_contexts",
    "reachable_operations",
    "CommutativityChecker",
    "CompiledADTTables",
    "compile_adt_tables",
    "maybe_compile",
    "ExactChecker",
    "is_finite_state",
    "ConflictTable",
    "OperationClass",
    "PairMemo",
    "render_ascii",
    "render_markdown",
    "table_from_verdicts",
    "ViewSynthesizer",
    "RequiredConflict",
]
