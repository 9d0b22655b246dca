"""repro — an executable reproduction of Weihl's *The Impact of Recovery on
Concurrency Control* (MIT/LCS/TM-382, 1989; PODS 1989).

The library makes the paper's entire formal development runnable:

* :mod:`repro.core` — events, histories, serial specifications, the
  ``looks like``/equieffective/commutativity theory, the UIP and DU
  recovery views, the abstract object automaton
  ``I(X, Spec, View, Conflict)``, dynamic-atomicity checkers, and the
  constructive Theorems 9/10;
* :mod:`repro.adts` — transactional abstract data types with
  hand-derived and mechanically verified NFC/NRBC conflict relations;
* :mod:`repro.analysis` — decision procedures that regenerate the
  paper's Figures 6-1 and 6-2 from the specification alone;
* :mod:`repro.runtime` — a concrete lock-based transaction processor
  (undo logs, intentions lists, deadlock detection, two-phase commit)
  whose runs are audited by the abstract checkers;
* :mod:`repro.experiments` — the harness regenerating every figure,
  example and quantitative comparison recorded in EXPERIMENTS.md.

Quickstart::

    from repro.adts import BankAccount

    ba = BankAccount()
    checker = ba.build_checker()
    print(checker.forward_table(ba.operation_classes()))   # Figure 6-1
    print(checker.backward_table(ba.operation_classes()))  # Figure 6-2
"""

from . import adts, analysis, core, runtime
from .core import (
    DU,
    UIP,
    History,
    Invocation,
    ObjectAutomaton,
    Operation,
    SerialSpec,
    find_du_counterexample,
    find_uip_counterexample,
    inv,
    is_atomic,
    is_dynamic_atomic,
    is_serializable,
    op,
)

__version__ = "1.0.0"

__all__ = [
    "core",
    "adts",
    "analysis",
    "runtime",
    "History",
    "Invocation",
    "Operation",
    "SerialSpec",
    "ObjectAutomaton",
    "UIP",
    "DU",
    "inv",
    "op",
    "is_atomic",
    "is_serializable",
    "is_dynamic_atomic",
    "find_uip_counterexample",
    "find_du_counterexample",
    "__version__",
]
