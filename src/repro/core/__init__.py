"""Core model: events, histories, specifications, commutativity, recovery, atomicity.

This package is a direct, executable transcription of the paper's formal
development (Sections 2–7).  The import graph mirrors the paper's
structure:

``events`` → ``history`` → ``serial_spec``/``automaton_spec`` →
``equieffective`` → ``commutativity`` → ``conflict``/``views`` →
``lock_manager``/``recovery`` (the two halves of an object) →
``object_automaton`` → ``atomicity`` → ``theorems``.
"""

from .atomicity import (
    DynamicAtomicityViolation,
    commit_sets,
    find_dynamic_atomicity_violation,
    find_online_violation,
    find_serialization_order,
    is_acceptable,
    is_atomic,
    is_dynamic_atomic,
    is_online_dynamic_atomic,
    is_serializable,
    normalize_specs,
    serializable_in_order,
)
from .commutativity import (
    BackwardCommutativityViolation,
    ForwardCommutativityViolation,
    as_opseq,
    commute_forward,
    find_backward_violation,
    find_forward_violation,
    right_commutes_backward,
)
from .conflict import (
    AtCommit,
    ClassifierConflict,
    ConflictRelation,
    EmptyConflict,
    OperationClass,
    PairSetConflict,
    PredicateConflict,
    TotalConflict,
    WithoutPairs,
    incomparable,
    relation_difference,
    symmetric_closure,
    union,
)
from .equieffective import (
    LooksLikeViolation,
    equieffective,
    find_equieffective_violation,
    find_looks_like_violation,
    legal_continuations,
    looks_like,
)
from .events import (
    AbortEvent,
    CommitEvent,
    Event,
    Invocation,
    InvocationEvent,
    OpSeq,
    Operation,
    ResponseEvent,
    abort,
    commit,
    inv,
    invoke,
    op,
    respond,
)
from .history import (
    History,
    HistoryBuilder,
    HistoryNotKept,
    IllFormedHistoryError,
    equivalent,
    serial_history,
    transaction_events,
)
from .lock_manager import LockManager
from .object_automaton import (
    ObjectAutomaton,
    ResponseNotEnabled,
    TransactionProgram,
    generate_trace,
)
from .serial_spec import LanguageSpec, SerialSpec, is_prefix_closed
from .automaton_spec import FunctionalSpec, StateMachineSpec
from .recovery import (
    DeferredUpdateManager,
    RecoveryManager,
    StrictUpdateInPlaceManager,
    UpdateInPlaceManager,
    ViewRecoveryManager,
    cursor_for_view,
)
from .theorems import (
    Counterexample,
    SampleReport,
    build_du_counterexample,
    build_uip_counterexample,
    find_du_counterexample,
    find_uip_counterexample,
    sample_correctness,
)
from .views import (
    DU,
    SUIP,
    UIP,
    DeferredUpdate,
    StrictUpdateInPlace,
    UpdateInPlace,
    View,
)

__all__ = [
    # events
    "Event",
    "Invocation",
    "InvocationEvent",
    "ResponseEvent",
    "CommitEvent",
    "AbortEvent",
    "Operation",
    "OpSeq",
    "inv",
    "op",
    "invoke",
    "respond",
    "commit",
    "abort",
    # history
    "History",
    "HistoryBuilder",
    "HistoryNotKept",
    "IllFormedHistoryError",
    "equivalent",
    "serial_history",
    "transaction_events",
    # specs
    "SerialSpec",
    "LanguageSpec",
    "StateMachineSpec",
    "FunctionalSpec",
    "is_prefix_closed",
    # equieffectiveness
    "LooksLikeViolation",
    "looks_like",
    "equieffective",
    "find_looks_like_violation",
    "find_equieffective_violation",
    "legal_continuations",
    # commutativity
    "ForwardCommutativityViolation",
    "BackwardCommutativityViolation",
    "commute_forward",
    "right_commutes_backward",
    "find_forward_violation",
    "find_backward_violation",
    "as_opseq",
    # conflict relations
    "ConflictRelation",
    "PredicateConflict",
    "PairSetConflict",
    "ClassifierConflict",
    "EmptyConflict",
    "AtCommit",
    "TotalConflict",
    "OperationClass",
    "union",
    "symmetric_closure",
    "WithoutPairs",
    "relation_difference",
    "incomparable",
    # views
    "View",
    "UpdateInPlace",
    "DeferredUpdate",
    "StrictUpdateInPlace",
    "UIP",
    "DU",
    "SUIP",
    # the two halves of an object: Conflict (locks) and View (recovery)
    "LockManager",
    "RecoveryManager",
    "UpdateInPlaceManager",
    "DeferredUpdateManager",
    "StrictUpdateInPlaceManager",
    "ViewRecoveryManager",
    "cursor_for_view",
    # object automaton
    "ObjectAutomaton",
    "ResponseNotEnabled",
    "TransactionProgram",
    "generate_trace",
    # atomicity
    "is_acceptable",
    "serializable_in_order",
    "find_serialization_order",
    "is_serializable",
    "is_atomic",
    "is_dynamic_atomic",
    "is_online_dynamic_atomic",
    "find_dynamic_atomicity_violation",
    "find_online_violation",
    "commit_sets",
    "normalize_specs",
    "DynamicAtomicityViolation",
    # theorems
    "Counterexample",
    "SampleReport",
    "build_uip_counterexample",
    "build_du_counterexample",
    "find_uip_counterexample",
    "find_du_counterexample",
    "sample_correctness",
]
