"""The concrete transaction runtime: locks, recovery managers, scheduler.

This package is the "systems" half of the reproduction: a lock-based
multi-object transaction processor whose two knobs are exactly the
paper's two parameters — the conflict relation (``Conflict``) and the
recovery method (``View``).  Every run records an event history that the
abstract checkers in :mod:`repro.core` can audit, which is how the
integration tests tie the concrete implementation back to the theory —
every run but an open-loop ``drive``, which nothing audits and which
builds its system with ``history=False``.
"""

from .baselines import invocation_conflict, read_write_conflict
from .errors import InvalidTransactionState, RuntimeModelError, UnknownObjectError
from .faults import (
    CrashPoint,
    FaultEvent,
    FaultPlan,
    FaultyStableLog,
    RetryPolicy,
    TransientLogIOError,
    enumerate_crash_plans,
)
from .lock_manager import LockManager, WaitsForGraph
from .metrics import (
    FaultCounters,
    MetricsSummary,
    RunMetrics,
    format_summary_table,
    summarize,
)
from .openloop import (
    DriveReport,
    OpenLoopConfig,
    arrival_ticks,
    drive,
    open_loop_scripts,
    zipf_weights,
)
from .parallel import (
    Cell,
    CellResult,
    ParallelRunner,
    execute_cell,
    register_executor,
)
from .recovery import (
    DeferredUpdateManager,
    RecoveryManager,
    UpdateInPlaceManager,
    ViewRecoveryManager,
    make_recovery_manager,
)
from .scheduler import Fault, FaultCalendar, Scheduler, TransactionScript, run_scripts
from .sharding import (
    ShardedSystem,
    ShardTrace,
    build_sharded_system,
    shard_of,
)
from .system import ManagedObject, OperationOutcome, TransactionSystem
from .torture import (
    TortureConfig,
    TortureReport,
    Violation,
    audit_recovery,
    configs_for,
    plan_campaign,
    run_schedule,
    run_torture,
)
from .trace import (
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    ReconcileResult,
    TraceCollector,
    commit_latencies,
    contention_profile,
    format_trace_report,
    latency_histogram,
    load_jsonl,
    reconcile,
    reconstruct_counters,
    validate_event,
)
from .wal import GroupCommitPolicy, RedoOnlyLog, StableLog, UndoRedoLog
from .workloads import (
    escrow_workload,
    generic_workload,
    hotspot_banking,
    mixed_transfers,
    producer_consumer,
    set_membership_workload,
)

__all__ = [
    "LockManager",
    "WaitsForGraph",
    "StableLog",
    "GroupCommitPolicy",
    "UndoRedoLog",
    "RedoOnlyLog",
    "RecoveryManager",
    "UpdateInPlaceManager",
    "DeferredUpdateManager",
    "ViewRecoveryManager",
    "make_recovery_manager",
    "ManagedObject",
    "TransactionSystem",
    "OperationOutcome",
    "Scheduler",
    "Fault",
    "FaultCalendar",
    "TransactionScript",
    "run_scripts",
    "RunMetrics",
    "MetricsSummary",
    "summarize",
    "format_summary_table",
    "TraceCollector",
    "EVENT_SCHEMA",
    "SCHEMA_VERSION",
    "ReconcileResult",
    "load_jsonl",
    "validate_event",
    "reconcile",
    "reconstruct_counters",
    "commit_latencies",
    "latency_histogram",
    "contention_profile",
    "format_trace_report",
    "read_write_conflict",
    "invocation_conflict",
    "hotspot_banking",
    "escrow_workload",
    "producer_consumer",
    "set_membership_workload",
    "mixed_transfers",
    "generic_workload",
    "CrashPoint",
    "TransientLogIOError",
    "FaultEvent",
    "FaultPlan",
    "FaultyStableLog",
    "RetryPolicy",
    "FaultCounters",
    "enumerate_crash_plans",
    "TortureConfig",
    "TortureReport",
    "Violation",
    "audit_recovery",
    "configs_for",
    "plan_campaign",
    "run_schedule",
    "run_torture",
    "Cell",
    "CellResult",
    "ParallelRunner",
    "register_executor",
    "execute_cell",
    "ShardedSystem",
    "ShardTrace",
    "shard_of",
    "build_sharded_system",
    "OpenLoopConfig",
    "DriveReport",
    "drive",
    "open_loop_scripts",
    "arrival_ticks",
    "zipf_weights",
    "RuntimeModelError",
    "UnknownObjectError",
    "InvalidTransactionState",
]
