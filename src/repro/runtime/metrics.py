"""Run metrics for the transaction-system simulator.

The simulator measures *logical* concurrency, not wall-clock speed: each
tick, every running transaction gets the chance to execute one
operation.  A conflict relation that blocks more therefore stretches the
run over more ticks; the headline number is committed transactions per
tick (``throughput``).  Abort/restart counts capture deadlock pressure,
and ``blocked_attempts`` the lock contention: the attempts made and
refused.  A refused transaction is not attempted again on every tick it
waits — it sleeps until its object changes — so this counts refusals
(on arrival at a step, and once more each time the object changed and
still refused), not ticks spent waiting; the waiting itself is in
``ticks`` and in the trace's ``op-blocked`` to ``op-ok`` distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class FaultCounters:
    """Counters for injected storage faults (see :mod:`repro.runtime.faults`).

    One instance is shared by every :class:`~repro.runtime.faults.FaultyStableLog`
    of a system under test, so the totals describe the whole run.
    """

    crashes: int = 0  # crash points that fired (process deaths)
    io_errors: int = 0  # transient IO failures injected
    io_retries: int = 0  # retries the bounded-retry policy performed
    backoff_ticks: int = 0  # simulated backoff cost of those retries
    torn_forces: int = 0  # forces torn mid-flush (partial tail made durable)
    records_lost: int = 0  # appended records that never reached stable storage

    def merge(self, other: "FaultCounters") -> None:
        """Accumulate ``other`` into self, field by field (every counter
        is additive, including ones added after this method was written)."""
        for spec in fields(self):
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )


@dataclass
class RunMetrics:
    """Counters from one simulation run."""

    label: str = ""
    ticks: int = 0
    committed: int = 0
    aborted: int = 0
    restarts: int = 0
    deadlocks: int = 0
    operations: int = 0
    #: attempts made and refused (see the module docstring: one per
    #: arrival at a step or change of its object, not one per tick).
    blocked_attempts: int = 0
    stuck_aborts: int = 0
    #: the subset of ``aborted`` caused by a whole-system crash killing
    #: the transaction (torture runs); deadlock/stuck aborts are the
    #: remainder, so crash pressure and contention pressure stay
    #: distinguishable in reports.
    crash_aborts: int = 0
    #: force accounting (group commit): physical log flushes across every
    #: stable log of the system, the logical force *requests* they served,
    #: and the records they made durable.  With batch size 1 every request
    #: is its own flush, so ``forces == force_requests``.
    forces: int = 0
    force_requests: int = 0
    forced_records: int = 0
    #: ticks finished transactions spent waiting for their commit batch
    #: to flush (the acknowledgment latency group commit trades away).
    commit_stall_ticks: int = 0
    #: read-only snapshot transactions (the multiversion path): commits,
    #: individual snapshot reads served lock-free, and aborts (an RO
    #: transaction only aborts when a crash kills it mid-flight).
    ro_committed: int = 0
    ro_snapshot_reads: int = 0
    ro_aborts: int = 0
    #: wake-calendar accounting (event-driven scheduler): ticks the
    #: calendar proved dead — skipped in one jump by the event-driven
    #: mode, walked cheaply by polling, counted identically by both —
    #: and the number of dead stretches that ended in a scheduled wake.
    dead_ticks_elided: int = 0
    calendar_wakeups: int = 0
    #: present when the run executed under fault injection.
    faults: Optional[FaultCounters] = None

    @property
    def throughput(self) -> float:
        """Committed transactions per tick (the concurrency yardstick)."""
        if self.ticks == 0:
            return 0.0
        return self.committed / self.ticks

    @property
    def avg_batch_size(self) -> float:
        """Force requests coalesced per physical flush (1.0 = no batching)."""
        if self.forces == 0:
            return 0.0
        return self.force_requests / self.forces

    @property
    def forces_per_commit(self) -> float:
        """Physical flushes per committed transaction (the FORCE cost)."""
        if self.committed == 0:
            return 0.0
        return self.forces / self.committed

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        if total == 0:
            return 0.0
        return self.aborted / total

    def counters(self) -> Dict[str, int]:
        """Every integer counter, by field name (the reconciliation
        surface for :func:`repro.runtime.trace.reconcile`)."""
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def row(self) -> Tuple:
        """Label, every counter, then throughput (kept last)."""
        return (
            self.label,
            self.ticks,
            self.committed,
            self.aborted,
            self.crash_aborts,
            self.restarts,
            self.deadlocks,
            self.operations,
            self.blocked_attempts,
            self.stuck_aborts,
            self.commit_stall_ticks,
            self.forces,
            self.force_requests,
            self.forced_records,
            self.ro_committed,
            self.ro_snapshot_reads,
            self.ro_aborts,
            self.dead_ticks_elided,
            self.calendar_wakeups,
            round(self.throughput, 4),
        )


#: Every integer counter of :class:`RunMetrics`, in declaration order —
#: the one list the trace reconciler and the partitioned-drive merge
#: read, so a counter added to the dataclass reaches both.
COUNTER_FIELDS: Tuple[str, ...] = tuple(
    spec.name for spec in fields(RunMetrics) if spec.type == "int"
)


@dataclass
class MetricsSummary:
    """Mean/min/max aggregation of one configuration across seeds.

    Every :class:`RunMetrics` counter has a mean here — aggregation must
    not lose counters (a regression test walks the fields to enforce
    it) — and injected-fault counters merge additively into ``faults``.
    """

    label: str
    runs: int
    mean_throughput: float
    min_throughput: float
    max_throughput: float
    mean_ticks: float
    mean_blocked: float
    mean_aborted: float
    mean_deadlocks: float
    mean_committed: float = 0.0
    mean_crash_aborts: float = 0.0
    mean_restarts: float = 0.0
    mean_operations: float = 0.0
    mean_stuck_aborts: float = 0.0
    mean_commit_stall_ticks: float = 0.0
    mean_forces: float = 0.0
    mean_force_requests: float = 0.0
    mean_forced_records: float = 0.0
    mean_ro_committed: float = 0.0
    mean_ro_snapshot_reads: float = 0.0
    mean_ro_aborts: float = 0.0
    mean_dead_ticks_elided: float = 0.0
    mean_calendar_wakeups: float = 0.0
    #: FaultCounters of every run merged (None when no run carried any).
    faults: Optional[FaultCounters] = None


def summarize(label: str, runs: Sequence[RunMetrics]) -> MetricsSummary:
    """Aggregate runs of the same configuration across seeds."""
    if not runs:
        raise ValueError("no runs to summarize")
    throughputs = [r.throughput for r in runs]

    def mean(attr: str) -> float:
        return sum(getattr(r, attr) for r in runs) / len(runs)

    faults: Optional[FaultCounters] = None
    for r in runs:
        if r.faults is not None:
            if faults is None:
                faults = FaultCounters()
            faults.merge(r.faults)
    return MetricsSummary(
        label=label,
        runs=len(runs),
        mean_throughput=sum(throughputs) / len(runs),
        min_throughput=min(throughputs),
        max_throughput=max(throughputs),
        mean_ticks=mean("ticks"),
        mean_blocked=mean("blocked_attempts"),
        mean_aborted=mean("aborted"),
        mean_deadlocks=mean("deadlocks"),
        mean_committed=mean("committed"),
        mean_crash_aborts=mean("crash_aborts"),
        mean_restarts=mean("restarts"),
        mean_operations=mean("operations"),
        mean_stuck_aborts=mean("stuck_aborts"),
        mean_commit_stall_ticks=mean("commit_stall_ticks"),
        mean_forces=mean("forces"),
        mean_force_requests=mean("force_requests"),
        mean_forced_records=mean("forced_records"),
        mean_ro_committed=mean("ro_committed"),
        mean_ro_snapshot_reads=mean("ro_snapshot_reads"),
        mean_ro_aborts=mean("ro_aborts"),
        mean_dead_ticks_elided=mean("dead_ticks_elided"),
        mean_calendar_wakeups=mean("calendar_wakeups"),
        faults=faults,
    )


#: Table columns: (header, attribute).  ``thruput`` and ``ticks`` always
#: render; the rest degrade gracefully — a column whose value is zero in
#: every summary is omitted, so the classic failure-free table stays
#: narrow while torture/group-commit tables show their extra counters.
_OPTIONAL_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("blocked", "mean_blocked"),
    ("aborted", "mean_aborted"),
    ("crash-ab", "mean_crash_aborts"),
    ("deadlocks", "mean_deadlocks"),
    ("stuck", "mean_stuck_aborts"),
    ("stalls", "mean_commit_stall_ticks"),
    ("forces", "mean_forces"),
    ("f-req", "mean_force_requests"),
    ("f-rec", "mean_forced_records"),
    ("ro-commit", "mean_ro_committed"),
    ("ro-reads", "mean_ro_snapshot_reads"),
    ("ro-abort", "mean_ro_aborts"),
    ("elided", "mean_dead_ticks_elided"),
    ("wakeups", "mean_calendar_wakeups"),
)


def format_summary_table(summaries: Sequence[MetricsSummary]) -> str:
    """A fixed-width comparison table, best throughput first.

    All-zero optional columns are omitted (see ``_OPTIONAL_COLUMNS``).
    """
    rows = sorted(summaries, key=lambda s: -s.mean_throughput)
    columns: List[Tuple[str, Callable[[MetricsSummary], str]]] = [
        ("thruput", lambda s: "%8.4f" % s.mean_throughput),
        ("ticks", lambda s: "%8.1f" % s.mean_ticks),
    ]
    for header, attr in _OPTIONAL_COLUMNS:
        if any(getattr(s, attr) for s in rows):
            columns.append(
                (header, lambda s, a=attr: "%9.1f" % getattr(s, a))
            )
    header_line = "%-28s " % "configuration" + " ".join(
        "%*s" % (8 if i < 2 else 9, name)
        for i, (name, _) in enumerate(columns)
    )
    lines = [header_line, "-" * len(header_line)]
    for s in rows:
        lines.append(
            "%-28s " % s.label + " ".join(fmt(s) for _, fmt in columns)
        )
    return "\n".join(lines)
