"""The crash-schedule torture harness.

Runs the existing workload generators (:mod:`repro.runtime.workloads`)
under the scheduler against :class:`~repro.runtime.system.TransactionSystem`
instances whose stable logs are :class:`~repro.runtime.faults.FaultyStableLog`
wrappers, enumerating or seed-sampling crash schedules.  After every
crash — and once more at the end of each schedule, via a final clean
crash — the harness restarts the system and audits three invariants:

1. **restart state** — every object's restored state equals the abstract
   view of the post-crash history:
   ``restart() == states_after(View(H_post_crash, fresh_txn))``
   with the UIP or DU view matching the object's recovery method;
2. **dynamic atomicity** — the surviving global history (crash-killed
   transactions appear as aborts, crash-resolved commits as commits)
   still passes :func:`repro.core.atomicity.is_dynamic_atomic`, the
   pruned order search — evaluated on every audit, whatever the number
   of concurrent transactions: an audit reports or raises, it has no
   budget to run out of and never passes unchecked;
3. **durability accounting** — reading the record-fate archive that
   survives truncation: every committed transaction with effects at an
   object has a *durable* commit marker there (commits are never lost),
   and no durable commit marker belongs to a transaction that did not
   commit (aborted or in-flight effects never resurface).

A ``sites > 1`` config runs the same loop on a replicated system, with
a schedule of :class:`~repro.runtime.durability.SiteCrash` rows over
scheduler ticks in place of the fault plan: sites fail and recover
while the workload runs, and the end of the schedule adds the
replication audit (catch-up completeness, copy convergence, dynamic
atomicity of the merged logical history) before the final crash.

The harness carries its own **negative controls**: constructing the
system with ``bug="skip-commit-force"`` makes every log acknowledge
``force()`` without flushing — silently breaking the write-ahead commit
rule — and the same audit must then report violations;
``bug="skip-catchup"`` lets a recovered copy rejoin without replaying
the commits it missed.  A torture run that cannot flag the planted bug
proves nothing about the absence of real ones.

Everything is deterministic: a report is reproducible from
``(seed, schedules, config)`` alone, and each violation prints the
schedule description needed to replay just that schedule.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..adts.registry import make_adt
from ..core.atomicity import is_dynamic_atomic
from .durability import SiteCrash, site_faults
from .faults import FaultPlan, FaultyStableLog, RetryPolicy
from .metrics import FaultCounters
from .parallel import Cell, ParallelRunner
from .replication import ReplicatedSystem, ReplicationError
from .scheduler import CHECKPOINT, Fault, TransactionScript
from .spec import SystemSpec, at_least, fraction
from .system import TransactionSystem
from .wal import COMMIT_MARKERS, StableLog
from .workloads import (
    escrow_workload,
    generic_workload,
    hotspot_banking,
    producer_consumer,
    readonly_snapshot_workload,
    set_membership_workload,
)

#: The fresh-transaction name used to take the abstract view at audit time.
PROBE = "__probe__"

#: One schedule: a fault plan over log interactions (one site) or the
#: site-crash rows over scheduler ticks (``sites > 1``).
Schedule = Union[FaultPlan, Sequence[SiteCrash]]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TortureConfig(SystemSpec):
    """One (ADT, recovery method, workload shape) under torture: a
    :class:`~repro.runtime.spec.SystemSpec` and its workload.  With
    ``sites > 1`` the workload runs on a replicated system under
    site-crash schedules instead of log-fault plans."""

    restart_policy: str = "replay-winners"  # UIP only
    transactions: int = 4
    ops_per_txn: int = 2
    max_restarts: int = 8
    max_ticks: int = 20_000
    checkpoint_every: int = 0  # ticks between checkpoint attempts; 0 = never
    #: fraction of extra read-only snapshot readers riding along (0 =
    #: none).  Readers interleave through the crash schedules on the
    #: lock-free multiversion path; observer-less ADTs (queues) simply
    #: get no readers, so mixed matrices stay runnable.
    read_mix: float = 0.0
    #: negative controls: "skip-commit-force" (log-fault schedules) or
    #: "skip-catchup" (site-crash schedules: recovered copies rejoin
    #: without replaying the commits they missed).
    bug: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        at_least(self, "transactions", 1)
        at_least(self, "ops_per_txn", 1)
        at_least(self, "checkpoint_every", 0)
        fraction(self, "read_mix")
        # Refuse what the config's runner would silently ignore: a
        # planted bug on the other kind of system never fires.
        if self.bug == "skip-catchup" and self.sites < 2:
            raise ValueError(
                "bug 'skip-catchup' plants a replication bug; it needs sites >= 2"
            )
        if self.bug == "skip-commit-force" and self.sites > 1:
            raise ValueError(
                "bug 'skip-commit-force' is a log-fault control; it needs sites == 1"
            )
        if self.bug not in (None, "skip-catchup", "skip-commit-force"):
            raise ValueError("unknown bug %r" % (self.bug,))

    def label(self) -> str:
        base = (
            "%s/UIP/%s" % (self.adt_kind, self.restart_policy)
            if self.recovery == "UIP"
            else "%s/DU" % self.adt_kind
        )
        if self.group_commit > 1:
            base += "/gc%d" % self.group_commit
        if self.read_mix > 0:
            base += "/ro%g" % self.read_mix
        if self.sites > 1:
            base += "/x%d" % self.sites
        return base


def configs_for(
    adt_kinds: Sequence[str],
    recovery_methods: Sequence[str] = ("DU", "UIP"),
    **overrides,
) -> List[TortureConfig]:
    """The config matrix: every ADT × recovery method × restart policy.

    UIP contributes both restart policies where the ADT supports logical
    undo, only ``replay-winners`` otherwise; DU has a single restart
    algorithm.
    """
    if not adt_kinds:
        raise ValueError("adt_kind must name at least one ADT")
    configs = []
    for kind in adt_kinds:
        adt = make_adt(kind)
        for method in recovery_methods:
            if method == "DU":
                configs.append(
                    TortureConfig(kind, "DU", **overrides)
                )
            else:
                policies = ["replay-winners"]
                if adt.supports_logical_undo:
                    policies.append("redo-undo")
                for policy in policies:
                    configs.append(
                        TortureConfig(
                            kind, "UIP", restart_policy=policy, **overrides
                        )
                    )
    return configs


def workload_for(config: TortureConfig, adt, rng: random.Random):
    """Scripts for the config: the ADT's purpose-built generator when one
    exists, the generic alphabet-sampling workload otherwise.  With
    ``read_mix > 0``, read-only snapshot readers ride along whenever the
    ADT offers observer invocations."""
    kind = config.adt_kind
    name = adt.name
    txns, ops = config.transactions, config.ops_per_txn
    if kind == "bank":
        scripts = hotspot_banking(
            rng, obj=name, transactions=txns, ops_per_txn=ops
        )
    elif kind == "escrow":
        scripts = escrow_workload(
            rng, obj=name, transactions=txns, ops_per_txn=ops
        )
    elif kind in ("fifo", "semiqueue"):
        producers = max(1, txns // 2)
        scripts = producer_consumer(
            rng,
            obj=name,
            producers=producers,
            consumers=max(1, txns - producers),
            ops_per_txn=ops,
        )
    elif kind == "set":
        scripts = set_membership_workload(
            rng, obj=name, transactions=txns, ops_per_txn=ops
        )
    else:
        scripts = generic_workload(
            adt, rng, obj=name, transactions=txns, ops_per_txn=ops
        )
    if config.read_mix > 0 and adt.readonly_invocations():
        scripts = scripts + readonly_snapshot_workload(
            adt,
            rng,
            objs=[name],
            readers=max(1, round(config.read_mix * txns)),
            reads_per_txn=ops,
        )
    return scripts


def workload_on(config: TortureConfig, system, seed: int) -> List[TransactionScript]:
    """:func:`workload_for` drawn from ``seed`` over the one object of a
    system ``config`` built: the first, which on a replicated system is
    the site-0 copy and carries the logical name."""
    obj = next(iter(system.objects.values()))
    return workload_for(config, obj.adt, random.Random(seed))


def fault_log(config: TortureConfig, plan: FaultPlan, counters: FaultCounters):
    """The log factory of a one-site schedule of ``config``: stable logs
    that inject ``plan``'s faults (and drop forces under the
    ``skip-commit-force`` control).  The copies of a ``sites > 1``
    config log to plain stable logs — its site crashes come from tick
    schedules — so the durability-accounting invariant, which needs the
    fault archive, is covered by the one-site matrix."""
    return functools.partial(
        FaultyStableLog,
        plan,
        counters=counters,
        skip_commit_force=config.bug == "skip-commit-force",
    )


# ---------------------------------------------------------------------------
# the auditor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One invariant breach, carrying everything needed to replay it."""

    config: str
    schedule: str
    invariant: str  # "restart-state" | "dynamic-atomicity" | "lost-commit" | "resurrection"
    detail: str

    def format(self) -> str:
        return "[%s] %s: %s  (schedule: %s)" % (
            self.config,
            self.invariant,
            self.detail,
            self.schedule,
        )


def audit_recovery(
    system: TransactionSystem,
    label: str,
    schedule: str,
    *,
    names: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Check the three torture invariants on a freshly restarted system.

    ``names`` restricts the per-object invariants (restart state,
    durability accounting) to a subset of the system's objects — the
    sharded runtime audits just-restarted shards this way while other
    shards still carry active transactions.  The dynamic-atomicity check
    always covers the *global* history — a shard-level crash must not be
    able to hide a global anomaly.  Every invariant is evaluated on every
    call: an audit reports a violation or raises, it never passes
    unchecked.
    """
    violations: List[Violation] = []
    specs = {name: obj.adt for name, obj in system.objects.items()}
    audited = (
        sorted(system.objects.items())
        if names is None
        else [(n, system.objects[n]) for n in sorted(names)]
    )
    for name, obj in audited:
        history = obj.history()
        view = obj.recovery.view

        # 1. restart state == abstract view of the post-crash history.
        expected = obj.adt.states_after(view(history, PROBE))
        actual = obj.recovery.macro(PROBE)
        if actual != expected:
            violations.append(
                Violation(
                    label,
                    schedule,
                    "restart-state",
                    "%s restored %r but %s view gives %r"
                    % (name, sorted(map(repr, actual)), view.name,
                       sorted(map(repr, expected))),
                )
            )

        # 3. durability accounting, from the record-fate archive.
        log = obj.wal.log
        if isinstance(log, FaultyStableLog):
            marker_fates: Dict[str, set] = {}
            for record, fate in log.archive():
                if isinstance(record, COMMIT_MARKERS):
                    marker_fates.setdefault(record.txn, set()).add(fate)
            committed = history.committed()
            # a transaction executed an operation here iff it has a
            # response event here (``operations_of`` non-empty)
            responded = {e.txn for e in history if e.is_response}
            for txn in sorted(committed):
                if txn not in responded:
                    continue  # read-free and write-free here: nothing to lose
                if "durable" not in marker_fates.get(txn, set()):
                    violations.append(
                        Violation(
                            label,
                            schedule,
                            "lost-commit",
                            "committed %s has no durable commit marker at %s "
                            "(fates: %s)"
                            % (txn, name,
                               sorted(marker_fates.get(txn, {"none"}))),
                        )
                    )
            for txn in sorted(marker_fates):
                if "durable" in marker_fates[txn] and txn not in committed:
                    violations.append(
                        Violation(
                            label,
                            schedule,
                            "resurrection",
                            "durable commit marker for %s at %s but the "
                            "transaction did not commit" % (txn, name),
                        )
                    )

    # 2. the surviving global history is dynamic atomic.
    if not is_dynamic_atomic(system.history(), specs):
        violations.append(
            Violation(
                label,
                schedule,
                "dynamic-atomicity",
                "post-crash global history is not dynamic atomic",
            )
        )
    return violations


# ---------------------------------------------------------------------------
# running one schedule
# ---------------------------------------------------------------------------


@dataclass
class ScheduleResult:
    """Outcome of one workload run under one fault plan."""

    config: str
    schedule: str
    violations: List[Violation]
    crashes: int
    committed: int
    faults_fired: int


def run_schedule(
    config: TortureConfig,
    plan: Schedule,
    *,
    seed: int = 0,
    counters: Optional[FaultCounters] = None,
    trace=None,
) -> ScheduleResult:
    """Drive one workload under one schedule, auditing every recovery.

    ``plan`` is a :class:`~repro.runtime.faults.FaultPlan` for a
    one-site config, the :class:`SiteCrash` rows of a site-crash
    schedule for a ``sites > 1`` one (see :func:`campaign_stream`).

    The scheduler runs once, until every script commits or retires,
    firing the schedule's site rows and a checkpoint every
    ``checkpoint_every`` ticks; it fires each
    :class:`~repro.runtime.faults.CrashPoint` as a whole-system crash
    where it lands, with :func:`audit_recovery` as its audit hook.
    Under a site-crash schedule, victims restart as fresh incarnations,
    every site is back in service at the end, and the replication
    invariants are audited.  A final clean crash re-audits the end state
    (per copy, for a replicated system) so schedules whose faults never
    fired (or were absorbed as IO errors) still exercise restart.
    """
    sited = config.sites > 1
    counters = counters if counters is not None else FaultCounters()
    system = config.build_system(
        make_log=StableLog if sited else fault_log(config, plan, counters),
        restart_policy=config.restart_policy,
    )
    if sited:
        system._skip_catchup_bug = config.bug == "skip-catchup"
    label = config.label()
    schedule = describe_site_schedule(plan) if sited else plan.describe()
    violations: List[Violation] = []
    if trace is not None:
        trace.emit("schedule-start", label, schedule)

    # A site schedule's entries fire before the checkpoint due on the
    # same tick, so a checkpoint sees the sites as that tick leaves them.
    faults = site_faults(plan) if sited else []
    if config.checkpoint_every:
        faults.append(Fault(CHECKPOINT, every=config.checkpoint_every))
    scheduler = config.scheduler(
        system, workload_on(config, system, seed), seed=seed, faults=faults, trace=trace,
        audit=lambda: violations.extend(audit_recovery(system, label, schedule)),
    )
    try:
        scheduler.run()
        if sited:
            violations.extend(audit_replication(system, label, schedule))
        # Final clean crash: even a fault-free schedule must restart cleanly.
        system.crash()
        violations.extend(audit_recovery(system, label, schedule))
    except ReplicationError as exc:
        # Lockstep divergence (a mirrored or replayed operation was not
        # legal at its copy) is itself a reportable invariant breach —
        # the skip-catchup negative control trips this on state-coupled
        # ADTs before any read can even go stale.
        violations.append(
            Violation(label, schedule, "replication-divergence", str(exc))
        )
    return ScheduleResult(
        config=label,
        schedule=schedule,
        violations=violations,
        crashes=sum(system.domain_failures) + system.crash_count,
        committed=scheduler.metrics.committed,
        faults_fired=len(plan) if sited else len(plan.fired),
    )


def profile_horizon(config: TortureConfig, *, seed: int = 0) -> int:
    """The horizon a fault-free run of the config's workload spans, in
    the unit its schedules are drawn in: log interactions for a one-site
    config, scheduler ticks for a ``sites > 1`` one — so every sampled
    fault or site crash lands where the workload actually reaches.
    """
    plan = FaultPlan(seed=seed)
    system = config.build_system(
        make_log=fault_log(config, plan, FaultCounters()), restart_policy=config.restart_policy
    )
    metrics = config.scheduler(system, workload_on(config, system, seed), seed=seed).run()
    if config.sites > 1:
        return max(2, metrics.ticks)
    return max(1, plan.clock)


# ---------------------------------------------------------------------------
# the torture campaign
# ---------------------------------------------------------------------------


@dataclass
class TortureReport:
    """Aggregate outcome of a torture campaign (deterministic to format)."""

    seed: int
    schedules: int = 0
    crashes: int = 0
    committed: int = 0
    faults_fired: int = 0
    violations: List[Violation] = field(default_factory=list)
    per_config: Dict[str, int] = field(default_factory=dict)
    counters: FaultCounters = field(default_factory=FaultCounters)
    #: schedules a parallel campaign could not complete (worker death
    #: past the retry budget, or an executor exception).  Per the
    #: failed-cell contract these are *reported*, never silently
    #: dropped: ``ok`` is False whenever any cell failed, and the
    #: aggregates above cover completed schedules only.
    failed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.failed

    def format(self) -> str:
        lines = [
            "torture: %d schedules, %d crashes, %d commits, %d faults fired (seed=%d)"
            % (
                self.schedules,
                self.crashes,
                self.committed,
                self.faults_fired,
                self.seed,
            ),
            "faults: %d io-errors (%d retried, %d backoff ticks), "
            "%d torn forces, %d records lost"
            % (
                self.counters.io_errors,
                self.counters.io_retries,
                self.counters.backoff_ticks,
                self.counters.torn_forces,
                self.counters.records_lost,
            ),
        ]
        for label in sorted(self.per_config):
            lines.append("  %-28s %4d schedules" % (label, self.per_config[label]))
        if self.violations:
            lines.append("VIOLATIONS (%d):" % len(self.violations))
            for v in self.violations:
                lines.append("  " + v.format())
        if self.failed:
            lines.append("FAILED CELLS (%d):" % len(self.failed))
            for entry in self.failed:
                lines.append("  " + entry)
        if not self.violations and not self.failed:
            lines.append("all invariants held")
        return "\n".join(lines)


def campaign_stream(
    configs: Sequence[TortureConfig],
    *,
    schedules: int,
    seed: int = 0,
    max_faults: int = 2,
    retry: Optional[RetryPolicy] = None,
) -> Iterator[Tuple[TortureConfig, Schedule, int]]:
    """The deterministic ``(config, plan, run_seed)`` assignments, each
    drawn when it is pulled.

    Schedule *i* goes to ``configs[i % len(configs)]``; per-schedule
    plans are drawn from a single master RNG seeded with ``seed``, so
    the whole campaign replays from ``(configs, schedules, seed)``.  Two
    out of three schedules per config advance a *systematic sweep* over
    the config's profiled horizon, and the third is *sampled*.  A
    one-site config draws a :class:`~repro.runtime.faults.FaultPlan`
    over log interactions: the sweep places single crashes at each
    interaction index in turn, alternating before/after-append
    placement, and the sample is a multi-fault plan (torn forces,
    IO-error bursts, fault combinations) that ``max_faults`` and
    ``retry`` shape.  A ``sites > 1`` config draws :class:`SiteCrash`
    rows over scheduler ticks: the sweep moves one site crash along the
    horizon, alternating crash-only and crash-then-recover, and the
    sample crashes several sites — including windows where *every* site
    is down at once, the double-failure edge.

    The horizons are profiled on the first pull, before any draw.
    Drawing is separated from execution so the schedules can run in
    any order (or on any worker): the RNG draws happen here, serially,
    and each resulting cell is self-contained.
    """
    if not configs:
        raise ValueError("no torture configs")
    master = random.Random(seed)
    horizons = {c.label(): profile_horizon(c, seed=seed) for c in configs}
    sweep_pos: Dict[str, int] = {c.label(): 0 for c in configs}
    for i in range(schedules):
        config = configs[i % len(configs)]
        label = config.label()
        horizon = horizons[label]
        round_number = i // len(configs)
        pos = sweep_pos[label]
        plan: Schedule
        if round_number % 3 != 2 and pos < 2 * horizon:
            if config.sites > 1:
                plan = _site_sweep(master, config.sites, horizon, pos)
            else:
                kind = (
                    "crash-after-append" if pos % 2 == 0 else "crash-before-append"
                )
                plan = FaultPlan.crash_at(
                    pos // 2, kind, seed=master.randrange(2**31)
                )
                if retry is not None:
                    plan.retry = retry
            sweep_pos[label] = pos + 1
        elif config.sites > 1:
            plan = _site_sample(master, config.sites, horizon)
        else:
            plan = FaultPlan.sample(
                master, horizon, max_faults=max_faults, retry=retry
            )
        yield config, plan, master.randrange(2**31)


def plan_campaign(
    configs: Sequence[TortureConfig], **knobs
) -> List[Tuple[TortureConfig, Schedule, int]]:
    """Every assignment of :func:`campaign_stream` (same keywords),
    drawn into a list."""
    return list(campaign_stream(configs, **knobs))


def run_torture(
    configs: Sequence[TortureConfig],
    *,
    schedules: int,
    seed: int = 0,
    max_faults: int = 2,
    retry: Optional[RetryPolicy] = None,
    trace=None,
    workers: int = 1,
) -> TortureReport:
    """Run ``schedules`` schedules round-robin over the configs.

    :func:`campaign_stream` draws each config's own kind of schedule
    (log faults for one site, site crashes for ``sites > 1``); each
    ``(config, plan, run_seed)`` is one cell of the parallel engine (see
    :mod:`repro.runtime.parallel`) running :func:`run_schedule` — inline
    at ``workers=1``, over a process pool otherwise — and each result is
    merged into the report (its events into ``trace``) in schedule order
    and dropped, so the report and ``trace`` are the same bytes at every
    worker count and the campaign holds the schedules in flight, not
    every schedule it runs.  Schedules lost to a worker death are
    retried once and otherwise land in ``report.failed``.
    """
    assignments = campaign_stream(
        configs,
        schedules=schedules,
        seed=seed,
        max_faults=max_faults,
        retry=retry,
    )
    report = TortureReport(seed=seed)
    cells = (
        Cell(
            index=i,
            kind="torture",
            spec={"config": config, "plan": plan, "label": config.label()},
            seed=run_seed,
        )
        for i, (config, plan, run_seed) in enumerate(assignments)
    )
    for cell_result in ParallelRunner(workers).stream(
        cells, trace, size=schedules
    ):
        if not cell_result.ok:
            config = configs[cell_result.index % len(configs)]
            report.failed.append(
                "schedule %d (%s): %s"
                % (cell_result.index, config.label(), cell_result.error)
            )
            continue
        _merge_schedule(report, cell_result.value["result"])
        report.counters.merge(cell_result.value["counters"])
    return report


def _merge_schedule(report: TortureReport, result: ScheduleResult) -> None:
    """Fold one schedule's outcome into the campaign report (additive and
    order-respecting: calling this in schedule order reproduces the
    serial campaign's report exactly)."""
    report.schedules += 1
    report.crashes += result.crashes
    report.committed += result.committed
    report.faults_fired += result.faults_fired
    report.violations.extend(result.violations)
    report.per_config[result.config] = (
        report.per_config.get(result.config, 0) + 1
    )


# ---------------------------------------------------------------------------
# site-crash torture (replicated systems)
# ---------------------------------------------------------------------------


def describe_site_schedule(crashes: Sequence[SiteCrash]) -> str:
    return ",".join(c.describe() for c in crashes) or "no-crashes"


def audit_replication(
    system: ReplicatedSystem, label: str, schedule: str
) -> List[Violation]:
    """The replication-level invariants, checked at a quiescent moment
    (end of run, every site recovered):

    * **catch-up completeness** — no copy is still awaiting its replay;
    * **copy convergence** — every in-service copy of a logical object
      restored the same committed state;
    * **dynamic atomicity of the merged logical history** — the global,
      cross-site serialization claim.  A stale read served by a badly
      re-qualified copy (the ``skip-catchup`` negative control) surfaces
      here: the read's response is inconsistent with the committed
      writes in the logical history.
    """
    violations: List[Violation] = []
    stuck = sorted(system._pending_catchup)
    if stuck:
        violations.append(
            Violation(
                label,
                schedule,
                "catch-up-stuck",
                "copies never completed catch-up: %s" % stuck,
            )
        )
    for logical in system.logical_names():
        tips = {
            c: system.objects[c].committed_tip
            for c in system.copies_of(logical)
            if system.is_current(c)
        }
        if not tips:
            continue
        reference_copy = min(tips)
        reference = tips[reference_copy]
        for name in sorted(tips):
            if tips[name] != reference:
                violations.append(
                    Violation(
                        label,
                        schedule,
                        "copy-divergence",
                        "%s restored %r but %s has %r"
                        % (name, sorted(map(repr, tips[name])),
                           reference_copy, sorted(map(repr, reference))),
                    )
                )
    if not is_dynamic_atomic(system.logical_history(), system.logical_specs()):
        violations.append(
            Violation(
                label,
                schedule,
                "dynamic-atomicity",
                "merged multi-site logical history is not dynamic atomic",
            )
        )
    return violations


def _site_sweep(
    master: random.Random, sites: int, horizon: int, pos: int
) -> Tuple[SiteCrash, ...]:
    """Sweep step ``pos``: one site crash at tick ``1 + pos // 2`` (mod
    the horizon), crash-only on even steps, crash-then-recover on odd."""
    fail_tick = 1 + (pos // 2) % horizon
    site = master.randrange(sites)
    if pos % 2 == 0:
        return (SiteCrash(site, fail_tick),)
    gap = 1 + master.randrange(horizon)
    return (SiteCrash(site, fail_tick, fail_tick + gap),)


def _site_sample(
    master: random.Random, sites: int, horizon: int
) -> Tuple[SiteCrash, ...]:
    """A sampled schedule: up to three distinct sites crash at random
    ticks, a quarter of them down until the end of the run; a recovery
    drawn at or before its failure drops the row."""
    count = 1 + master.randrange(min(3, sites))
    picks = master.sample(range(sites), count)
    crashes = tuple(
        SiteCrash(
            site,
            1 + master.randrange(horizon),
            0 if master.random() < 0.25 else 2 + master.randrange(2 * horizon),
        )
        for site in sorted(picks)
    )
    return tuple(
        c for c in crashes if not c.recover_tick or c.recover_tick > c.fail_tick
    )
