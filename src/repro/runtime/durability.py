"""Crash-capable systems: a crash, in-doubt resolution and restart.

An object is crashable when it holds a stable log: a
:class:`~repro.runtime.system.ManagedObject` built with ``log=`` writes
its operations, prepares, commits and aborts to that log under the
discipline its recovery method implies (:mod:`repro.runtime.wal`), so it
can be *crashed* (volatile state and lock tables lost, in-flight
transactions killed) and *restarted* from stable storage.
:func:`build_durable_object` is the one place the runtime builds one.

:class:`CrashableSystem` lifts crashing to a multi-object
:class:`~repro.runtime.system.TransactionSystem`: a crash aborts every
active transaction (appending their abort events keeps the global
history well formed, so the core checkers can audit executions that
span crashes) and restarts every object, after which new transactions
see exactly the committed state.  It also holds the one copy of
everything a *failure domain* needs, which the placement subclasses
(:mod:`~repro.runtime.sharding`, :mod:`~repro.runtime.replication`)
call with their own object names: the in-doubt resolver behind
``crash`` / ``crash_shard`` / ``fail_site``, per-domain trace stamping
and force accounting, the durable-object builder with the paper's
recovery/conflict pairing, and the site-crash schedule driver.

The central invariant, tested across ADTs, crash points and logging
policies: *restart reproduces the abstract view of the post-crash
history* —

    restart() == states_after(View(H_post_crash, fresh_txn))

where ``H_post_crash`` is the pre-crash history with every in-flight
transaction aborted.
"""

from __future__ import annotations

from typing import (
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..adts.base import ADT
from ..core.conflict import ConflictRelation
from .system import ManagedObject, TransactionSystem
from .wal import GroupCommitPolicy


class DomainTrace:
    """A per-failure-domain emit proxy: stamps every event with the
    domain id under the subclass's ``field`` (``shard`` / ``site``).

    Bound in place of the raw collector on a domain's objects and logs,
    so ``op-invoke``/``lock-wait``/``force``/``recovery`` events carry
    their domain without the emit sites knowing about placement at all.
    """

    __slots__ = ("_inner", "domain")
    field = ""

    def __init__(self, inner, domain: int) -> None:
        self._inner = inner
        self.domain = domain

    def emit(self, kind: str, **fields) -> None:
        fields.setdefault(self.field, self.domain)
        self._inner.emit(kind, **fields)


class CrashableSystem(TransactionSystem):
    """A transaction system whose objects can crash — all at once
    (:meth:`crash`) or, in the placement subclasses, one failure domain
    at a time (``crash_shard`` / ``fail_site``).  Every form runs the
    same in-doubt resolution, :meth:`_resolve_failure`."""

    def __init__(self, objects: Sequence[ManagedObject]):
        volatile = [obj.name for obj in objects if obj.wal is None]
        if volatile:
            raise ValueError(
                "a crashable system needs a stable log at every object; "
                "none at %s" % ", ".join(volatile)
            )
        super().__init__(objects)
        self.crash_count = 0

    def crash(self) -> Set[str]:
        """Whole-system crash: lose storage tails, resolve in-doubt
        commits, kill the rest, restart every object.

        :meth:`_resolve_failure` with every object failed — no healthy
        object is left to finish a commit, every commit pipeline dies
        and every active read-only reader with it — after which every
        object loses its volatile state and restarts from its stable
        log.

        Returns the set of transactions killed by the crash (resolved
        commits are *not* victims — their scripts finished).
        """
        self.crash_count += 1
        failed = list(self.objects)
        victims = self._resolve_failure(failed, "crash")
        for name in failed:
            self.objects[name].crash_and_restart()
        return victims

    def _resolve_failure(
        self, failed: Sequence[str], event: str, **domain
    ) -> Set[str]:
        """The objects ``failed`` crashed; decide every transaction they
        left in doubt.  Objects not named are healthy: their volatile
        state and their processes are intact.

        The protocol, in order:

        1. mirror any object-local events the interrupted call never
           reported into the global history (the failure may have
           unwound ``invoke``/``commit`` mid-flight);
        2. commit pipelines that depend on a failed object's log cannot
           proceed: drop them, their transactions are resolved below
           purely from whatever records actually reached storage;
        3. every failed object's stable log loses its volatile tail, in
           the order given (a :class:`~repro.runtime.faults.FaultyStableLog`
           draws per crash, so the order is the caller's to keep) —
           including any *held group-commit batch*, whose records were
           appended but never physically flushed;
        4. read-only snapshot readers that observed a failed object are
           killed (their registration is volatile; no locks, no events);
           when nothing survived, every active reader is.  Readers
           confined to healthy objects continue — version chains only
           hold durably committed versions and are never retracted, so
           their snapshots remain valid;
        5. **in-doubt resolution** for every unfinished transaction that
           touched a failed object: committed iff its commit point was
           reached — a commit record *survives* at any object it
           touched, durable on a failed object's stable log or still
           held (volatile or durable) at a healthy one.  Resolution
           completes, never retracts: a resolved commit finishes
           everywhere (failed objects through the recovery path,
           healthy ones through their commit-now path, which forces a
           held batch before acknowledging) and installs its version
           under a fresh CSN.
           Everything else is killed everywhere: failed objects just
           record the abort event (no undo, no log record — a crash
           gives no chance for either), healthy objects perform a clean
           volatile abort;
        6. the ``event`` trace record (stamped with ``domain``) lists the
           victims and the resolved commits.

        Transactions that never touched a failed object are untouched.
        The failed objects are *not* restarted here — the caller
        restarts them now or leaves them down.
        Returns the transactions killed.
        """
        names = set(failed)
        self._sync_events()
        doomed = [
            txn
            for txn, pending in self._committing.items()
            if names.intersection(pending.touched)
        ]
        for txn in doomed:
            del self._committing[txn]
        for name in failed:
            self.objects[name].wal.log.crash()
        candidates = [
            txn
            for txn, touched in self._touched.items()
            if txn not in self._finished and touched & names
        ]
        victims: Set[str] = set()
        if len(names) == len(self.objects):
            readers = list(self._ro_active)
        else:
            readers = [
                txn
                for txn, observed in self._ro_touched.items()
                if txn in self._ro_active and observed & names
            ]
        for txn in sorted(readers):
            del self._ro_active[txn]
            self._finished[txn] = "aborted"
            victims.add(txn)
        resolved: List[str] = []
        for txn in sorted(candidates):
            touched = sorted(self._touched[txn])
            reached_commit_point = any(
                self.objects[name].wal.has_durable_commit(txn)
                for name in touched
            )
            if reached_commit_point:
                for name in touched:
                    if name in names:
                        self.objects[name].crash_commit(txn)
                    else:
                        self._complete_surviving_commit(name, txn)
                self._finished[txn] = "committed"
                resolved.append(txn)
                # Durable everywhere it touched: stamp the version under
                # a fresh CSN, as the normal completion would have.
                self._install_versions(txn, touched)
            else:
                for name in touched:
                    if name in names:
                        self.objects[name].crash_kill(txn)
                    else:
                        self.objects[name].abort(txn)
                self._finished[txn] = "aborted"
                victims.add(txn)
                self._drop_txn(txn)
        self._sync_events()
        if self.trace is not None:
            self.trace.emit(
                event, **domain, victims=sorted(victims), resolved=resolved
            )
        return victims

    def _complete_surviving_commit(self, name: str, txn: str) -> None:
        """Finish an in-doubt commit at a healthy (non-crashed) object.

        Its volatile state is intact, so the commit completes through
        the object's commit-now path rather than the recovery path: a
        commit record still in a held batch is forced before the commit
        is acknowledged, since a later crash of this object must find it.
        """
        self.objects[name].commit(txn)
        self._sync_events(name)

    def _drop_txn(self, txn: str) -> None:
        """Placement bookkeeping for a transaction a failure killed
        (nothing to forget in a flat system)."""

    # -- per-domain tracing and accounting ------------------------------------------

    def _bind_domain_trace(
        self, collector, stamper, domain_of: Mapping[str, int]
    ) -> None:
        """Bind a trace collector, stamping each object's and log's
        events with its failure domain through ``stamper(collector,
        domain)`` (a :class:`DomainTrace`).  System-level events (2PC
        phases, crashes) stay unstamped — they span domains."""
        self.trace = collector
        for name, obj in self.objects.items():
            proxy = stamper(collector, domain_of[name])
            obj.trace = proxy
            obj.wal.log.trace = proxy
            obj.wal.log.trace_name = name

    def _force_accounting_by_domain(
        self, field: str, domains: int, domain_of: Mapping[str, int]
    ) -> List[Dict[str, int]]:
        """``(forces, force_requests, forced_records)`` per domain, one
        row per domain keyed ``field``."""
        rows = [
            {field: k, "forces": 0, "force_requests": 0, "forced_records": 0}
            for k in range(domains)
        ]
        for name, obj in self.objects.items():
            log = obj.wal.log
            row = rows[domain_of[name]]
            row["forces"] += log.forces
            row["force_requests"] += log.force_requests
            row["forced_records"] += log.forced_records
        return rows


def recovery_conflict(adt: ADT, recovery: str) -> ConflictRelation:
    """The paper's pairing: update-in-place recovery needs
    ``Conflict ⊇ NRBC`` (Theorem 9), deferred-update needs
    ``Conflict ⊇ NFC`` (Theorem 10).  Every runtime object takes its
    conflict relation from here."""
    return adt.nrbc_conflict() if recovery.upper() == "UIP" else adt.nfc_conflict()


def build_durable_object(
    adt_kind: str,
    name: Optional[str],
    recovery: str,
    group_commit: int,
    hold: int,
    make_log,
    **durable_options,
) -> ManagedObject:
    """One logged :class:`~repro.runtime.system.ManagedObject` of
    ``adt_kind`` (``name=None`` takes the kind's default name) under the
    recovery method's required conflict relation, on its own stable log
    ``make_log(policy=...)`` with the ``(group_commit, hold)``
    group-commit policy — :class:`~repro.runtime.wal.StableLog` itself,
    or a partial :class:`~repro.runtime.faults.FaultyStableLog`.

    ``durable_options`` are the object's other keyword arguments
    (``restart_policy=``).
    """
    from ..adts.registry import make_adt

    adt = make_adt(adt_kind, name)
    recovery = recovery.upper()
    return ManagedObject(
        adt,
        conflict=recovery_conflict(adt, recovery),
        recovery=recovery,
        log=make_log(policy=GroupCommitPolicy(group_commit, hold)),
        **durable_options,
    )


def run_with_crashes(
    system: CrashableSystem,
    scripts,
    *,
    seed: int = 0,
    crash_every: int = 10,
    label: str = "",
    max_restarts: int = 50,
    max_ticks: int = 100_000,
):
    """Drive scripts through a scheduler, crashing the system periodically.

    A thin specialization of :class:`~repro.runtime.scheduler.Scheduler`:
    after every ``crash_every`` ticks the whole system crashes; script
    instances whose transaction died restart as fresh transactions, like
    deadlock victims.  Returns ``(metrics, crashes)``.
    """
    from .scheduler import Scheduler, periodic_wake

    crashes = 0

    def crash_on_schedule(tick: int) -> bool:
        nonlocal crashes
        if crash_every and tick % crash_every == 0:
            victims = system.crash()
            crashes += 1
            scheduler.handle_crash(victims, tick)
            return True
        return False

    crash_on_schedule.next_wake = periodic_wake(crash_every)

    scheduler = Scheduler(
        system,
        scripts,
        seed=seed,
        label=label,
        max_restarts=max_restarts,
        max_ticks=max_ticks,
        on_tick=crash_on_schedule,
    )
    metrics = scheduler.run()
    return metrics, crashes


class SiteCrash(NamedTuple):
    """Fail one site at a tick, recover it at a later tick (0 = leave it
    down until the end-of-run recovery).  A plain ``(site, fail_tick,
    recover_tick)`` triple is accepted wherever a row is."""

    site: int
    fail_tick: int
    recover_tick: int = 0

    def describe(self) -> str:
        if self.recover_tick:
            return "site%d@%d-%d" % (self.site, self.fail_tick, self.recover_tick)
        return "site%d@%d-end" % (self.site, self.fail_tick)


def validate_site_crashes(rows, sites: int) -> Tuple[SiteCrash, ...]:
    """The site-crash schedule ``rows`` as :class:`SiteCrash` rows, or
    ``ValueError``: every site must exist, fail at tick >= 1 and recover
    (if ever) strictly later, and one site's down-windows must not
    overlap — a second failure of a site that is already down would be
    silently skipped."""
    crashes = tuple(SiteCrash(*row) for row in rows)
    for crash in crashes:
        if not 0 <= crash.site < sites:
            raise ValueError(
                "site-crash %s: site out of range 0..%d"
                % (crash.describe(), sites - 1)
            )
        if crash.fail_tick < 1:
            raise ValueError(
                "site-crash %s: fail tick must be >= 1" % crash.describe()
            )
        if crash.recover_tick and crash.recover_tick <= crash.fail_tick:
            raise ValueError(
                "site-crash %s: recovery tick must be after the fail tick "
                "(0 keeps the site down)" % crash.describe()
            )
    by_fail_tick = sorted(crashes, key=lambda c: (c.site, c.fail_tick))
    for earlier, later in zip(by_fail_tick, by_fail_tick[1:]):
        if earlier.site == later.site and (
            not earlier.recover_tick or later.fail_tick <= earlier.recover_tick
        ):
            raise ValueError(
                "site-crash %s overlaps %s: the site is still down"
                % (later.describe(), earlier.describe())
            )
    return crashes


def run_with_site_crashes(scheduler, site_crashes: Sequence[SiteCrash]):
    """Run ``scheduler`` over its replicated system, failing and
    recovering sites at their scheduled ticks.

    The schedule hangs off the scheduler's ``on_tick`` hook (declaring
    its ticks to the wake calendar); site-failure victims restart as
    fresh incarnations, like any crash victims.  Once the scripts drain,
    every site still down is recovered and catch-up is polled, so the
    run ends with every copy back in service.  Returns the metrics.
    """
    from .scheduler import schedule_wake

    system = scheduler.system

    def fire(tick: int) -> bool:
        progressed = False
        for site, fail_tick, recover_tick in site_crashes:
            if fail_tick == tick and system.site_up(site):
                scheduler.handle_crash(system.fail_site(site), tick)
                progressed = True
            if recover_tick and recover_tick == tick and not system.site_up(site):
                system.recover_site(site)
                progressed = True
        return progressed

    fire.next_wake = schedule_wake(
        t for _, fail_tick, recover_tick in site_crashes
        for t in (fail_tick, recover_tick)
    )
    scheduler.on_tick = fire
    metrics = scheduler.run()
    for site in range(system.sites):
        if not system.site_up(site):
            system.recover_site(site)
    system.poll_catchup()
    return metrics
