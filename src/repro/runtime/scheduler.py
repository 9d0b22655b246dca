"""The discrete-event transaction scheduler.

Drives a set of straight-line transaction scripts against a
:class:`~repro.runtime.system.TransactionSystem`:

* each *tick*, every transaction in the system gets its turn (in a
  seeded random order, so interleavings vary across seeds) to attempt
  its next operation; open-loop arrivals are a stream of ``(script,
  tick)`` pairs in tick order, and the scheduler pulls a script from it
  on its arrival tick, so a tick costs what is in the system, not what
  is still to come, and a script is not even built before it arrives;
* a finished script leaves the scheduler: its commit tick is folded
  into one record in admission order (:meth:`Scheduler.commit_ticks`)
  and its entry is dropped, so the scheduler holds what is live;
* a blocked attempt records waits-for edges and *parks* the transaction
  on the object's epoch (:meth:`TransactionSystem.epoch`): a refusal is
  a function of the object's lock table and view, so its turn passes
  without an attempt until the epoch has moved — an operation executed
  there, a commit, an abort, a restart.  A parked transaction is
  otherwise a blocked one: in the scan order, runnable to the wake
  calendar, a candidate deadlock victim;
* a blocked attempt whose waits-for edges close a cycle aborts a victim
  (the cycle member with the fewest restarts) on the spot, so the graph
  is acyclic between waits; a transaction whose recovery view has become
  illegal (``stuck``) aborts likewise;
* aborted scripts restart as *fresh* transactions (the model does not
  allow a transaction to continue after aborting), up to a restart
  budget;
* a script whose operations have all executed commits via the system's
  two-phase protocol; when an object votes no (validation failed at an
  object built with an ``AtCommit`` relation) the system has aborted it
  and it restarts likewise;
* a script marked ``read_only`` bypasses all of the above: its steps are
  lock-free snapshot reads against the multiversion store, it can never
  block or deadlock, and its completion needs no two-phase commit.

The scheduler is the measurement instrument for the EXP-C* experiments:
it never inspects the conflict relation or recovery method itself, so
differences in the metrics are attributable to the
(``Conflict``, ``View``) configuration under test.

Failures are events of the run: :meth:`Scheduler.inject` fires the
entries of the *fault calendar* (:class:`FaultCalendar`) due after each
tick's scan, before the system clock moves; a
:class:`~repro.runtime.faults.CrashPoint` is a crash fired where it lands.

The main loop is event-driven: a *wake calendar* — fed by backoff
windows, the head of the arrival stream, ``wait_for`` releases, the
fault calendar and the tick the earliest held
group-commit batch is due — names the next tick at which
anything can happen, and the stretch of provably-dead ticks before it
is jumped in one step instead of walked.  The elision is semantically
invisible: histories, metrics, RNG draws and JSONL traces are
byte-identical to walking every tick, which
``tests/runtime/test_event_scheduler.py`` pins against the walking
oracle in :mod:`repro.reference`.
Parking is invisible in the same way but for the attempts it saves
(``blocked_attempts`` and the ``op-blocked`` / ``lock-wait`` events,
one per attempt made): ``tests/runtime/test_park_and_wake.py`` pins it
against the oracle that attempts every parked step on every tick.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import (
    Callable,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.events import Invocation
from .errors import InvalidTransactionState
from .faults import CrashPoint
from .lock_manager import WaitsForGraph
from .metrics import RunMetrics
from .system import TransactionSystem

#: Live-transaction / waits-for rows printed by the non-convergence
#: diagnostic before truncating.
_DIAG_LIMIT = 20


#: The kinds of fault calendar entry, each an operation of the system
#: that :meth:`Scheduler.inject` fires: ``crash()``, ``crash_shard(k)``,
#: ``fail_site(k)``, ``recover_site(k)`` and ``checkpoint()``; ``k``, a
#: shard or a site, is the entry's domain.
CRASH, CRASH_SHARD, FAIL_SITE, RECOVER_SITE, CHECKPOINT = FAULT_KINDS = (
    "crash", "crash-shard", "fail-site", "recover-site", "checkpoint"
)


class Fault(NamedTuple):
    """One fault calendar entry: ``kind`` is due at ``tick``, or on every
    tick that ``every`` divides; ``domain`` is the shard or site."""

    kind: str
    tick: int = 0
    every: int = 0
    domain: Optional[int] = None


class FaultCalendar:
    """Every crash, shard crash, site failure, site recovery and
    checkpoint a run injects, as data.  Entries due on one tick fire in
    calendar order; a periodic entry is a pure function of the tick."""

    def __init__(self, entries: Iterable[Fault]):
        self.entries = tuple(entries)
        for f in self.entries:
            if (
                f.kind not in FAULT_KINDS
                or min(f.tick, f.every) != 0
                or max(f.tick, f.every) < 1
                or (f.kind in (CRASH_SHARD, FAIL_SITE, RECOVER_SITE))
                != (f.domain is not None)
            ):
                raise ValueError("not a fault calendar entry: %r" % (f,))
        # Looked up on every processed tick: the due ticks and periods.
        self._ticks = sorted({f.tick for f in self.entries if f.tick})
        self._at = frozenset(self._ticks)
        self._periods = sorted({f.every for f in self.entries if f.every})
        #: the sites some entry fails, ascending.
        self.failed_sites = sorted(
            {f.domain for f in self.entries if f.kind == FAIL_SITE}
        )

    def due(self, tick: int) -> Sequence[Fault]:
        """The entries due at ``tick``, in calendar order."""
        periods = self._periods
        if tick in self._at or (periods and any(tick % p == 0 for p in periods)):
            return [
                f for f in self.entries
                if f.tick == tick or (f.every and tick % f.every == 0)
            ]
        return ()

    def next_after(self, tick: int) -> Optional[int]:
        """The first tick after ``tick`` with an entry due (None: none)."""
        ticks = self._ticks
        i = bisect.bisect_right(ticks, tick)
        wake = ticks[i] if i < len(ticks) else None
        for every in self._periods:
            w = (tick // every + 1) * every
            if wake is None or w < wake:
                wake = w
        return wake


@dataclass(frozen=True)
class TransactionScript:
    """A straight-line transaction: a name and its (object, invocation) steps.

    ``read_only`` routes the script down the multiversion snapshot path:
    every step resolves against the committed version chains
    (:meth:`~repro.runtime.system.TransactionSystem.snapshot_read`)
    instead of the locking protocol, so the steps must be observer
    invocations (see :meth:`~repro.adts.base.ADT.readonly_invocations`).
    """

    name: str
    steps: Tuple[Tuple[str, Invocation], ...]
    read_only: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass
class _LiveTxn:
    """Scheduler-side state of one script instance, from its admission
    to its retirement."""

    script: TransactionScript
    txn: str  # current transaction name (changes across restarts)
    #: the script's position in admission order: its slot in the
    #: scheduler's commit record.
    seq: int = 0
    step: int = 0
    restarts: int = 0
    born_tick: int = 0  # this incarnation's start: the arrival, or a restart
    backoff_until: int = 0  # restarted victims wait before re-entering
    stall_ticks: int = 0  # ticks this incarnation waited on a held commit batch
    #: transactions (incarnations) that must finish before re-entry —
    #: the surviving members of the deadlock cycle this entry died in.
    wait_for: FrozenSet[str] = frozenset()
    #: the epoch (:meth:`TransactionSystem.epoch`) of the object that
    #: refused this entry's current step, read after the attempt; the
    #: entry sleeps there until the epoch moves.  ``None``: not refused.
    parked: Optional[int] = None
    #: set exactly once, at the transition that finishes the script
    #: (commit success, read-only completion, restart-budget
    #: exhaustion, or crash-time in-doubt resolution): retired entries
    #: leave the scheduler's active list, are never scanned again, and
    #: are dropped.
    retired: bool = False

    @property
    def done(self) -> bool:
        return self.step >= len(self.script.steps)


class Scheduler:
    """Run transaction scripts to completion and collect metrics.

    ``scripts`` are in the system from tick 0; ``arrivals`` is a finite
    iterable of ``(script, tick)`` pairs in tick order, pulled one at a
    time as each tick comes.  A script name is used once per run: one
    that arrives while an entry of that name is live, or after it has
    finished, raises :class:`ValueError`.  ``audit`` is called after each crash point.
    """

    def __init__(
        self,
        system: TransactionSystem,
        scripts: Sequence[TransactionScript],
        *,
        seed: int = 0,
        max_restarts: int = 25,
        max_ticks: int = 100_000,
        label: str = "",
        faults: Iterable[Fault] = (),
        trace=None,
        arrivals: Iterable[Tuple[TransactionScript, int]] = (),
        audit: Optional[Callable[[], None]] = None,
    ):
        self.system = system
        self.audit = audit
        self.rng = random.Random(seed)
        self.max_restarts = max_restarts
        self.max_ticks = max_ticks
        self.metrics = RunMetrics(label=label)
        #: the run's :class:`FaultCalendar` (``None``: no faults).
        self.faults = FaultCalendar(faults) if faults else None
        #: optional :class:`~repro.runtime.trace.TraceCollector`; when
        #: set, it is bound to the system's emit sites too (objects and
        #: stable logs), so one collector sees the whole run.
        self.trace = trace
        if trace is not None:
            trace.bind_system(system)
        #: the transactions in the system: admitted and not retired
        #: (compacted lazily when a retirement dirties the list — no
        #: per-tick re-filter, no ``system.status`` calls).  The scan,
        #: its shuffle, the runnable test, the calendar, the
        #: stall-breaker and crash handling walk this list and nothing
        #: else; a retired entry leaves it and nothing else holds it.
        self._active: List[_LiveTxn] = []
        self._dirty = False
        #: the script names of the admitted entries not yet retired.
        self._live_names: Set[str] = set()
        #: per admitted script, in admission order: the tick the scan
        #: committed it, or None (see :meth:`commit_ticks`).
        self._commit_ticks: List[Optional[int]] = []
        self._waits = WaitsForGraph()
        for script in scripts:
            self._admit(script, 0)
        #: open-loop arrivals: a script enters the system at its arrival
        #: tick rather than at tick 1, independent of how many earlier
        #: transactions have finished — the open-loop property the
        #: traffic driver (:mod:`repro.runtime.openloop`) relies on.
        #: ``born_tick`` starts at the arrival, but each restart moves
        #: it: latency from the arrival is measured by the caller that
        #: offered it.  The stream's head, pulled one ahead, is a
        #: wake-calendar source; :meth:`_admit_arrivals` admits it on
        #: its tick.
        self._arrivals = iter(arrivals)
        self._head: Optional[Tuple[TransactionScript, int]] = None
        self._pull(0)

    # -- main loop -----------------------------------------------------------------

    def run(self) -> RunMetrics:
        """Run until every script commits or exhausts its restart budget."""
        if self.trace is not None:
            self.trace.emit("run-start", self.metrics.label)
        # ``next_live`` is the wake calendar's head: the earliest tick
        # at which anything — a backoff expiry, an arrival, a fault
        # calendar entry, a hold-timer flush — can possibly happen.
        # Ticks before it are provably dead: no event, no RNG draw, no
        # progress.
        faults = self.faults
        horizon = self.max_ticks + 1  # sentinel: no wake source ahead
        next_live = self._wake_plan(0, horizon) if self._unfinished() else 0
        converged = False
        tick = 0
        while tick < self.max_ticks:
            tick += 1
            if not self._unfinished():
                converged = True
                break
            dead = tick < next_live
            if dead:
                tick = self._cross_dead_ticks(
                    tick, min(next_live - 1, self.max_ticks)
                )
            self.metrics.ticks = tick
            if self.trace is not None:
                self.trace.begin_tick(tick)
            if dead:
                continue
            self._admit_arrivals(tick)
            ended = False
            try:
                # ``_active`` is read afresh, never kept across ticks: a
                # retired entry is dropped at the compaction below, and
                # nothing else may still hold it.  (Only a crash compacts
                # mid-tick, and a crash is progress.)
                if self._any_runnable(tick, self._active):
                    progressed = self._tick(tick, self._active)
                else:
                    # Nothing runnable: skip the scan and its RNG shuffle.
                    progressed = False
                if faults is not None:
                    due = faults.due(tick)
                    if due:
                        progressed = self.inject(tick, due) or progressed
                # The end-of-tick phase: the system clock moves and every
                # held group-commit batch now due is forced.
                ended = True
                self.system.tick()
                if not progressed:
                    self._break_stall(tick, self._active)
            except CrashPoint:
                # The process died at a log interaction: the rest of the
                # tick is skipped and the tick still ends once.
                self.inject(tick, [Fault(CRASH)])
                if self.audit is not None:
                    self.audit()
                if not ended:
                    self.system.tick()
            self._compact()
            if self._unfinished():
                next_live = self._wake_plan(tick, horizon)
        if not converged:
            raise RuntimeError(self._nonconvergence_report())
        self._harvest_force_accounting()
        if self.trace is not None:
            self.trace.emit("run-end", self.metrics.label, self.metrics.counters())
        sites = faults.failed_sites if faults is not None else ()
        if sites:
            # The run ends with every copy back in service: sites still
            # down recover, and catch-up does not wait for traffic.
            recover = [Fault(RECOVER_SITE, domain=k) for k in sites]
            self.inject(self.metrics.ticks, recover)
            self.system.poll_catchup()
        return self.metrics

    def inject(self, tick: int, faults: Iterable[Fault]) -> bool:
        """Fire ``faults`` at ``tick``, in order; True when a crash, a
        failure or a recovery fired (a checkpoint is not progress).

        Victims restart through :meth:`handle_crash`.  A site's failure
        is skipped while the site is down, its recovery while it is up.
        """
        system = self.system
        progressed = False
        for fault in faults:
            kind = fault.kind
            if kind == CHECKPOINT:
                system.checkpoint()
                continue
            if kind == RECOVER_SITE:
                if system.site_up(fault.domain):
                    continue
                system.recover_site(fault.domain)
            elif kind == FAIL_SITE:
                if not system.site_up(fault.domain):
                    continue
                self.handle_crash(system.fail_site(fault.domain), tick)
            elif kind == CRASH_SHARD:
                self.handle_crash(system.crash_shard(fault.domain), tick)
            else:
                self.handle_crash(system.crash(), tick)
            progressed = True
        return progressed

    def _cross_dead_ticks(self, tick: int, last: int) -> int:
        """Consume the dead ticks ``tick..last`` in one step and return
        the last tick consumed.  Only the system clock moves — the
        calendar guarantees no held batch falls due inside the stretch.
        (:func:`repro.reference.walk_dead_ticks` swaps in the oracle
        that walks them one ``system.tick()`` at a time.)"""
        self.system.tick(last - tick + 1)
        return last

    def _unfinished(self) -> bool:
        """Is any script still in the system or still to arrive?"""
        return bool(self._active) or self._head is not None

    def _admit(self, script: TransactionScript, tick: int) -> None:
        """Enter ``script`` into the system as of ``tick``.

        A name is used once per run.  The check reads the system's
        final statuses, which outlive the scheduler's entries: a script
        whose first incarnation (named after it) has finished, committed
        or aborted, is refused rather than merged with it."""
        name = script.name
        if name in self._live_names:
            raise ValueError(
                "script names must be unique: %s arrives while an entry "
                "of that name is live" % name
            )
        if self.system.status(name) != "active":
            raise ValueError(
                "script names must be unique: %s arrives after an entry "
                "of that name has finished" % name
            )
        self._live_names.add(name)
        self._active.append(
            _LiveTxn(script, name, len(self._commit_ticks), born_tick=tick)
        )
        self._commit_ticks.append(None)

    def _pull(self, floor: int) -> None:
        """Take the next arrival off the stream as the head (None when
        the stream is drained); its tick may not be below ``floor``, the
        tick of the arrival before it."""
        head = next(self._arrivals, None)
        if head is not None:
            script, tick = head
            if tick < floor:
                raise ValueError(
                    "arrivals must come in tick order, from tick 0: %s "
                    "arrives at %d, after an arrival at %d"
                    % (script.name, tick, floor)
                )
        self._head = head

    def _admit_arrivals(self, tick: int) -> None:
        """Admit every arrival whose tick has come, in stream order,
        before the tick's runnable test."""
        while self._head is not None and self._head[1] <= tick:
            script, arrival = self._head
            self._admit(script, arrival)
            self._pull(arrival)

    def _still_waiting(self, entry: _LiveTxn) -> bool:
        """Victim-waits-for-winners: drop the finished transactions from
        ``entry.wait_for``; True while any is left.  Idempotent —
        statuses are final once set and incarnation names never reuse —
        so the scan, the runnable test and the calendar may all apply
        it and reach the same answer.  The set is rebuilt only when a
        member has finished."""
        status = self.system.status
        waited = entry.wait_for
        if any(status(t) != "active" for t in waited):
            waited = entry.wait_for = frozenset(
                t for t in waited if status(t) == "active"
            )
        return bool(waited)

    def _refusal_stands(self, entry: _LiveTxn, obj_name: str) -> bool:
        """Is ``entry`` still refused at ``obj_name``, where it parked?

        A refusal — and its blocker set — is a function of the object's
        lock table and view, and the epoch moves whenever either does,
        so while the epoch stands another attempt would only repeat the
        refusal and the waits-for edges the first one recorded.
        (:func:`repro.reference.reattempt_every_tick` swaps in the
        oracle that makes that attempt and checks it.)"""
        return entry.parked == self.system.epoch(obj_name)

    def _any_runnable(self, tick: int, live: List[_LiveTxn]) -> bool:
        """Could any entry act at ``tick``?  Mirrors the skip checks at
        the top of :meth:`_tick`.  A parked entry counts: it costs the
        scan one epoch comparison, and keeping it runnable keeps every
        tick, shuffle and :meth:`_break_stall` call where it was."""
        for entry in live:
            if entry.wait_for and self._still_waiting(entry):
                continue
            if entry.backoff_until > tick:
                continue
            return True
        return False

    def _next_wake(self, tick: int) -> Optional[int]:
        """The earliest tick after ``tick`` at which anything can happen.

        Sources: the head of the arrival stream (a script arriving at
        tick A is admitted and runnable *at* A, so that tick itself is
        the wake), a backoff window expiring (likewise runnable *at*
        ``backoff_until``), an entry already runnable or newly released
        from ``wait_for`` (wakes at ``tick + 1``), the fault calendar's
        next entry, and the system's group-commit
        hold-timer deadline.  ``None`` means no source of future work
        exists at all.  Entries still waiting out winners contribute
        nothing: they wake via a status change, which needs a processed
        tick.
        """
        floor = tick + 1
        wake: Optional[int] = None
        if self._head is not None:
            wake = max(self._head[1], floor)
            if wake == floor:
                return floor
        for entry in self._active:
            # A waited-on transaction may have finished during the tick
            # that just ran, releasing this entry for the next one.
            if entry.wait_for and self._still_waiting(entry):
                continue
            w = entry.backoff_until if entry.backoff_until > tick else floor
            if wake is None or w < wake:
                if w <= floor:
                    return floor
                wake = w
        if self.faults is not None:
            w = self.faults.next_after(tick)
            if w is not None and (wake is None or w < wake):
                if w <= floor:
                    return floor
                wake = w
        deadline = self.system.next_deadline()
        if deadline is not None:
            w = tick + max(int(deadline), 1)
            if wake is None or w < wake:
                wake = w
        return wake

    def _wake_plan(self, tick: int, horizon: int) -> int:
        """Consult the wake calendar after ``tick``'s work is done and
        account the dead stretch ahead of the next wake.

        The accounting is ``dead_ticks_elided``/``calendar_wakeups``
        and one ``calendar-wake`` trace event per stretch.  A stretch
        that runs into the tick budget records a wake of 0 (nothing
        ever wakes).
        """
        wake = self._next_wake(tick)
        next_live = horizon if wake is None else min(wake, horizon)
        elided = min(next_live - 1, self.max_ticks) - tick
        if elided > 0:
            self.metrics.dead_ticks_elided += elided
            woke = next_live if next_live <= self.max_ticks else 0
            if woke:
                self.metrics.calendar_wakeups += 1
            if self.trace is not None:
                self.trace.emit("calendar-wake", woke, elided)
        return next_live

    def _retire(self, entry: _LiveTxn) -> None:
        entry.retired = True
        self._live_names.discard(entry.script.name)
        self._dirty = True

    def _compact(self) -> None:
        if self._dirty:
            self._active = [t for t in self._active if not t.retired]
            self._dirty = False

    def _nonconvergence_report(self) -> str:
        """Snapshot of the stuck state for the non-convergence error:
        enough to debug a hung run from a CI log alone."""
        lines = [
            "scheduler did not converge within %d ticks" % self.max_ticks
        ]
        live = [t for t in self._active if not t.retired]
        lines.append("live transactions (%d):" % len(live))
        for entry in live[:_DIAG_LIMIT]:
            parts = [
                "%s[%s]" % (entry.txn, self.system.status(entry.txn)),
                "step=%d/%d" % (entry.step, len(entry.script.steps)),
                "restarts=%d" % entry.restarts,
            ]
            if entry.parked is not None:
                parts.append(
                    "parked=%s@%d"
                    % (entry.script.steps[entry.step][0], entry.parked)
                )
            elif entry.backoff_until:
                parts.append("backoff_until=%d" % entry.backoff_until)
            if entry.script.read_only:
                parts.append("read_only")
            if entry.wait_for:
                parts.append("wait_for=%s" % ",".join(sorted(entry.wait_for)))
            lines.append("  " + " ".join(parts))
        if len(live) > _DIAG_LIMIT:
            lines.append("  ... and %d more" % (len(live) - _DIAG_LIMIT))
        if self._head is not None:
            # The run is over: the rest of the stream is pulled only to
            # be counted.
            script, tick = self._head
            pending = 1 + sum(1 for _ in self._arrivals)
            lines.append(
                "arrivals pending (%d): the next, %s, arrives=%d"
                % (pending, script.name, tick)
            )
        edges = sorted(self._waits.edges())
        if edges:
            lines.append("waits-for edges (%d):" % len(edges))
            for waiter, holder in edges[:_DIAG_LIMIT]:
                lines.append("  %s -> %s" % (waiter, holder))
            if len(edges) > _DIAG_LIMIT:
                lines.append("  ... and %d more" % (len(edges) - _DIAG_LIMIT))
        return "\n".join(lines)

    def _harvest_force_accounting(self) -> None:
        """Copy the system's cumulative log-force totals into the metrics."""
        forces, requests, records = self.system.force_accounting()
        self.metrics.forces = forces
        self.metrics.force_requests = requests
        self.metrics.forced_records = records

    def handle_crash(self, victims, tick: int) -> None:
        """Reset script instances whose transaction died in a crash.

        The system has already performed its crash protocol (the victims
        are aborted there); this is the scheduler-side bookkeeping —
        dead incarnations restart as fresh transactions, like deadlock
        victims, and the waits-for graph (volatile lock state) is discarded.
        """
        for entry in self._active:
            # The waits-for graph is discarded below, so every survivor
            # re-attempts once to record its edges afresh.
            entry.parked = None
            if entry.txn in victims:
                # A read-only victim (its snapshot died with its system
                # or shard) is a read-only abort, not a crash abort.  No
                # backoff: the crash already scrambled the interleaving
                # a window would avoid, and lock state is gone.
                if not entry.script.read_only:
                    self.metrics.crash_aborts += 1
                self._restart(entry, tick, "crash", backoff=False)
        # In-doubt resolution can have committed a done entry outside a
        # scan transition.  Sweep so the active list stays in step with
        # the system's statuses.
        for entry in self._active:
            if not entry.retired and self._is_retired(entry):
                self._retire(entry)
        self._compact()
        self._waits = WaitsForGraph()

    def commit_ticks(self) -> List[Optional[int]]:
        """Per admitted script, in admission order (the ``scripts``,
        then the arrivals as they were pulled): the tick at which the
        scan committed it, over update and read-only scripts alike, or
        None.  A commit that crash-time in-doubt resolution completed
        has no tick here, as it has no ``txn-commit`` event."""
        return list(self._commit_ticks)

    def _is_retired(self, live: _LiveTxn) -> bool:
        """Finished successfully, or out of restart budget."""
        if live.done and self.system.status(live.txn) == "committed":
            return True
        return live.restarts > self.max_restarts

    def _tick(self, tick: int, live: List[_LiveTxn]) -> bool:
        """One pass over the live transactions; True if anything progressed."""
        order = list(live)
        self.rng.shuffle(order)
        progressed = False
        for entry in order:
            if entry.wait_for and self._still_waiting(entry):
                # Re-enter only once every surviving member of the
                # deadlock cycle this entry died in has finished (each
                # is an incarnation the scheduler drives to commit or
                # abort).  Sitting out is not progress: if nothing else
                # moves, the stall-breaker must still run so the
                # waited-on transactions unblock.
                continue
            if entry.backoff_until > tick:
                continue
            if entry.script.read_only:
                progressed = self._tick_readonly(entry, tick) or progressed
                continue
            if entry.done:
                if self.system.commit(entry.txn):
                    self.metrics.committed += 1
                    self._commit_ticks[entry.seq] = tick
                    self._retire(entry)
                    self._waits.remove_transaction(entry.txn)
                    if self.trace is not None:
                        self.trace.emit(
                            "txn-commit",
                            entry.txn,
                            entry.script.name,
                            entry.born_tick,
                            tick - entry.born_tick,
                            entry.stall_ticks,
                        )
                    progressed = True
                elif self.system.status(entry.txn) == "active":
                    # Group commit: the transaction's durable work sits
                    # in a held batch.  That is a durability stall, not
                    # a lock wait — the batch's due tick bounds it, so it
                    # counts as progress (no deadlock victim needed).
                    self.metrics.commit_stall_ticks += 1
                    entry.stall_ticks += 1
                    if self.trace is not None:
                        self.trace.emit("commit-stall", entry.txn)
                    progressed = True
                else:
                    # An object voted no: the system aborted it everywhere.
                    self._abort_and_restart(entry, tick, reason="validation")
                    progressed = True
                continue
            obj_name, invocation = entry.script.steps[entry.step]
            if entry.parked is not None and self._refusal_stands(
                entry, obj_name
            ):
                # Asleep on an unchanged object: no attempt, no count,
                # no event, and the waits-for edges stand as recorded.
                continue
            outcome = self.system.invoke(entry.txn, obj_name, invocation, self.rng)
            if outcome.ok:
                entry.step += 1
                entry.parked = None
                self.metrics.operations += 1
                self._waits.clear_waiter(entry.txn)
                if self.trace is not None:
                    self.trace.emit("op-ok", entry.txn, obj_name, invocation)
                progressed = True
            elif outcome.status == "blocked":
                self.metrics.blocked_attempts += 1
                # Read after the attempt: an attempt on a replicated
                # object can itself admit a recovered copy.
                entry.parked = self.system.epoch(obj_name)
                waiter = entry.txn
                cycle = self._waits.wait(waiter, outcome.blockers)
                if self.trace is not None:
                    self.trace.emit(
                        "op-blocked",
                        waiter,
                        obj_name,
                        invocation,
                        tuple(outcome.blockers),
                    )
                # One wait can close several cycles, each through the
                # waiter: break them all before the scan moves on.
                while cycle is not None:
                    self._break_cycle(cycle, tick, live)
                    progressed = True
                    cycle = self._waits.find_cycle(waiter)
            else:  # stuck: the recovery view is illegal; abort immediately
                self.metrics.stuck_aborts += 1
                if self.trace is not None:
                    self.trace.emit("op-stuck", entry.txn, obj_name, invocation)
                self._abort_and_restart(entry, tick, reason="stuck")
                progressed = True
        return progressed

    def _tick_readonly(self, entry: _LiveTxn, tick: int) -> bool:
        """One step of a read-only snapshot transaction.

        Snapshot reads never block and take no locks, so a runnable
        read-only entry always progresses: a read resolves against its
        snapshot, completion commits instantly (nothing to prepare or
        force), and a poisoned snapshot (negative-control relations
        only) aborts and restarts on the spot.
        """
        if entry.done:
            self.system.finish_readonly(entry.txn)
            self.metrics.ro_committed += 1
            self._commit_ticks[entry.seq] = tick
            self._retire(entry)
            self._waits.remove_transaction(entry.txn)
            if self.trace is not None:
                self.trace.emit(
                    "ro-commit",
                    entry.txn,
                    entry.script.name,
                    entry.born_tick,
                    tick - entry.born_tick,
                )
            return True
        obj_name, invocation = entry.script.steps[entry.step]
        outcome = self.system.snapshot_read(entry.txn, obj_name, invocation)
        if outcome.ok:
            entry.step += 1
            self.metrics.ro_snapshot_reads += 1
            return True
        self._abort_and_restart(entry, tick, reason="stuck")
        return True

    def _break_cycle(
        self, cycle: Sequence[str], tick: int, live: List[_LiveTxn]
    ) -> None:
        """The wait just recorded closed ``cycle``: abort its victim now,
        to re-enter only once the surviving members have finished.  With
        every cycle broken on the wait that closes it, the waits-for
        graph is acyclic between waits, and the only cycles a wait can
        close run through its waiter."""
        self.metrics.deadlocks += 1
        victim = self._pick_victim(cycle, live)
        survivors = frozenset(cycle) - {victim.txn}
        if self.trace is not None:
            self.trace.emit("deadlock", victim.txn, cycle)
        self._abort_and_restart(victim, tick, reason="deadlock", wait_for=survivors)

    def _break_stall(self, tick: int, live: List[_LiveTxn]) -> None:
        """No transaction progressed, and no waits-for cycle stands (each
        was broken at its wait).  If some transactions are genuinely
        runnable (not napping, not waiting) but blocked, abort one with
        the victim rule's aging key; if everyone is merely napping or
        waiting out winners, do nothing — backoffs expire with the tick
        counter and waits resolve when their targets finish."""
        blocked = [
            t
            for t in live
            if not t.done
            and not t.wait_for
            and not t.script.read_only  # snapshot readers never block
            and t.backoff_until <= tick
        ]
        if blocked:
            self._abort_and_restart(
                self._victim_key_min(blocked), tick, reason="deadlock"
            )

    def _pick_victim(
        self, cycle: Sequence[str], live: List[_LiveTxn]
    ) -> _LiveTxn:
        """The cycle member with the fewest prior restarts.

        Restart count is the seniority measure (wait-die-style aging): a
        transaction that has already been sacrificed gains immunity, so
        no script can starve under repeated deadlocks.  Ties break
        toward the youngest incarnation with the least sunk work.  Every
        member is a live entry: only the scan records waits, and an
        entry leaves the graph when it commits, aborts or restarts.  (The
        key is unique by script name, so the members' order is moot.)
        """
        members = set(cycle)
        return self._victim_key_min([t for t in live if t.txn in members])

    @staticmethod
    def _victim_key_min(members: List[_LiveTxn]) -> _LiveTxn:
        return min(
            members,
            key=lambda t: (t.restarts, -t.born_tick, t.step, t.script.name),
        )

    def _abort_and_restart(
        self,
        entry: _LiveTxn,
        tick: int,
        reason: str,
        wait_for: FrozenSet[str] = frozenset(),
    ) -> None:
        try:
            self.system.abort(entry.txn)
        except InvalidTransactionState:
            pass  # already finished: a refused commit aborted it
        self._waits.remove_transaction(entry.txn)
        self._restart(entry, tick, reason, wait_for)

    def _restart(
        self,
        entry: _LiveTxn,
        tick: int,
        reason: str,
        wait_for: FrozenSet[str] = frozenset(),
        backoff: bool = True,
    ) -> None:
        """Account ``entry``'s dead incarnation (already aborted in the
        system) and start the next at ``tick``, after a randomized
        window if ``backoff`` — or retire the script, its budget spent."""
        if entry.script.read_only:
            # Read-only deaths are accounted separately: they hold no
            # locks, appear in no object history, and never roll back
            # updates, so folding them into ``aborted`` would distort
            # the update-path contention metrics.
            self.metrics.ro_aborts += 1
            kind = "ro-abort"
        else:
            self.metrics.aborted += 1
            kind = "txn-abort"
        if self.trace is not None:
            self.trace.emit(kind, entry.txn, reason)
        entry.parked = None
        entry.restarts += 1
        if entry.restarts > self.max_restarts:
            self._retire(entry)
            return
        self.metrics.restarts += 1
        entry.txn = "%s~r%d" % (entry.script.name, entry.restarts)
        entry.step = 0
        entry.born_tick = tick
        entry.stall_ticks = 0
        entry.wait_for = wait_for
        entry.backoff_until = 0
        if backoff:
            # Randomized exponential backoff breaks repeat-collision
            # livelock: the window grows with the restart count until a
            # conflicting peer can finish a whole transaction inside it.
            horizon = max(2, len(entry.script.steps)) * min(
                1 + entry.restarts, 32
            )
            entry.backoff_until = tick + self.rng.randint(1, horizon)
        if self.trace is not None:
            self.trace.emit(
                "txn-restart",
                entry.txn,
                entry.restarts,
                entry.backoff_until,
                reason,
            )


def run_scripts(
    system: TransactionSystem,
    scripts: Sequence[TransactionScript],
    *,
    seed: int = 0,
    label: str = "",
    max_restarts: int = 25,
    max_ticks: int = 100_000,
) -> RunMetrics:
    """Convenience: build a scheduler, run it, return the metrics."""
    scheduler = Scheduler(
        system,
        scripts,
        seed=seed,
        label=label,
        max_restarts=max_restarts,
        max_ticks=max_ticks,
    )
    return scheduler.run()
