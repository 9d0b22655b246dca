"""Jumping dead ticks is byte-identical to walking them.

The wake calendar (``repro.runtime.scheduler``) jumps provably-dead
ticks; these tests pin the claim that the jump is unobservable — same
histories, same RunMetrics, same JSONL trace streams, same RNG draws as
the walking oracle (``repro.reference.walk_dead_ticks``) —
across the axes the runtime supports: crash schedules, group-commit
holds, shards, sites, read mixes and open-loop arrivals.  Alongside the
differential matrix: boundary pins for ``backoff_until`` (a restarted
transaction is runnable *at* its wake tick, never one off), a lockstep
per-tick trace comparison on a crash-heavy case, the system clock's
heap of due ticks (its live head against the logs computed the slow
way, a jump refused where a batch would fall due inside it, and the
flush tick of a batch opened in each phase of a tick), and the
non-convergence diagnostic snapshot.
"""

import gc
import random
import weakref

import pytest

from repro.adts import BankAccount
from repro.core.events import inv
from repro.reference import walk_dead_ticks
from repro.runtime import ManagedObject, TransactionSystem
from repro.runtime.openloop import OpenLoopConfig, drive
from repro.runtime.replication import build_replicated_system, copy_name
from repro.runtime.scheduler import (
    Scheduler,
    TransactionScript,
    periodic_wake,
    schedule_wake,
)
from repro.runtime.sharding import build_sharded_system
from repro.runtime.torture import (
    SiteCrash,
    TortureConfig,
    plan_campaign,
    run_schedule,
)
from repro.runtime.trace import TraceCollector, reconstruct_counters
from repro.runtime.wal import GroupCommitPolicy, StableLog

# ---------------------------------------------------------------------------
# differential matrix: jumped vs walked, axis by axis
# ---------------------------------------------------------------------------


def _torture_cells(config, schedules, seed):
    rows = []
    trace = TraceCollector()
    for cfg, plan, run_seed in plan_campaign(
        [config], schedules=schedules, seed=seed
    ):
        r = run_schedule(cfg, plan, seed=run_seed, trace=trace)
        rows.append(
            (r.schedule, r.committed, r.crashes, sorted(r.violations))
        )
    return rows, [dict(e) for e in trace.events]


def _site_cells(config, seed):
    crashes = [SiteCrash(1, 6, 30), SiteCrash(0, 45, 0)]
    trace = TraceCollector()
    r = run_schedule(config, crashes, seed=seed, trace=trace)
    return (
        (r.schedule, r.committed, r.crashes, sorted(r.violations)),
        [dict(e) for e in trace.events],
    )


def _drive_cell(config, seed):
    trace = TraceCollector()
    report = drive(config, seed=seed, trace=trace)
    return (
        report.metrics.counters(),
        report.latencies,
        [dict(e) for e in trace.events],
    )


DRIVE_CASES = {
    # sparse arrivals: the elision-heavy case (most ticks are dead)
    "sparse": OpenLoopConfig(
        adt_kind="counter",
        objects=12,
        transactions=30,
        arrival_rate=0.02,
        zipf_s=0.9,
    ),
    # read-mix on the snapshot path
    "read_mix": OpenLoopConfig(
        adt_kind="counter",
        objects=12,
        transactions=36,
        arrival_rate=0.2,
        zipf_s=1.1,
        read_mix=0.4,
    ),
    # sharded runtime, cross-shard traffic
    "shards": OpenLoopConfig(
        adt_kind="counter",
        objects=16,
        shards=2,
        transactions=40,
        arrival_rate=0.5,
        zipf_s=0.8,
        cross_shard=0.2,
        group_commit=2,
        hold=3,
    ),
    # replicated sites through a crash/recovery window, held batches
    "sites": OpenLoopConfig(
        adt_kind="counter",
        objects=10,
        transactions=30,
        arrival_rate=0.1,
        sites=2,
        site_crashes=((1, 40, 200),),
        group_commit=2,
        hold=4,
    ),
}


def _jumped_and_walked(fn):
    jumped = fn()
    with walk_dead_ticks():
        walked = fn()
    return jumped, walked


class TestDifferentialMatrix:

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "config",
        [
            TortureConfig("counter", "DU", group_commit=2, hold=4),
            TortureConfig(
                "bank", "UIP", transactions=3, ops_per_txn=4, hold=2
            ),
        ],
        ids=["counter-du-gc2", "bank-uip"],
    )
    def test_torture_crash_schedules(self, config, seed):
        jumped, walked = _jumped_and_walked(
            lambda: _torture_cells(config, 8, seed)
        )
        assert jumped == walked

    @pytest.mark.parametrize("seed", [0, 3])
    def test_site_crash_torture(self, seed):
        config = TortureConfig(
            "counter", "DU", sites=2, group_commit=2, hold=3
        )
        jumped, walked = _jumped_and_walked(
            lambda: _site_cells(config, seed)
        )
        assert jumped == walked

    @pytest.mark.parametrize("case", sorted(DRIVE_CASES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_open_loop_drives(self, case, seed):
        jumped, walked = _jumped_and_walked(
            lambda: _drive_cell(DRIVE_CASES[case], seed)
        )
        assert jumped == walked
        if case == "sparse":
            counters = jumped[0]
            assert counters["dead_ticks_elided"] > 0
            assert counters["calendar_wakeups"] > 0

    def test_sparse_drive_reconciles(self):
        counters, _, events = _drive_cell(DRIVE_CASES["sparse"], 5)
        rebuilt = reconstruct_counters(
            [e for e in events if e["kind"] != "drive-start"]
        )
        for name in ("dead_ticks_elided", "calendar_wakeups", "ticks"):
            assert rebuilt[name] == counters[name]


# ---------------------------------------------------------------------------
# lockstep per-tick comparison on a crash-heavy schedule
# ---------------------------------------------------------------------------


class TestLockstepTraces:
    def test_crash_heavy_traces_match_tick_by_tick(self):
        """Compare the two loops' trace streams tick group by tick
        group, so any divergence is localized to its first tick rather
        than drowned in a whole-stream diff."""
        config = TortureConfig(
            "bank", "DU", transactions=4, ops_per_txn=3,
            group_commit=2, hold=3,
        )

        def run():
            rows, events = _torture_cells(config, 10, seed=1)
            return events

        jumped_stream, walked_stream = _jumped_and_walked(run)
        assert any(e["kind"] == "crash" for e in jumped_stream)

        def by_tick(stream):
            groups = []
            for e in stream:
                if groups and groups[-1][0] == e["tick"]:
                    groups[-1][1].append(e)
                else:
                    groups.append((e["tick"], [e]))
            return groups

        jumped_groups = by_tick(jumped_stream)
        walked_groups = by_tick(walked_stream)
        for i, (jgroup, wgroup) in enumerate(
            zip(jumped_groups, walked_groups)
        ):
            assert jgroup == wgroup, (
                "first divergence at tick group %d (tick %s): %r != %r"
                % (i, jgroup[0], jgroup, wgroup)
            )
        assert len(jumped_groups) == len(walked_groups)


# ---------------------------------------------------------------------------
# backoff boundary: runnable exactly AT backoff_until
# ---------------------------------------------------------------------------


def _one_shot_system():
    ba = BankAccount("BA")
    return TransactionSystem([ManagedObject(ba, ba.nrbc_conflict(), "UIP")])


def _arrival_scheduler(arrival, **kwargs):
    scripts = [TransactionScript("T", (("BA", inv("deposit", 1)),))]
    return Scheduler(
        _one_shot_system(),
        scripts,
        seed=0,
        trace=TraceCollector(),
        arrivals={"T": arrival},
        **kwargs,
    )


class TestBackoffBoundary:
    def test_arrival_runs_exactly_at_backoff_until(self):
        """An entry whose ``backoff_until`` is B acts at tick B — not
        B+1 (off-by-one in the calendar) and not B-1 (early wake)."""
        scheduler = _arrival_scheduler(10)
        scheduler.run()
        ticks = {
            e["kind"]: e["tick"] for e in scheduler.trace.events
        }
        assert ticks["op-ok"] == 10
        assert scheduler.metrics.dead_ticks_elided == 9

    def test_wake_is_backoff_until_not_one_off(self):
        scheduler = _arrival_scheduler(10)
        entry = scheduler._arrival_queue[0]
        assert not scheduler._active  # still to arrive: not in the system
        # one before the window opens: not admitted, wake names B exactly
        scheduler._admit_arrivals(9)
        assert not scheduler._any_runnable(9, scheduler._active)
        assert scheduler._next_wake(8) == 10
        assert scheduler._next_wake(9) == 10
        # at the boundary: admitted and runnable, the wake moves to the floor
        scheduler._admit_arrivals(10)
        assert scheduler._active == [entry] and not scheduler._arrival_queue
        assert scheduler._any_runnable(10, scheduler._active)
        assert scheduler._next_wake(10) == 11
        # one after: still runnable
        assert scheduler._any_runnable(11, scheduler._active)
        # admitted is admitted: the arrival tick is not a backoff window
        assert entry.backoff_until == 0
        assert scheduler._any_runnable(1, scheduler._active)
        assert scheduler._next_wake(0) == 1

    def test_calendar_wake_event_names_the_boundary(self):
        scheduler = _arrival_scheduler(10)
        scheduler.run()
        wakes = [
            e for e in scheduler.trace.events if e["kind"] == "calendar-wake"
        ]
        assert wakes and wakes[0]["wake"] == 10
        assert wakes[0]["elided"] == 9
        assert wakes[0]["tick"] == 0


# ---------------------------------------------------------------------------
# undeclared hooks, wake helpers
# ---------------------------------------------------------------------------


class TestModeResolution:
    def test_uncapable_hook_falls_back_to_polling(self):
        hits = []

        def hook(tick):
            hits.append(tick)
            return False

        scheduler = _arrival_scheduler(6, on_tick=hook)
        metrics = scheduler.run()
        assert metrics.committed == 1
        # no next_wake on the hook: every tick must still reach it
        assert hits == list(range(1, metrics.ticks + 1))
        assert metrics.dead_ticks_elided == 0

    def test_walked_oracle_never_jumps(self, monkeypatch):
        """The differential matrix is not vacuous: under the oracle the
        system clock only ever moves one tick at a time, and the
        calendar accounting still runs."""
        tick = TransactionSystem.tick

        def no_jump(self, n=1):
            if n > 1:
                raise AssertionError("tick(%d) under the oracle" % n)
            tick(self, n)

        monkeypatch.setattr(TransactionSystem, "tick", no_jump)
        with walk_dead_ticks():
            metrics = _arrival_scheduler(4).run()
        assert metrics.committed == 1
        assert metrics.dead_ticks_elided == 3
        with pytest.raises(AssertionError, match=r"tick\(3\)"):
            _arrival_scheduler(4).run()

    def test_periodic_wake(self):
        wake = periodic_wake(10)
        assert wake(0) == 10
        assert wake(9) == 10
        assert wake(10) == 20
        assert periodic_wake(0)(5) is None

    def test_schedule_wake(self):
        wake = schedule_wake([30, 8, 0, 8])
        assert wake(0) == 8
        assert wake(8) == 30
        assert wake(30) is None


# ---------------------------------------------------------------------------
# hold-timer deadlines: the system's heap of due ticks
# ---------------------------------------------------------------------------


def _durable(name, hold, batch=8):
    account = BankAccount(name)
    return ManagedObject(
        account,
        account.nfc_conflict(),
        "DU",
        log=StableLog(
            policy=GroupCommitPolicy(batch_size=batch, max_hold=hold)
        ),
    )


def _check_heap(system):
    """The heap's live head is the earliest due tick over the logs that
    hold a batch, computed the slow way, and a log records a due tick
    exactly while it holds one.  Returns the ticks until that head."""
    logs = [obj.wal.log for obj in system.objects.values()]
    for log in logs:
        assert (log.due is not None) == bool(log.held_batch_size())
    slow = min((log.due for log in logs if log.held_batch_size()), default=None)
    assert system._next_due() == slow
    deadline = None if slow is None else slow - system._clock.now
    assert system.next_deadline() == deadline
    return deadline


class _Crash(Exception):
    """Unwinds ``Scheduler.run`` the way a torture crash point does."""


def _flush_ticks(phase, hold):
    """``[(tick, kind)]`` of one run's force requests and forces (and
    ``(0, "run")`` at each run start) when its only batch not opened by
    the transaction's own commit opens in ``phase``: before the run, in
    the scan, in ``on_tick``, in ``_break_stall``, or before a run
    re-entered after a crash unwound the first (the scheduler's tick
    starts again at 0; the system clock does not)."""
    ba = _durable("BA", hold)
    system = TransactionSystem([ba])
    log = ba.wal.log
    trace = TraceCollector()
    scripts = [TransactionScript("T", (("BA", inv("deposit", 1)),))]
    arrivals = {"T": 12}
    on_tick = None
    if phase == "scan":
        arrivals = {"T": 2}
    elif phase == "on_tick":

        def on_tick(tick):
            if tick == 3:
                log.request_force()
            return False

        on_tick.next_wake = schedule_wake([3])
    elif phase == "break_stall":

        def on_tick(tick):  # undeclared: every tick is processed
            return False

    elif phase == "re_entry":
        arrivals = {"T": 1}

        def on_tick(tick):
            if tick == 2 and not system.crash_count:
                raise _Crash()
            return False

        on_tick.next_wake = schedule_wake([2])
    scheduler = Scheduler(
        system, scripts, arrivals=arrivals, on_tick=on_tick, trace=trace
    )
    if phase == "break_stall":
        breaker = scheduler._break_stall

        def break_stall(tick, live):
            if tick == 3:
                log.request_force()
            breaker(tick, live)

        scheduler._break_stall = break_stall
    if phase == "before_run":
        log.request_force()
    if phase == "re_entry":
        with pytest.raises(_Crash):
            scheduler.run()
        scheduler.handle_crash(system.crash())
        log.request_force()
    scheduler.run()
    kinds = {"force-request": "request", "force": "force", "run-start": "run"}
    return [(e["tick"], kinds[e["kind"]]) for e in trace.events if e["kind"] in kinds]


#: ``_flush_ticks`` per (phase, max_hold), recorded when each log still
#: counted its own hold down tick by tick: the due tick must land every
#: flush exactly where that countdown did.
FLUSH_TICKS = {
    ("before_run", 0): [(0, "request"), (0, "run"), (1, "force"), (13, "request"),
                        (13, "force"), (14, "request"), (14, "force")],
    ("before_run", 2): [(0, "request"), (0, "run"), (3, "force"), (13, "request"),
                        (15, "force"), (16, "request"), (18, "force")],
    ("scan", 0): [(0, "run"), (3, "request"), (3, "force"), (4, "request"),
                  (4, "force")],
    ("scan", 2): [(0, "run"), (3, "request"), (5, "force"), (6, "request"),
                  (8, "force")],
    ("on_tick", 0): [(0, "run"), (3, "request"), (3, "force"), (13, "request"),
                     (13, "force"), (14, "request"), (14, "force")],
    ("on_tick", 2): [(0, "run"), (3, "request"), (5, "force"), (13, "request"),
                     (15, "force"), (16, "request"), (18, "force")],
    ("break_stall", 0): [(0, "run"), (3, "request"), (4, "force"), (13, "request"),
                         (13, "force"), (14, "request"), (14, "force")],
    ("break_stall", 2): [(0, "run"), (3, "request"), (6, "force"), (13, "request"),
                         (15, "force"), (16, "request"), (18, "force")],
    ("re_entry", 0): [(0, "run"), (2, "request"), (2, "request"), (0, "run"),
                      (1, "force"), (2, "request"), (2, "force"), (3, "request"),
                      (3, "force")],
    ("re_entry", 2): [(0, "run"), (2, "request"), (2, "request"), (0, "run"),
                      (2, "request"), (3, "force"), (4, "request"), (6, "force")],
}


class TestHoldTimerDeadline:
    """One system clock, one heap of ``(due, log position)``: checked
    against the logs after every request, fill, force, checkpoint,
    crash, shard crash, site failure and site recovery."""

    def test_idle_log_has_no_deadline(self):
        system = TransactionSystem([_durable("A", 3), _durable("B", 0)])
        assert _check_heap(system) is None
        system.tick(100)  # nothing held: any jump is dead
        assert _check_heap(system) is None

    def test_deadline_counts_down_with_ticks(self):
        a = _durable("A", 3)
        system = TransactionSystem([a])
        system.tick(5)
        a.wal.log.request_force()
        assert a.wal.log.due == 5 + 3 + 1
        assert _check_heap(system) == 4  # forced by the 4th tick (hold > 3)
        system.tick()
        assert _check_heap(system) == 3
        system.tick()
        system.tick()
        assert _check_heap(system) == 1
        assert a.wal.log.forces == 0
        system.tick()  # due: forced
        assert a.wal.log.forces == 1
        assert _check_heap(system) is None

    def test_due_tick_is_max_hold_plus_one_ahead(self):
        """Off-by-one pins: with ``max_hold = h`` a batch is still held
        after ``h`` end-of-tick phases and forced by the next one."""
        for hold in (0, 1, 4):
            a = _durable("A", hold)
            system = TransactionSystem([a])
            system.tick(7)
            a.wal.log.request_force()
            assert a.wal.log.due == 7 + hold + 1
            for _ in range(hold):
                system.tick()
            assert a.wal.log.forces == 0 and _check_heap(system) == 1
            system.tick()
            assert a.wal.log.forces == 1 and _check_heap(system) is None

    @pytest.mark.parametrize("hold", [0, 2])
    @pytest.mark.parametrize(
        "phase", ["before_run", "scan", "on_tick", "break_stall", "re_entry"]
    )
    def test_flush_tick_of_a_batch_opened_in_each_phase(self, phase, hold):
        assert _flush_ticks(phase, hold) == FLUSH_TICKS[phase, hold]

    def test_advance_equals_that_many_ticks(self):
        """A jump of ``n`` dead ticks, ``tick(n)``, leaves what ``n``
        single ticks leave."""
        ticked, jumped = _durable("A", 3), _durable("A", 3)
        walking = TransactionSystem([ticked])
        jumping = TransactionSystem([jumped])
        ticked.wal.log.request_force()
        jumped.wal.log.request_force()
        for _ in range(3):
            walking.tick()
        jumping.tick(3)
        assert _check_heap(jumping) == _check_heap(walking) == 1
        assert jumped.wal.log.forces == ticked.wal.log.forces == 0

    def test_advance_refuses_to_jump_the_deadline(self):
        a = _durable("A", 3)
        system = TransactionSystem([a])
        a.wal.log.request_force()
        with pytest.raises(ValueError, match="would jump"):
            system.tick(4)
        assert system._clock.now == 0 and a.wal.log.forces == 0
        system.tick(0)  # no-op
        system.tick(3)
        assert _check_heap(system) == 1
        system.tick()  # a single tick never refuses: it forces
        assert a.wal.log.forces == 1

    def test_system_deadline_is_min_over_objects(self):
        a, b = _durable("A", 5), _durable("B", 2)
        system = TransactionSystem([a, b])
        assert _check_heap(system) is None
        for obj in (a, b):
            obj.wal.log.request_force()
        assert _check_heap(system) == 3  # min(6, 3)
        system.tick(2)
        assert _check_heap(system) == 1

    def test_force_requested_on_a_log_directly(self):
        a, b, c = _durable("A", 5), _durable("B", 2), _durable("C", 9)
        system = TransactionSystem([a, b, c])
        assert _check_heap(system) is None
        a.wal.log.request_force()
        assert _check_heap(system) == 6
        b.wal.log.request_force()
        b.wal.log.request_force()  # joins the held batch: no new entry
        assert _check_heap(system) == 3
        assert len(system._clock.dues) == 2

    def test_batch_flushed_by_force_then_held_again(self):
        a, b = _durable("A", 5), _durable("B", 2)
        system = TransactionSystem([a, b])
        b.wal.log.request_force()
        assert _check_heap(system) == 3
        b.wal.log.force()  # flushed behind the system's back
        assert _check_heap(system) is None
        system.tick()
        b.wal.log.request_force()  # a new batch, due from the new clock
        a.wal.log.request_force()
        assert _check_heap(system) == 3
        assert b.wal.log.due == 1 + 2 + 1

    def test_batch_flushed_by_filling(self):
        a = _durable("A", 5, batch=2)
        system = TransactionSystem([a])
        a.wal.log.request_force()
        assert _check_heap(system) == 6
        a.wal.log.request_force()  # batch full: flushes in the request
        assert a.wal.log.forces == 1
        assert _check_heap(system) is None
        system.tick(10)  # the stale entry forces nothing
        assert a.wal.log.forces == 1

    def test_tick_and_advance_move_exactly_the_held_timers(self):
        a, b, c = _durable("A", 5), _durable("B", 2), _durable("C", 9)
        system = TransactionSystem([a, b, c])
        a.wal.log.request_force()
        b.wal.log.request_force()
        system.tick(2)
        assert _check_heap(system) == 1
        assert (a.wal.log.due, c.wal.log.due) == (6, None)
        system.tick()  # B is due: its batch is forced
        assert (b.wal.log.forces, a.wal.log.forces) == (1, 0)
        assert _check_heap(system) == 3
        c.wal.log.request_force()
        system.tick()
        assert _check_heap(system) == 2
        assert (a.wal.log.due, c.wal.log.due) == (6, 3 + 9 + 1)

    def test_batches_due_together_are_forced_in_object_order(self):
        a, b = _durable("A", 2), _durable("B", 2)
        system = TransactionSystem([a, b])
        trace = TraceCollector()
        trace.bind_system(system)
        b.wal.log.request_force()
        a.wal.log.request_force()
        system.tick(2)
        system.tick()
        forced = [e["obj"] for e in trace.events if e["kind"] == "force"]
        assert forced == ["A", "B"]

    def test_a_finished_system_is_freed_without_the_cycle_collector(self):
        """A log's booking hook must not reach back to its system: a
        campaign builds a system per schedule, and one left to the cycle
        collector holds its objects, histories and logs meanwhile."""
        gc.disable()
        try:
            a, b = _durable("A", 2), _durable("B", 2)
            system = TransactionSystem([a, b])
            a.wal.log.request_force()
            scripts = [TransactionScript("T", (("B", inv("deposit", 1)),))]
            Scheduler(system, scripts).run()
            freed = weakref.ref(system), weakref.ref(a.wal.log)
            del system, a, b
            assert [ref() for ref in freed] == [None, None]
        finally:
            gc.enable()

    def test_objects_handed_over_with_a_batch_already_held(self):
        a, b = _durable("A", 5), _durable("B", 2)
        b.wal.log.request_force()  # before any system exists
        assert b.wal.log.due is None
        system = TransactionSystem([a, b])
        assert _check_heap(system) == 3  # it opens when the system does

    def test_crash_with_a_batch_held(self):
        a, b = _durable("A", 5), _durable("B", 2)
        system = TransactionSystem([a, b])
        a.wal.log.request_force()
        b.wal.log.request_force()
        assert _check_heap(system) == 3
        system.crash()  # held batches die with the process
        assert _check_heap(system) is None
        a.wal.log.request_force()
        assert _check_heap(system) == 6

    def test_checkpoint_flushes_the_held_batch(self):
        a, b = _durable("A", 5), _durable("B", 2)
        system = TransactionSystem([a, b])
        b.wal.log.request_force()
        b.checkpoint()
        assert _check_heap(system) is None
        b.wal.log.request_force()
        assert _check_heap(system) == 3

    def test_shard_crash_and_site_failure_and_recovery(self):
        sharded = build_sharded_system(
            "counter", ["X", "Y", "Z", "W"], shards=2, group_commit=4, hold=3
        )
        for obj in sharded.objects.values():
            obj.wal.log.request_force()
        assert _check_heap(sharded) == 4
        sharded.crash_shard(0)
        assert _check_heap(sharded) == 4
        sharded.crash_shard(1)
        assert _check_heap(sharded) is None

        replicated = build_replicated_system(
            "counter", ["X", "Y"], sites=2, group_commit=4, hold=3
        )
        remote = replicated.objects[copy_name("X", 1)]
        remote.wal.log.request_force()
        assert _check_heap(replicated) == 4
        replicated.fail_site(1)
        assert _check_heap(replicated) is None
        replicated.recover_site(1)
        assert _check_heap(replicated) is None
        remote.wal.log.request_force()
        replicated.objects[copy_name("Y", 0)].wal.log.request_force()
        replicated.tick()
        assert _check_heap(replicated) == 3


# ---------------------------------------------------------------------------
# non-convergence diagnostics
# ---------------------------------------------------------------------------


class TestNonConvergenceDiagnostics:
    def test_report_includes_live_snapshot(self):
        scheduler = _arrival_scheduler(50, max_ticks=10)
        with pytest.raises(RuntimeError) as excinfo:
            scheduler.run()
        message = str(excinfo.value)
        # legacy first line preserved for grep/match compatibility
        assert message.startswith(
            "scheduler did not converge within 10 ticks"
        )
        assert "live transactions (1):" in message
        assert "arrives=50" in message  # still in the arrival queue
        assert "step=0/1" in message

    def test_report_includes_waits_for_edges(self):
        scheduler = _arrival_scheduler(0, max_ticks=5)
        scheduler._waits.wait("T", frozenset({"U"}))
        message = scheduler._nonconvergence_report()
        assert "waits-for edges (1):" in message
        assert "T -> U" in message

    def test_report_says_what_a_parked_entry_waits_on(self):
        """A lock-blocked entry names the object it sleeps on and the
        epoch it is waiting to see move; ``backoff_until=`` is printed
        only for an entry that has a backoff window."""
        system = _one_shot_system()
        system.invoke("HOLDER", "BA", inv("withdraw", 1))
        scheduler = Scheduler(
            system,
            [
                TransactionScript("T", (("BA", inv("deposit", 1)),)),
                TransactionScript("U", (("BA", inv("deposit", 1)),)),
            ],
            seed=0,
            arrivals={"U": 2},
        )
        epoch = system.epoch("BA")
        scheduler._tick(1, scheduler._active)
        scheduler._admit_arrivals(2)
        message = scheduler._nonconvergence_report()
        assert "T[active] step=0/1 restarts=0 parked=BA@%d" % epoch in message
        assert "T -> HOLDER" in message
        assert "U[active] step=0/1 restarts=0\n" in message + "\n"
        assert "backoff_until" not in message
        scheduler._active[1].backoff_until = 9
        assert "restarts=0 backoff_until=9" in scheduler._nonconvergence_report()


# ---------------------------------------------------------------------------
# retire-on-transition bookkeeping (the cached live list)
# ---------------------------------------------------------------------------


class TestRetireBookkeeping:
    def test_all_entries_retired_after_run(self):
        ba = BankAccount("BA")
        system = TransactionSystem(
            [ManagedObject(ba, ba.nrbc_conflict(), "UIP")]
        )
        scripts = [
            TransactionScript(
                "T%d" % i, (("BA", inv("deposit", 1)),)
            )
            for i in range(5)
        ]
        scheduler = Scheduler(system, scripts, seed=2)
        scheduler.run()
        assert scheduler._active == []
        assert all(t.retired for t in scheduler._live)
        # the full entry list survives compaction for crash bookkeeping
        assert len(scheduler._live) == 5

    def test_random_matrix_smoke(self):
        """A randomized mini-fuzz across workload shapes: jumped and
        walked, same counters and histories, on freshly drawn scripts."""
        rng = random.Random(99)
        for _ in range(6):
            n = rng.randint(2, 5)
            scripts = [
                TransactionScript(
                    "T%d" % i,
                    tuple(
                        ("BA", inv("deposit", rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 3))
                    ),
                )
                for i in range(n)
            ]
            arrivals = {
                "T%d" % i: rng.choice([0, 0, rng.randint(1, 60)])
                for i in range(n)
            }
            seed = rng.randint(0, 1000)

            def cell():
                ba = BankAccount("BA")
                system = TransactionSystem(
                    [ManagedObject(ba, ba.nrbc_conflict(), "UIP")]
                )
                s = Scheduler(
                    system, scripts, seed=seed, arrivals=arrivals
                )
                s.run()
                return (
                    s.metrics.counters(),
                    [repr(e) for e in system.history()],
                )

            jumped, walked = _jumped_and_walked(cell)
            assert jumped == walked
