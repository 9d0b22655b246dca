"""Jumping dead ticks is byte-identical to walking them.

The wake calendar (``repro.runtime.scheduler``) jumps provably-dead
ticks; these tests pin the claim that the jump is unobservable — same
histories, same RunMetrics, same JSONL trace streams, same RNG draws as
the walking oracle (``repro.reference.walk_dead_ticks``) —
across the axes the runtime supports: crash schedules, group-commit
holds, shards, sites, read mixes and open-loop arrivals.  Alongside the
differential matrix: boundary pins for ``backoff_until`` (a restarted
transaction is runnable *at* its wake tick, never one off), a lockstep
per-tick trace comparison on a crash-heavy case, the hold-timer
``next_deadline``/``advance`` contract, and the non-convergence
diagnostic snapshot.
"""

import random

import pytest

from repro.adts import BankAccount
from repro.core.events import inv
from repro.reference import walk_dead_ticks
from repro.runtime import ManagedObject, TransactionSystem
from repro.runtime.openloop import OpenLoopConfig, drive
from repro.runtime.scheduler import (
    Scheduler,
    TransactionScript,
    periodic_wake,
    schedule_wake,
)
from repro.runtime.torture import (
    SiteCrash,
    TortureConfig,
    plan_campaign,
    run_schedule,
    run_site_schedule,
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
    r = run_site_schedule(config, crashes, seed=seed, trace=trace)
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
        hold timers only ever move one tick at a time, and the calendar
        accounting still runs."""

        def no_jump(self, ticks):
            raise AssertionError("advance_ticks(%d) under the oracle" % ticks)

        monkeypatch.setattr(TransactionSystem, "advance_ticks", no_jump)
        with walk_dead_ticks():
            metrics = _arrival_scheduler(4).run()
        assert metrics.committed == 1
        assert metrics.dead_ticks_elided == 3
        with pytest.raises(AssertionError, match="advance_ticks"):
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
# hold-timer deadlines (wal / system plumbing)
# ---------------------------------------------------------------------------


class TestHoldTimerDeadline:
    def make_log(self, batch=4, hold=3):
        return StableLog(
            policy=GroupCommitPolicy(batch_size=batch, max_hold=hold)
        )

    def test_idle_log_has_no_deadline(self):
        assert self.make_log().next_deadline() is None

    def test_deadline_counts_down_with_ticks(self):
        log = self.make_log(hold=3)
        log.request_force()
        assert log.next_deadline() == 4  # fires on the 4th tick (hold > 3)
        log.tick()
        assert log.next_deadline() == 3
        log.tick()
        log.tick()
        assert log.next_deadline() == 1
        assert log.forces == 0
        log.tick()  # hold expired: flush
        assert log.forces == 1
        assert log.next_deadline() is None

    def test_advance_equals_that_many_ticks(self):
        ticked, jumped = self.make_log(), self.make_log()
        ticked.request_force()
        jumped.request_force()
        for _ in range(3):
            ticked.tick()
        jumped.advance(3)
        assert jumped.next_deadline() == ticked.next_deadline() == 1
        assert jumped.forces == ticked.forces == 0

    def test_advance_refuses_to_jump_the_deadline(self):
        log = self.make_log(hold=3)
        log.request_force()
        with pytest.raises(ValueError, match="deadline"):
            log.advance(4)
        log.advance(0)  # no-op
        idle = self.make_log()
        idle.advance(100)  # no pending batch: nothing to time out

    def test_system_deadline_is_min_over_objects(self):
        from repro.runtime.durability import DurableObject

        objs = [
            DurableObject(
                acct,
                acct.nrbc_conflict(),
                "DU",
                log_factory=lambda h=h: StableLog(
                    policy=GroupCommitPolicy(batch_size=8, max_hold=h)
                ),
            )
            for acct, h in ((BankAccount("A"), 5), (BankAccount("B"), 2))
        ]
        system = TransactionSystem(objs)
        assert system.next_deadline() is None
        for obj, txn in zip(objs, ("T1", "T2")):
            obj.wal.log.request_force()
        assert system.next_deadline() == 3  # min(6, 3)
        system.advance_ticks(2)
        assert system.next_deadline() == 1


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
