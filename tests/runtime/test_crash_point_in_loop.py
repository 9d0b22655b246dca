"""A crash point is one more event of the run.

A :class:`~repro.runtime.faults.CrashPoint` raised at a stable-log
interaction is caught inside ``Scheduler.run``'s tick loop: the whole
system crashes at the tick it lands in, the ``audit`` hook runs, the
tick ends once, and the run goes on at the next tick.  So a schedule's
trace has one clock, and every absolute tick the run stored before the
crash (a backoff window, a checkpoint cadence) still means that tick.
"""

from repro.core.events import inv
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import FaultCounters
from repro.runtime.scheduler import CHECKPOINT, Fault, Scheduler, TransactionScript
from repro.runtime.torture import (
    SiteCrash,
    TortureConfig,
    fault_log,
    run_schedule,
    run_torture,
)
from repro.runtime.trace import TraceCollector, reconcile


def test_a_schedule_trace_has_one_clock():
    trace = TraceCollector()
    config = TortureConfig("bank", "DU", group_commit=2, checkpoint_every=3)
    report = run_torture([config], schedules=12, seed=0, trace=trace)
    assert report.ok and report.crashes
    segments = []
    for event in trace.events:
        if event["kind"] == "schedule-start":
            segments.append([])
        segments[-1].append(event)
    assert len(segments) == 12
    crashed = 0
    for events in segments:
        kinds = [e["kind"] for e in events]
        assert kinds.count("run-start") == 1
        ticks = [e["tick"] for e in events]
        assert ticks == sorted(ticks)
        # a crash before run-end is a crash point fired inside the run
        crashed += "crash" in kinds[: kinds.index("run-end")]
    assert crashed
    assert all(r.ok for r in reconcile(trace.events))


def test_backoff_and_checkpoint_cadence_keep_absolute_ticks():
    config = TortureConfig("bank", "DU")
    plan = FaultPlan.crash_at(2, "crash-after-append")
    system = config.build_system(make_log=fault_log(config, plan, FaultCounters()))
    (name,) = system.objects
    steps = ((name, inv("deposit", 1)), (name, inv("deposit", 2)))
    acted = []  # (txn, scheduler tick, system clock) per invocation
    checkpoints = []
    audits = []
    invoke, checkpoint = system.invoke, system.checkpoint

    def spy_invoke(txn, *args):
        acted.append((txn, scheduler.metrics.ticks, system._clock.now))
        return invoke(txn, *args)

    def spy_checkpoint():
        checkpoints.append((scheduler.metrics.ticks, system._clock.now))
        return checkpoint()

    system.invoke, system.checkpoint = spy_invoke, spy_checkpoint
    scheduler = Scheduler(
        system,
        [TransactionScript("T1", steps), TransactionScript("T2", steps)],
        faults=[Fault(CHECKPOINT, every=3)],
        audit=lambda: audits.append((scheduler.metrics.ticks, system._clock.now)),
    )
    # T2 has not begun, so it survives the crash with its window intact.
    scheduler._active[1].backoff_until = 20
    metrics = scheduler.run()
    assert metrics.committed == 2
    # Interaction 2 is T1's commit record (after its prepare's append
    # and force): the crash lands on tick 3, in the scan, and is audited
    # before that tick ends.
    assert plan.fired and audits == [(3, 2)]
    # The window is the absolute tick 20, on the one clock.
    assert [(tick, now) for txn, tick, now in acted if txn == "T2"][0] == (20, 19)
    # Every 3rd tick, the crash tick's own checkpoint skipped with it.
    assert checkpoints == [(t, t - 1) for t in (6, 9, 12, 15, 18, 21)]


def test_sited_torture_runs_the_restart_policy_of_its_label(monkeypatch):
    config = TortureConfig("bank", "UIP", restart_policy="redo-undo", sites=2)
    assert config.label() == "bank/UIP/redo-undo/x2"
    built = []
    build_system = TortureConfig.build_system

    def spy(self, *args, **kwargs):
        built.append(build_system(self, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(TortureConfig, "build_system", spy)
    result = run_schedule(config, [SiteCrash(site=1, fail_tick=3, recover_tick=9)], seed=0)
    assert result.violations == []
    (system,) = built
    assert {n: o.wal.restart_policy for n, o in system.objects.items()} == {
        "X": "redo-undo",
        "X@s1": "redo-undo",
    }
