"""A tick costs what is in the system, not what was configured.

Counting tests, not timing tests.  The scheduler's scan, its shuffle
and the wake calendar walk the transactions *in the system* — scripts
still to arrive wait in the arrival queue — and the end-of-tick phase
touches a stable log only to force a batch that is due.  So on a sparse
open-loop drive the RNG draws of a processed tick are bounded by the
in-system population whatever ``transactions`` is, a tick with nothing
due forces nothing, and a refused invocation costs an attempt when it
arrives at its step and again when its object changes, not one per
tick it waits.
"""

import random

from repro.adts import BankAccount
from repro.core.events import inv
from repro.runtime import ManagedObject, TransactionSystem
from repro.runtime.openloop import OpenLoopConfig
from repro.runtime.scheduler import Scheduler, TransactionScript
from repro.runtime.wal import GroupCommitPolicy, StableLog

from ..drive_harness import (
    count_invokes,
    flash_crowd_scheduler,
    scheduler_in_hand,
)

# ---------------------------------------------------------------------------
# the scan: RNG draws per processed tick
# ---------------------------------------------------------------------------


class CountingRandom(random.Random):
    """``random.Random`` with the same stream, counting its draws
    (``shuffle``, ``choice`` and ``randint`` all draw through
    ``_randbelow``)."""

    draws = 0

    def _randbelow(self, n):
        self.draws += 1
        return super()._randbelow(n)


def _sparse_scheduler(transactions, seed=5):
    """A drive sparse enough that a handful of transactions are in the
    system at once: 0.05 arrivals a tick, each a few ticks long."""
    config = OpenLoopConfig(
        adt_kind="bank",
        objects=16,
        shards=2,
        transactions=transactions,
        arrival_rate=0.05,
        zipf_s=0.9,
        group_commit=4,
        hold=4,
    )
    scheduler = scheduler_in_hand(config, seed)
    scheduler.rng = CountingRandom(seed)
    return scheduler


def _scan_profile(transactions):
    """``[(in-system population, RNG draws)]``, one row per scan."""
    scheduler = _sparse_scheduler(transactions)
    scan = scheduler._tick
    rows = []

    def counted_scan(tick, live):
        population, before = len(live), scheduler.rng.draws
        progressed = scan(tick, live)
        rows.append((population, scheduler.rng.draws - before))
        return progressed

    scheduler._tick = counted_scan
    metrics = scheduler.run()
    assert metrics.committed == transactions
    return rows, scheduler.rng.draws


def test_draws_per_tick_follow_the_in_system_population():
    small, small_total = _scan_profile(200)
    large, large_total = _scan_profile(2000)
    for rows in (small, large):
        # a shuffle of n draws n - 1 times; each scanned entry then
        # draws at most once more (a response choice or a backoff)
        assert all(draws <= 2 * population for population, draws in rows)
    # ten times the transactions: the same handful in the system ...
    peak = max(population for population, _ in large)
    assert peak <= 2 * max(population for population, _ in small) <= 16
    assert max(draws for _, draws in large) <= 2 * peak
    # ... so ten times the ticks cost about ten times the draws, where a
    # scan over every script still to arrive costs a hundred times
    assert large_total <= 20 * small_total


# ---------------------------------------------------------------------------
# the end-of-tick phase: StableLog.force calls
# ---------------------------------------------------------------------------


def test_hold_timers_tick_only_where_a_batch_is_held(monkeypatch):
    """The end-of-tick phase touches a log only to force a due batch:
    its ``StableLog.force`` calls are exactly the batches due by the
    clock it moves to, counted the slow way over every log, so a tick
    with nothing due forces nothing."""
    scheduler = _sparse_scheduler(400)
    system = scheduler.system
    logs = [obj.wal.log for obj in system.objects.values()]
    counts = {"forces": 0, "timer_forces": 0, "due": 0, "ticks": 0, "idle": 0}
    log_force, system_tick = StableLog.force, system.tick

    def counted_force(self):
        counts["forces"] += 1
        log_force(self)

    def counted_system_tick(n=1):
        clock = system._clock.now + n
        due = sum(1 for log in logs if log.due is not None and log.due <= clock)
        before = counts["forces"]
        system_tick(n)
        forced = counts["forces"] - before
        assert forced == due
        counts["timer_forces"] += forced
        counts["due"] += due
        counts["ticks"] += 1
        counts["idle"] += not due

    monkeypatch.setattr(StableLog, "force", counted_force)
    system.tick = counted_system_tick
    metrics = scheduler.run()
    assert metrics.forces > 0 and counts["due"] > 0
    assert counts["timer_forces"] == counts["due"]
    # most end-of-tick phases have nothing due and touch no log
    assert counts["idle"] > counts["ticks"] // 2


# ---------------------------------------------------------------------------
# refused invocations: TransactionSystem.invoke calls
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


def test_waiters_on_a_held_commit_cost_one_attempt_each(monkeypatch):
    """k readers refused by a depositor whose commit sits in a
    group-commit hold of h ticks: k attempts for the stretch, not k x h."""
    k, h = 5, 6
    calls = count_invokes(monkeypatch)
    system = TransactionSystem([_durable("BA", hold=h)])
    scripts = [TransactionScript("H", (("BA", inv("deposit", 1)),))]
    arrivals = [
        (TransactionScript("R%d" % i, (("BA", inv("balance")),)), 2)
        for i in range(k)
    ]
    metrics = Scheduler(system, scripts, arrivals=arrivals).run()
    assert metrics.committed == k + 1 and metrics.aborted == 0
    # the holder sat through two holds: its prepare, then its commit record
    assert metrics.ticks > 2 * h
    assert metrics.blocked_attempts == k
    # H's deposit, k refusals, k grants once H's commit moved the epoch
    assert calls["invoke"] == 1 + k + k


def test_a_flash_crowd_costs_arrivals_plus_wakes(monkeypatch):
    """An attempt is made when an entry arrives at a step — each such
    arrival ends in the operation executed or in an abort — and again
    only for an entry parked at an object at the moment it changes."""
    calls = count_invokes(monkeypatch)
    scheduler = flash_crowd_scheduler(0)
    woken = {"entries": 0}

    def counting_wakes(method):
        def wrapper(self, *args, **kwargs):
            epoch = self.epoch
            try:
                return method(self, *args, **kwargs)
            finally:
                if self.epoch != epoch:
                    woken["entries"] += sum(
                        1
                        for t in scheduler._active
                        if t.parked is not None
                        and t.script.steps[t.step][0] == self.name
                    )

        return wrapper

    for name in ("try_operation", "commit", "abort"):
        monkeypatch.setattr(
            ManagedObject, name, counting_wakes(getattr(ManagedObject, name))
        )
    metrics = scheduler.run()
    assert calls["invoke"] == metrics.operations + metrics.blocked_attempts
    assert metrics.blocked_attempts > metrics.operations  # a crowd, refused
    assert calls["invoke"] <= (
        metrics.operations + metrics.aborted + woken["entries"]
    )

