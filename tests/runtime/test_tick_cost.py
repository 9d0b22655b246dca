"""A tick costs what is in the system, not what was configured.

Counting tests, not timing tests.  The scheduler's scan, its shuffle
and the wake calendar walk the transactions *in the system* — scripts
still to arrive wait in the arrival queue — and the system's hold-timer
walks visit the logs *holding a batch*.  So on a sparse open-loop drive
the RNG draws of a processed tick are bounded by the in-system
population whatever ``transactions`` is, and ``StableLog.tick`` is
called once per (held log, live tick) pair, not once per (object, live
tick); and a refused invocation costs an attempt when it arrives at its
step and again when its object changes, not one per tick it waits.  The
last part pins the invariant the timer walks rest on: ``armed`` is a
superset of the objects whose log holds a batch, however the batch came
to be held or to be gone.
"""

import random

from repro.adts import BankAccount
from repro.core.events import inv
from repro.runtime import ManagedObject, TransactionSystem
from repro.runtime.durability import CrashableSystem, DurableObject
from repro.runtime.openloop import OpenLoopConfig
from repro.runtime.replication import build_replicated_system, copy_name
from repro.runtime.scheduler import Scheduler, TransactionScript
from repro.runtime.sharding import build_sharded_system
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
# the hold timers: StableLog.tick calls
# ---------------------------------------------------------------------------


def test_hold_timers_tick_only_where_a_batch_is_held(monkeypatch):
    scheduler = _sparse_scheduler(400)
    system = scheduler.system
    logs = [obj.wal.log for obj in system.objects.values()]
    counts = {"tick_calls": 0, "held_pairs": 0, "live_ticks": 0}
    log_tick, system_tick = StableLog.tick, system.tick

    def counted_log_tick(self):
        counts["tick_calls"] += 1
        log_tick(self)

    def counted_system_tick():
        counts["live_ticks"] += 1
        counts["held_pairs"] += sum(1 for log in logs if log.held_batch_size())
        system_tick()

    monkeypatch.setattr(StableLog, "tick", counted_log_tick)
    system.tick = counted_system_tick
    metrics = scheduler.run()
    assert metrics.forces > 0 and counts["held_pairs"] > 0
    assert counts["tick_calls"] <= counts["held_pairs"]
    # and that is far from every object on every live tick
    assert counts["held_pairs"] < counts["live_ticks"] * len(logs) // 4


# ---------------------------------------------------------------------------
# refused invocations: TransactionSystem.invoke calls
# ---------------------------------------------------------------------------


def test_waiters_on_a_held_commit_cost_one_attempt_each(monkeypatch):
    """k readers refused by a depositor whose commit sits in a
    group-commit hold of h ticks: k attempts for the stretch, not k x h."""
    k, h = 5, 6
    calls = count_invokes(monkeypatch)
    system = TransactionSystem([_durable("BA", hold=h)])
    scripts = [TransactionScript("H", (("BA", inv("deposit", 1)),))] + [
        TransactionScript("R%d" % i, (("BA", inv("balance")),))
        for i in range(k)
    ]
    arrivals = dict({"R%d" % i: 2 for i in range(k)}, H=0)
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


# ---------------------------------------------------------------------------
# the arm invariant
# ---------------------------------------------------------------------------


def _check_timers(system):
    """``armed`` covers every held log, and the system's deadline is the
    minimum over *all* objects, computed the slow way."""
    objects = list(system.objects.values())
    held = {
        position
        for position, obj in enumerate(objects)
        if obj.wal.log.held_batch_size()
    }
    assert held <= system._armed
    deadlines = [obj.next_deadline() for obj in objects]
    slow = min((d for d in deadlines if d is not None), default=None)
    assert system.next_deadline() == slow
    return slow


def _durable(name, hold, batch=8):
    account = BankAccount(name)
    return DurableObject(
        account,
        account.nfc_conflict(),
        "DU",
        log_factory=lambda: StableLog(
            policy=GroupCommitPolicy(batch_size=batch, max_hold=hold)
        ),
    )


class TestArmInvariant:
    def test_force_requested_on_a_log_directly(self):
        a, b, c = _durable("A", 5), _durable("B", 2), _durable("C", 9)
        system = TransactionSystem([a, b, c])
        assert _check_timers(system) is None
        a.wal.log.request_force()
        assert _check_timers(system) == 6
        b.wal.log.request_force()
        b.wal.log.request_force()  # joins the held batch: no second arm
        assert _check_timers(system) == 3

    def test_batch_flushed_by_force_then_held_again(self):
        a, b = _durable("A", 5), _durable("B", 2)
        system = TransactionSystem([a, b])
        b.wal.log.request_force()
        assert _check_timers(system) == 3
        b.wal.log.force()  # flushed behind the system's back
        assert _check_timers(system) is None
        b.wal.log.request_force()  # the next 0 -> 1 arms it again
        a.wal.log.request_force()
        assert _check_timers(system) == 3

    def test_batch_flushed_by_filling(self):
        a = _durable("A", 5, batch=2)
        system = TransactionSystem([a])
        a.wal.log.request_force()
        assert _check_timers(system) == 6
        a.wal.log.request_force()  # batch full: flushes in the request
        assert a.wal.log.forces == 1
        assert _check_timers(system) is None

    def test_tick_and_advance_move_exactly_the_held_timers(self):
        a, b, c = _durable("A", 5), _durable("B", 2), _durable("C", 9)
        system = TransactionSystem([a, b, c])
        a.wal.log.request_force()
        b.wal.log.request_force()
        system.advance_ticks(2)
        assert _check_timers(system) == 1
        assert (a.next_deadline(), c.next_deadline()) == (4, None)
        system.tick()  # B's hold expires: its batch flushes
        assert (b.wal.log.forces, a.wal.log.forces) == (1, 0)
        assert _check_timers(system) == 3
        c.wal.log.request_force()
        system.tick()
        assert (a.next_deadline(), c.next_deadline()) == (2, 9)

    def test_objects_handed_over_with_a_batch_already_held(self):
        a, b = _durable("A", 5), _durable("B", 2)
        b.wal.log.request_force()  # before any system exists
        system = TransactionSystem([a, b])
        assert _check_timers(system) == 3

    def test_crash_with_a_batch_held(self):
        a, b = _durable("A", 5), _durable("B", 2)
        system = CrashableSystem([a, b])
        a.wal.log.request_force()
        b.wal.log.request_force()
        assert _check_timers(system) == 3
        system.crash()  # held batches die with the process
        assert _check_timers(system) is None
        a.wal.log.request_force()
        assert _check_timers(system) == 6

    def test_checkpoint_flushes_the_held_batch(self):
        a, b = _durable("A", 5), _durable("B", 2)
        system = CrashableSystem([a, b])
        b.wal.log.request_force()
        b.checkpoint()
        assert _check_timers(system) is None
        b.wal.log.request_force()
        assert _check_timers(system) == 3

    def test_shard_crash_and_site_failure_and_recovery(self):
        sharded = build_sharded_system(
            "counter", ["X", "Y", "Z", "W"], shards=2, group_commit=4, hold=3
        )
        for obj in sharded.objects.values():
            obj.wal.log.request_force()
        assert _check_timers(sharded) == 4
        sharded.crash_shard(0)
        _check_timers(sharded)
        sharded.crash_shard(1)
        assert _check_timers(sharded) is None

        replicated = build_replicated_system(
            "counter", ["X", "Y"], sites=2, group_commit=4, hold=3
        )
        remote = replicated.objects[copy_name("X", 1)]
        remote.wal.log.request_force()
        assert _check_timers(replicated) == 4
        replicated.fail_site(1)
        assert _check_timers(replicated) is None
        replicated.recover_site(1)
        assert _check_timers(replicated) is None
        remote.wal.log.request_force()
        replicated.objects[copy_name("Y", 0)].wal.log.request_force()
        replicated.advance_ticks(1)
        assert _check_timers(replicated) == 3
