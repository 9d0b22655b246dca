"""Crash-schedule torture for cross-shard 2PC (partial failure).

The whole-system torture harness crashes every shard at once; these
tests kill *one shard at a time* under live cross-shard traffic and
assert the harness's invariants still hold: per-shard restart-state
equivalence, global dynamic atomicity (a shard crash must not hide a
global anomaly), and — the acceptance bar for the sharded runtime —
verdicts byte-identical to the flat system under whole-system crashes.

The schedule matrix sweeps the crash tick across the 2PC pipeline
(mid-prepare, mid-commit-record, during a group-commit hold) by
crashing at different ticks under held batches: with ``hold`` longer
than the tick gap, some victim is parked in each phase at some tick.
"""

import random

import pytest

from repro.runtime.scheduler import Scheduler
from repro.runtime.sharding import build_sharded_system
from repro.runtime.system import TransactionSystem
from repro.runtime.torture import audit_recovery
from repro.runtime.workloads import mixed_transfers

NAMES = ["K%02d" % i for i in range(6)]
SHARDS = 2


def _build(**kwargs):
    defaults = dict(
        shards=SHARDS, recovery="DU", group_commit=4, hold=3
    )
    defaults.update(kwargs)
    return build_sharded_system("bank", NAMES, **defaults)


def _run_with_shard_crashes(system, scripts, *, seed, crashes):
    """Drive scripts, crashing shard ``s`` at tick ``t`` per (t, s)."""
    plan = dict(crashes)

    def on_tick(tick):
        shard = plan.pop(tick, None)
        if shard is None:
            return False
        victims = system.crash_shard(shard)
        scheduler.handle_crash(victims, tick)
        return True

    scheduler = Scheduler(
        system, scripts, seed=seed, max_ticks=50_000, on_tick=on_tick
    )
    return scheduler.run()


def _audit_all_shards(system, label):
    """Every shard's audit (each includes the global dynamic-atomicity
    check)."""
    violations = []
    for shard in range(system.shards):
        violations.extend(
            audit_recovery(system, label, "", names=system.domain_objects(shard))
        )
    return violations


# ---------------------------------------------------------------------------
# the schedule matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("crash_tick", [2, 5, 9])
@pytest.mark.parametrize("shard", [0, 1])
def test_shard_crash_matrix_preserves_recovery_invariants(
    seed, crash_tick, shard
):
    # hold=3 with group_commit=4 parks prepare and commit batches, so
    # across the (tick, shard, seed) matrix the crash lands on
    # transactions in every pipeline phase: pre-prepare, mid-prepare
    # (vote parked), mid-commit-record (record parked), and during the
    # group-commit hold itself.
    system = _build()
    scripts = mixed_transfers(
        random.Random(seed), objs=NAMES, transactions=5
    )
    metrics = _run_with_shard_crashes(
        system, scripts, seed=seed, crashes={crash_tick: shard}
    )
    # Some transactions may finish through crash resolution rather than
    # the scheduler's own commit path, so the scheduler counters need
    # not sum to the offered load; progress plus clean audits is the bar.
    assert metrics.committed > 0
    label = "matrix/t%d/s%d/seed%d" % (crash_tick, shard, seed)
    assert _audit_all_shards(system, label) == []


def test_consecutive_crashes_of_both_shards():
    system = _build()
    scripts = mixed_transfers(random.Random(3), objs=NAMES, transactions=5)
    metrics = _run_with_shard_crashes(
        system, scripts, seed=3, crashes={3: 0, 7: 1}
    )
    assert metrics.committed > 0
    assert system.domain_failures == [1, 1]
    assert _audit_all_shards(system, "both-shards") == []


def test_shard_crash_during_long_group_commit_hold():
    # hold far beyond the crash tick: every durability request of every
    # in-flight transaction is still parked when the shard dies.
    system = _build(group_commit=16, hold=40)
    scripts = mixed_transfers(random.Random(5), objs=NAMES, transactions=5)
    metrics = _run_with_shard_crashes(
        system, scripts, seed=5, crashes={4: 1}
    )
    assert metrics.committed > 0
    assert _audit_all_shards(system, "held-batches") == []


def test_uip_shard_crashes_preserve_invariants():
    system = _build(recovery="UIP")
    scripts = mixed_transfers(random.Random(2), objs=NAMES, transactions=5)
    _run_with_shard_crashes(system, scripts, seed=2, crashes={4: 0})
    assert _audit_all_shards(system, "uip-matrix") == []


# ---------------------------------------------------------------------------
# sharded vs flat: byte-identical verdicts under whole-system crashes
# ---------------------------------------------------------------------------


def _run_whole_system_crashes(system, scripts, *, seed, crash_every=6):
    def on_tick(tick):
        if tick % crash_every == 0:
            victims = system.crash()
            scheduler.handle_crash(victims, tick)
            return True
        return False

    scheduler = Scheduler(
        system, scripts, seed=seed, max_ticks=50_000, on_tick=on_tick
    )
    return scheduler.run()


def test_whole_system_crash_verdicts_match_flat_system():
    scripts = mixed_transfers(random.Random(4), objs=NAMES, transactions=5)

    def outcome(system):
        metrics = _run_whole_system_crashes(system, scripts, seed=4)
        system.crash()  # final clean crash, as the torture harness does
        violations = audit_recovery(system, "flat-vs-sharded", "")
        return (
            metrics.row(),
            [repr(e) for e in system.history()],
            [v.invariant for v in violations],
        )

    sharded_template = _build()
    flat = outcome(TransactionSystem(list(_build().objects.values())))
    sharded = outcome(sharded_template)
    assert sharded == flat
    assert sharded[2] == []  # and the verdict is: clean
