"""Shared pieces of the tests that count what a drive costs.

``tests/runtime/test_tick_cost.py`` counts calls on a scheduler kept in
hand, and ``tests/runtime/test_park_and_wake.py`` compares the same
schedulers against the re-attempting oracle; both want the scheduler a
sharded open-loop drive builds, a flash crowd to drive it with, and a
count of ``TransactionSystem.invoke`` calls.
"""

import random

from repro.runtime import TransactionSystem
from repro.runtime.openloop import OpenLoopConfig, open_loop_stream
from repro.runtime.openloop import _scheduler as drive_scheduler
from repro.runtime.sharding import build_sharded_system

#: shaped like ``overload_uip``: arrivals far past what 8 hot
#: update-in-place objects can serve, so most of the crowd is refused.
FLASH_CROWD = OpenLoopConfig(
    adt_kind="bank",
    recovery="UIP",
    objects=8,
    shards=2,
    transactions=56,
    arrival_rate=4.0,
    zipf_s=1.1,
    group_commit=4,
    hold=4,
    read_mix=0.2,
    cross_shard=0.1,
)


def scheduler_in_hand(config, seed, trace=None):
    """The scheduler a sharded drive of ``config`` builds, kept in hand
    to count on and to read histories from."""
    system = build_sharded_system(
        config.adt_kind,
        config.object_names(),
        shards=config.shards,
        recovery=config.recovery,
        group_commit=config.group_commit,
        hold=config.hold,
    )
    arrivals, stream = open_loop_stream(config, random.Random(seed))
    return drive_scheduler(system, config, arrivals, stream, seed=seed, trace=trace)


def flash_crowd_scheduler(seed):
    return scheduler_in_hand(FLASH_CROWD, seed)


def count_invokes(monkeypatch):
    """``{"invoke": n}``, counting ``TransactionSystem.invoke`` calls."""
    calls = {"invoke": 0}
    invoke = TransactionSystem.invoke

    def counted(self, *args):
        calls["invoke"] += 1
        return invoke(self, *args)

    monkeypatch.setattr(TransactionSystem, "invoke", counted)
    return calls
