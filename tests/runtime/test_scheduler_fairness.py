"""Unit tests for the scheduler's deadlock-fairness mechanisms.

Three cooperating pieces guarantee liveness under repeated deadlocks:

* restart-count aging — the victim is the cycle member with the fewest
  prior restarts, so sacrifices rotate;
* victim-waits-for-winners — a victim re-enters only after the cycle
  members it lost to have finished;
* exponential randomized backoff — re-collision windows grow.
"""

import random
from collections import Counter

import pytest

from repro.adts import BankAccount
from repro.core.events import inv
from repro.runtime import ManagedObject, TransactionSystem
from repro.runtime.scheduler import Scheduler, TransactionScript, _LiveTxn
from repro.runtime.trace import TraceCollector


def upgrade_scripts(n: int = 3):
    """Read-then-update scripts: the classic upgrade-deadlock generator."""
    return [
        TransactionScript(
            "T%d" % i,
            (("BA", inv("balance")), ("BA", inv("deposit", 1))),
        )
        for i in range(n)
    ]


def make_scheduler(n=3, seed=0, max_restarts=100, trace=None):
    ba = BankAccount("BA", opening=10)
    system = TransactionSystem([ManagedObject(ba, ba.nfc_conflict(), "DU")])
    return system, Scheduler(
        system, upgrade_scripts(n), seed=seed, max_restarts=max_restarts,
        trace=trace,
    )


def restarts_by_script(trace):
    """Script name -> its restarts: one per abort of an incarnation."""
    return Counter(
        e["txn"].split("~")[0]
        for e in trace.events
        if e["kind"] in ("txn-abort", "ro-abort")
    )


class TestAgingVictimSelection:
    def test_fewest_restarts_chosen(self):
        entries = [
            _LiveTxn(script=TransactionScript("A", ()), txn="A", restarts=2),
            _LiveTxn(script=TransactionScript("B", ()), txn="B", restarts=0),
            _LiveTxn(script=TransactionScript("C", ()), txn="C", restarts=1),
        ]
        assert Scheduler._victim_key_min(entries).txn == "B"

    def test_tie_breaks_toward_youngest(self):
        entries = [
            _LiveTxn(script=TransactionScript("A", ()), txn="A", restarts=1, born_tick=1),
            _LiveTxn(script=TransactionScript("B", ()), txn="B", restarts=1, born_tick=5),
        ]
        assert Scheduler._victim_key_min(entries).txn == "B"

    def test_rotation_across_repeated_deadlocks(self):
        """No single script absorbs all sacrifices."""
        trace = TraceCollector()
        system, scheduler = make_scheduler(n=3, seed=2, trace=trace)
        metrics = scheduler.run()
        assert metrics.committed == 3
        by_script = restarts_by_script(trace)
        assert sum(by_script.values()) == metrics.restarts
        restarts = [by_script["T%d" % i] for i in range(3)]
        # Aging spreads the pain: no entry restarts vastly more than others.
        assert max(restarts) - min(restarts) <= 3


class TestVictimWaitsForWinners:
    def test_wait_for_assigned_on_deadlock(self):
        system, scheduler = make_scheduler(n=2, seed=1)
        metrics = scheduler.run()
        assert metrics.committed == 2
        # At least one deadlock was broken along the way.
        assert metrics.deadlocks >= 1

    def test_wait_for_clears_when_winner_finishes(self):
        system, scheduler = make_scheduler(n=3, seed=4)
        retired = []
        retire = scheduler._retire
        scheduler._retire = lambda entry: retired.append(entry) or retire(entry)
        scheduler.run()
        assert len(retired) == 3
        for entry in retired:
            assert not entry.wait_for  # all waits resolved by the end

    def test_all_upgrade_scripts_commit(self):
        """The canonical starvation scenario converges for many seeds."""
        for seed in range(10):
            system, scheduler = make_scheduler(n=4, seed=seed)
            metrics = scheduler.run()
            assert metrics.committed == 4, "seed %d starved" % seed


class TestBackoffGrowth:
    def test_backoff_window_bounds(self):
        system, scheduler = make_scheduler(n=2, seed=0)
        entry = scheduler._active[0]
        entry.restarts = 0
        scheduler._abort_and_restart(entry, tick=100, reason="deadlock")
        assert entry.restarts == 1
        # First restart: horizon = steps(2) * (1 + 1) = 4.
        assert 100 < entry.backoff_until <= 104
        entry.restarts = 9
        scheduler._abort_and_restart(entry, tick=200, reason="deadlock")
        assert entry.restarts == 10
        # Tenth restart: horizon = 2 * min(11, 32) = 22.
        assert 200 < entry.backoff_until <= 222
