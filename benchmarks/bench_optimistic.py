"""EXP-C6: pessimistic (locking) vs optimistic (validation) protocols.

Section 3.4 presents dynamic atomicity as the property unifying both
protocol families; this experiment compares them under the same
conflict relation (NFC, over deferred-update recovery) across contention
levels, on one instrument: the same ``TransactionSystem``, ``ManagedObject``
and ``Scheduler`` (shuffle, backoff, restart budget), differing only in
whether the relation is enforced at each execution or ``AtCommit``.  **Pessimism wins at low
contention** (short waits are cheaper than validation aborts, which
discard whole transactions), and at both levels the optimistic side
pays more aborts than the pessimistic side pays deadlock restarts.
Every history of either protocol is dynamic atomic.
"""

import random

import pytest

from repro.adts import BankAccount
from repro.core.atomicity import is_dynamic_atomic
from repro.core.conflict import AtCommit
from repro.core.events import inv
from repro.runtime import ManagedObject, TransactionSystem, run_scripts
from repro.runtime.scheduler import TransactionScript


def scripts_at_contention(seed: int, balance_frac: float, n: int = 8):
    """Balance reads against deposits: reads create validation/lock conflicts."""
    rng = random.Random(seed)
    scripts = []
    for i in range(n):
        steps = []
        for _ in range(3):
            if rng.random() < balance_frac:
                steps.append(("BA", inv("balance")))
            else:
                steps.append(("BA", inv("deposit", rng.choice([1, 2]))))
        scripts.append(TransactionScript("T%d" % i, tuple(steps)))
    return scripts


def make_object(kind: str, ba: BankAccount) -> ManagedObject:
    if kind == "pessimistic":
        return ManagedObject(ba, ba.nfc_conflict(), "DU")
    return ManagedObject(ba, AtCommit(ba.nfc_conflict()), "DU")


def run_pair(balance_frac: float, seeds=range(6)):
    """Per protocol: (committed/ticks, committed, aborted) over the seeds;
    every run's history is audited."""
    results = {}
    for kind in ("pessimistic", "optimistic"):
        committed = ticks = aborted = 0
        for seed in seeds:
            ba = BankAccount("BA", opening=100)
            system = TransactionSystem([make_object(kind, ba)])
            metrics = run_scripts(
                system, scripts_at_contention(seed, balance_frac), seed=seed
            )
            assert is_dynamic_atomic(system.history(), ba), (kind, seed)
            committed += metrics.committed
            ticks += metrics.ticks
            aborted += metrics.aborted
        results[kind] = (committed / ticks, committed, aborted)
    return results


def report(title, results, capsys):
    with capsys.disabled():
        print("\n-- EXP-C6 %s --" % title)
        for kind, (thpt, committed, aborted) in results.items():
            print("  %-12s thpt=%.4f committed=%d aborted=%d" % (kind, thpt, committed, aborted))


@pytest.mark.experiment("EXP-C6")
def test_low_contention_blocking_wins(benchmark, capsys):
    results = benchmark.pedantic(lambda: run_pair(0.1), rounds=1, iterations=1)
    report("low contention (10% reads)", results, capsys)
    # Blocking wastes less work than abort-and-retry when waits are short.
    assert results["pessimistic"][0] >= results["optimistic"][0]
    assert results["optimistic"][2] > results["pessimistic"][2]
    assert results["optimistic"][1] == results["pessimistic"][1] == 48


@pytest.mark.experiment("EXP-C6")
def test_high_contention_comparison(benchmark, capsys):
    results = benchmark.pedantic(lambda: run_pair(0.6), rounds=1, iterations=1)
    report("high contention (60% reads)", results, capsys)
    # Optimism pays in aborts at high contention too.
    assert results["optimistic"][2] > results["pessimistic"][2]
    assert results["optimistic"][1] == results["pessimistic"][1] == 48
