"""EXP-C5: crash recovery — restart cost and logging traffic by method.

The paper defers crash recovery (Section 1) but predicts the analysis is
similar to abort recovery; this experiment quantifies the concrete
differences the two logging disciplines inherit:

* deferred update logs nothing until commit (cheap losers, one forced
  record per commit carrying the intentions list);
* update-in-place logs every operation up front (write-ahead), and
  restart must filter or compensate losers.
"""

import random

import pytest

from repro.adts import BankAccount
from repro.core.atomicity import is_dynamic_atomic
from repro.core.events import inv
from repro.runtime.scheduler import CRASH, Fault, Scheduler, TransactionScript
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.wal import StableLog, UndoRedoLog


def make_scripts(seed: int, n: int = 8):
    rng = random.Random(seed)
    return [
        TransactionScript(
            "T%d" % i,
            tuple(
                ("BA", inv(rng.choice(["deposit", "withdraw"]), rng.choice([1, 2])))
                for _ in range(3)
            ),
        )
        for i in range(n)
    ]


def run_crashing(recovery: str, seed: int = 0, crash_every: int = 6):
    ba = BankAccount("BA", opening=50)
    conflict = ba.nrbc_conflict() if recovery == "UIP" else ba.nfc_conflict()
    system = TransactionSystem([ManagedObject(ba, conflict, recovery, log=StableLog())])
    metrics = Scheduler(
        system, make_scripts(seed), seed=seed, max_restarts=50,
        faults=[Fault(CRASH, every=crash_every)],
    ).run()
    return system, metrics, system.crash_count


@pytest.mark.experiment("EXP-C5")
def test_uip_under_periodic_crashes(benchmark):
    system, metrics, crashes = benchmark.pedantic(
        lambda: run_crashing("UIP"), rounds=1, iterations=1
    )
    ba = BankAccount("BA", opening=50)
    assert metrics.committed >= 1
    assert crashes >= 1
    assert is_dynamic_atomic(system.history(), ba)


@pytest.mark.experiment("EXP-C5")
def test_du_under_periodic_crashes(benchmark):
    system, metrics, crashes = benchmark.pedantic(
        lambda: run_crashing("DU"), rounds=1, iterations=1
    )
    ba = BankAccount("BA", opening=50)
    assert metrics.committed >= 1
    assert is_dynamic_atomic(system.history(), ba)


@pytest.mark.experiment("EXP-C5")
def test_log_traffic_comparison(benchmark, capsys):
    """DU writes strictly fewer records than UIP on identical workloads."""

    def measure():
        results = {}
        for recovery in ("UIP", "DU"):
            system, metrics, _ = run_crashing(recovery, seed=1)
            obj = system.objects["BA"]
            results[recovery] = (
                len(obj.wal.log),
                obj.wal.log.forces,
                metrics.committed,
            )
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n-- EXP-C5 log traffic (records, forces, commits) --")
        for recovery, row in results.items():
            print("  %-4s records=%3d forces=%3d commits=%d" % (recovery, *row))
    assert results["DU"][0] <= results["UIP"][0]


@pytest.mark.experiment("EXP-C5")
def test_restart_cost_scaling(benchmark):
    """Restart cost grows with log length; checkpoints cap it."""
    ba = BankAccount()
    wal = UndoRedoLog(ba)
    rng = random.Random(3)
    for i in range(300):
        txn = "T%d" % i
        wal.on_execute(txn, ba.deposit(rng.choice([1, 2])))
        wal.on_commit(txn, ())
    full_restart_state = wal.restart()
    result = benchmark(wal.restart)
    assert result == full_restart_state
    # A checkpoint shrinks the log without changing the restart state.
    wal.checkpoint(full_restart_state)
    assert len(wal.log) == 1
    assert wal.restart() == full_restart_state
