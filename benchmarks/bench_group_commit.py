"""EXP-C10: group commit — log forces per commit versus batch size.

The durability tax of the commit protocol is two physical log flushes
per transaction (the prepare force and the commit-record force).  Group
commit amortizes that tax: concurrent transactions' force requests
coalesce into one physical flush, so on a hot spot whose operations
commute — the workloads the paper's type-specific concurrency control
exists to keep concurrent — forces-per-commit falls roughly by the
batch size.

This bench sweeps the batch size over the bank and counter hot-spot
workloads (both recovery methods), asserts the headline claim —
**forces/commit drops at least 2x at batch size >= 4** — and checks
batch-size-1 parity (exactly two physical forces per commit, identical
to the unbatched engine).  Results land in ``BENCH_group_commit.json``
for the CI artifact trail.
"""

import json
import pathlib

import pytest

from repro.adts.registry import make_adt
from repro.core.events import inv
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.scheduler import Scheduler, TransactionScript
from repro.runtime.wal import GroupCommitPolicy, StableLog
from repro.runtime.workloads import hotspot_banking

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_group_commit.json"

TRANSACTIONS = 16
OPS_PER_TXN = 2
BATCH_SIZES = (1, 2, 4, 8)
HOLD = 3


def bank_scripts(adt, rng):
    """Deposit traffic on one hot account (the paper's aggregate hot spot)."""
    return hotspot_banking(
        rng,
        obj=adt.name,
        transactions=TRANSACTIONS,
        ops_per_txn=OPS_PER_TXN,
        deposit_weight=1.0,
        withdraw_weight=0.0,
        balance_weight=0.0,
    )


def counter_scripts(adt, rng):
    """Increment traffic on one shared counter."""
    return [
        TransactionScript(
            name="T%d" % t,
            steps=tuple(
                (adt.name, inv("increment", rng.choice((1, 2))))
                for _ in range(OPS_PER_TXN)
            ),
        )
        for t in range(TRANSACTIONS)
    ]


WORKLOADS = {"bank": bank_scripts, "counter": counter_scripts}


def run_config(adt_kind: str, recovery: str, batch: int, seed: int = 1):
    """One scheduler run on a durable system with the given batch size."""
    import random

    adt = make_adt(adt_kind)
    conflict = adt.nrbc_conflict() if recovery == "UIP" else adt.nfc_conflict()
    policy = GroupCommitPolicy(batch_size=batch, max_hold=HOLD if batch > 1 else 0)
    obj = ManagedObject(
        adt, conflict, recovery, log=StableLog(policy=policy)
    )
    system = TransactionSystem([obj])
    scripts = WORKLOADS[adt_kind](adt, random.Random(seed))
    label = "%s/%s/gc%d" % (adt_kind, recovery, batch)
    return Scheduler(system, scripts, seed=seed, label=label).run()


def sweep():
    """The full batch-size sweep; returns {workload: {recovery: {batch: row}}}."""
    results = {}
    for adt_kind in WORKLOADS:
        results[adt_kind] = {}
        for recovery in ("DU", "UIP"):
            rows = {}
            for batch in BATCH_SIZES:
                m = run_config(adt_kind, recovery, batch)
                rows[batch] = {
                    "committed": m.committed,
                    "forces": m.forces,
                    "force_requests": m.force_requests,
                    "forced_records": m.forced_records,
                    "forces_per_commit": m.forces_per_commit,
                    "avg_batch_size": m.avg_batch_size,
                    "ticks": m.ticks,
                    "commit_stall_ticks": m.commit_stall_ticks,
                }
            results[adt_kind][recovery] = rows
    return results


def check(results):
    """The acceptance assertions, shared by every parametrization."""
    for adt_kind, by_recovery in results.items():
        for recovery, rows in by_recovery.items():
            where = "%s/%s" % (adt_kind, recovery)
            base = rows[1]
            # Every configuration commits the whole workload.
            for batch, row in rows.items():
                assert row["committed"] == TRANSACTIONS, (where, batch, row)
            # Batch size 1 is the unbatched engine: two physical forces
            # per commit (prepare + commit record), no coalescing.
            assert base["forces"] == 2 * TRANSACTIONS, (where, base)
            assert base["avg_batch_size"] == 1.0, (where, base)
            # The headline: >= 2x fewer forces per commit at batch >= 4.
            for batch in (b for b in BATCH_SIZES if b >= 4):
                row = rows[batch]
                ratio = base["forces_per_commit"] / row["forces_per_commit"]
                assert ratio >= 2.0, (
                    "%s batch=%d: forces/commit only improved %.2fx "
                    "(%.3f -> %.3f)"
                    % (
                        where,
                        batch,
                        ratio,
                        base["forces_per_commit"],
                        row["forces_per_commit"],
                    )
                )
                assert row["avg_batch_size"] >= 2.0, (where, batch, row)


def format_table(results) -> str:
    lines = [
        "%-8s %-4s %6s %7s %9s %7s %7s"
        % ("workload", "view", "batch", "forces", "f/commit", "avgbat", "stalls")
    ]
    for adt_kind, by_recovery in sorted(results.items()):
        for recovery, rows in sorted(by_recovery.items()):
            for batch, row in sorted(rows.items()):
                lines.append(
                    "%-8s %-4s %6d %7d %9.3f %7.2f %7d"
                    % (
                        adt_kind,
                        recovery,
                        batch,
                        row["forces"],
                        row["forces_per_commit"],
                        row["avg_batch_size"],
                        row["commit_stall_ticks"],
                    )
                )
    return "\n".join(lines)


@pytest.mark.experiment("EXP-C10")
def test_group_commit_amortization(benchmark, capsys):
    """Sweep batch sizes; assert the >= 2x forces/commit drop at batch >= 4."""
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    check(results)
    ARTIFACT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    with capsys.disabled():
        print("\n-- EXP-C10 group commit (artifact: %s) --" % ARTIFACT.name)
        print(format_table(results))


@pytest.mark.experiment("EXP-C10")
def test_batch_one_is_noop(benchmark):
    """A batch-1 policy changes nothing: same forces, records and events
    as the default (no-policy) log, commit acknowledged the same tick."""

    def both():
        import random

        adt = make_adt("bank")
        conflict = adt.nfc_conflict()
        runs = []
        for log in (StableLog(), StableLog(policy=GroupCommitPolicy(1, 0))):
            obj = ManagedObject(adt, conflict, "DU", log=log)
            system = TransactionSystem([obj])
            scripts = bank_scripts(adt, random.Random(3))
            metrics = Scheduler(system, scripts, seed=3).run()
            runs.append((metrics, obj))
        return runs

    (m_plain, o_plain), (m_gc1, o_gc1) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    assert m_plain.forces == m_gc1.forces
    assert m_plain.forced_records == m_gc1.forced_records
    assert m_plain.ticks == m_gc1.ticks
    assert m_gc1.commit_stall_ticks == 0
    assert o_plain.wal.log.records() == o_gc1.wal.log.records()
    assert o_plain.history().events == o_gc1.history().events
