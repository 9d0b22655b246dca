"""EXP-C15: sharded open-loop scaling — a shard is placement, not execution.

The sharded runtime (``repro.runtime.sharding``) hash-partitions the
objects; the open-loop driver (``repro.runtime.openloop``) runs one
scheduler over every shard.  Dynamic atomicity is a *local* property
(every object enforces ``Conflict`` on its own), so which shard owns an
object cannot change what executes.  The claims this bench pins down:

1. **Sharding is metadata** — a sharded system executes byte-identically
   to the flat crashable system over the same objects (history reprs and
   metrics rows equal), and the shard *count* does not change execution.
2. **The shard count moves no counter** — a zipfian open-loop drive at
   1, 2 and 4 shards: ``metrics.counters()`` and the latency list are
   equal (767 = 767 = 767 ticks), and per-shard ``committed`` sums to
   the 192 offered transactions.
3. **A shard owns a shrinking share** — the busiest shard's share of
   the offered operations (1.000 > 0.609 > 0.328) and of the log forces
   (1.000 > 0.618 > 0.342) falls strictly each time the shards double.
4. **Latency artifact** — commit-latency percentiles (p50/p95/p99, in
   ticks, deterministic per seed) per shard count land in
   ``BENCH_sharded_scaling.json`` beside the tick counts and shares.

Every recorded field is tick-space and deterministic per seed: all of
them are equality fields for the trend gate.
"""

import json
import pathlib
import random

import pytest

from repro.runtime.openloop import OpenLoopConfig, drive
from repro.runtime.scheduler import Scheduler
from repro.runtime.sharding import build_sharded_system
from repro.runtime.system import TransactionSystem
from repro.runtime.workloads import mixed_transfers

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_sharded_scaling.json"
)

# The reference drive: zipfian single-shard traffic, small enough for CI.
# cross_shard=0 keeps the script list itself equal at every shard count.
SEED = 11
SHARD_COUNTS = (1, 2, 4)


def drive_config(shards: int) -> OpenLoopConfig:
    return OpenLoopConfig(
        adt_kind="counter",
        objects=32,
        shards=shards,
        transactions=192,
        ops_per_txn=3,
        arrival_rate=6.0,
        zipf_s=0.8,
        cross_shard=0.0,
        group_commit=2,
        hold=2,
    )


@pytest.mark.experiment("EXP-C15")
def test_sharded_execution_matches_flat(benchmark):
    """Sharded history/metrics are byte-identical to the flat system."""
    names = ["K%02d" % i for i in range(12)]
    scripts = mixed_transfers(random.Random(SEED), objs=names, transactions=12)

    def run(system):
        row = Scheduler(system, scripts, seed=SEED, label="eq").run().row()
        return row, [repr(e) for e in system.history()]

    flat = benchmark.pedantic(
        lambda: run(
            TransactionSystem(
                list(build_sharded_system("bank", names).objects.values())
            )
        ),
        rounds=1,
        iterations=1,
    )
    for shards in SHARD_COUNTS:
        sharded = run(build_sharded_system("bank", names, shards=shards))
        assert sharded == flat, "shards=%d diverged from flat" % shards


def busiest_share(report, field: str) -> float:
    """The largest shard's share of ``field`` summed over the shards."""
    values = [row[field] for row in report.per_shard]
    return round(max(values) / sum(values), 3)


@pytest.mark.experiment("EXP-C15")
def test_sharded_scaling_shares(benchmark, capsys):
    """Record the drive per shard count: equal execution, and a busiest
    shard whose share of the load falls each time the count doubles."""
    reports = {
        shards: drive(drive_config(shards), seed=SEED) for shards in SHARD_COUNTS
    }
    benchmark.pedantic(
        lambda: drive(drive_config(1), seed=SEED), rounds=1, iterations=1
    )
    shares = {
        field: [busiest_share(reports[s], field) for s in SHARD_COUNTS]
        for field in ("operations", "forces")
    }
    record = {
        "experiment": "EXP-C15",
        "workload": {
            "adt": "counter",
            "objects": 32,
            "transactions": 192,
            "arrival_rate": 6.0,
            "zipf": 0.8,
            "seed": SEED,
        },
        "drive": {
            str(shards): {
                "committed": report.metrics.committed,
                "operations": report.metrics.operations,
                "ticks": report.metrics.ticks,
                "latency_ticks": report.latency_summary(),
                "busiest_shard_operations_share": shares["operations"][i],
                "busiest_shard_forces_share": shares["forces"][i],
            }
            for i, (shards, report) in enumerate(reports.items())
        },
    }
    ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    flat = reports[SHARD_COUNTS[0]]
    with capsys.disabled():
        print(
            "\n-- EXP-C15 sharded scaling: %d ticks at every shard count; "
            "busiest shard's share of operations %s, of forces %s at "
            "1 / 2 / 4 shards --"
            % (
                flat.metrics.ticks,
                " / ".join("%.3f" % x for x in shares["operations"]),
                " / ".join("%.3f" % x for x in shares["forces"]),
            )
        )
    for shards, report in reports.items():
        assert report.metrics.counters() == flat.metrics.counters(), shards
        assert report.latencies == flat.latencies, shards
        assert sum(row["committed"] for row in report.per_shard) == 192, shards
    for field, curve in shares.items():
        assert curve[0] == 1.0 and curve[0] > curve[1] > curve[2], (field, curve)
