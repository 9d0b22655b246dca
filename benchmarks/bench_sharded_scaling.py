"""EXP-C15: sharded open-loop scaling — shards shorten the run, not its meaning.

The sharded runtime (``repro.runtime.sharding``) hash-partitions the
objects so the open-loop driver (``repro.runtime.openloop``) can fan
single-shard traffic over one worker process per shard.  The claims
this bench pins down:

1. **Sharding is metadata** — a sharded system executes byte-identically
   to the flat crashable system over the same objects (history reprs and
   metrics rows equal), and the shard *count* does not change execution.
2. **Partitioning shortens the run, in ticks** — a zipfian open-loop
   drive at 1, 2 and 4 shards (one worker per shard): the slowest
   shard's cell finishes in strictly fewer ticks each time the shards
   double (767 > 593 > 411).  The claim is counted, not timed: the
   192-arrival drive runs in ~0.1 s, less than a process pool's
   start-up, so its wall clock measures the pool and not the partition.
3. **Latency artifact** — commit-latency percentiles (p50/p95/p99, in
   ticks, deterministic per seed) per shard count land in
   ``BENCH_sharded_scaling.json`` beside the tick counts.

Every recorded field is tick-space and deterministic per seed: all of
them are equality fields for the trend gate.
"""

import json
import pathlib
import random

import pytest

from repro.runtime.durability import CrashableSystem
from repro.runtime.openloop import OpenLoopConfig, drive, run_shard_cell
from repro.runtime.scheduler import Scheduler
from repro.runtime.sharding import build_sharded_system
from repro.runtime.workloads import mixed_transfers

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_sharded_scaling.json"
)

# The reference drive: zipfian single-shard traffic heavy enough that a
# shard's worker costs real time, small enough for CI.  cross_shard=0 is
# what makes per-shard partitioning legal (see openloop.drive).
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
            CrashableSystem(
                list(build_sharded_system("bank", names).objects.values())
            )
        ),
        rounds=1,
        iterations=1,
    )
    for shards in SHARD_COUNTS:
        sharded = run(build_sharded_system("bank", names, shards=shards))
        assert sharded == flat, "shards=%d diverged from flat" % shards


@pytest.mark.experiment("EXP-C15")
def test_partitioned_drive_matches_per_shard_cells(benchmark):
    """Worker processes merge to exactly the serial per-shard cells.

    (The in-process ``workers=1`` drive runs one joint scheduler over
    every shard, so under contention its restart interleavings — not
    its offered load — legitimately differ; the byte-identical claim
    is against serial execution of the same per-shard cells.)
    """
    config = drive_config(2)
    cells = benchmark.pedantic(
        lambda: [
            run_shard_cell(config, shard, SEED)
            for shard in range(config.shards)
        ],
        rounds=1,
        iterations=1,
    )
    parallel = drive(config, seed=SEED, workers=2)
    assert parallel.ok
    assert parallel.metrics.committed == sum(
        c["metrics"].committed for c in cells
    )
    assert parallel.metrics.operations == sum(
        c["metrics"].operations for c in cells
    )
    assert parallel.latencies == sorted(
        t for c in cells for t in c["latencies"]
    )
    assert {
        (r["shard"], r["committed"], r["operations"])
        for r in parallel.per_shard
    } == {(c["shard"], c["metrics"].committed, c["operations"]) for c in cells}


@pytest.mark.experiment("EXP-C15")
def test_sharded_scaling_ticks(benchmark, capsys):
    """Record the shard-scaling curve; the slowest shard's cell finishes
    in strictly fewer ticks each time the shard count doubles."""
    reports = {  # one worker process per shard; 1 = in-process
        shards: drive(drive_config(shards), seed=SEED, workers=shards)
        for shards in SHARD_COUNTS
    }
    assert all(report.ok for report in reports.values())
    benchmark.pedantic(
        lambda: drive(drive_config(1), seed=SEED), rounds=1, iterations=1
    )
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
            }
            for shards, report in reports.items()
        },
    }
    ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    ticks = [reports[shards].metrics.ticks for shards in SHARD_COUNTS]
    with capsys.disabled():
        print(
            "\n-- EXP-C15 sharded scaling: slowest shard finishes in "
            "%d / %d / %d ticks at 1 / 2 / 4 shards --" % tuple(ticks)
        )
    assert all(
        report.metrics.committed == 192 for report in reports.values()
    ), record
    assert ticks[0] > ticks[1] > ticks[2], ticks
