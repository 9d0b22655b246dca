"""EXP-C12: parallel scaling — the engine moves the clock, never a number.

The parallel execution engine (``repro.runtime.parallel``) fans
independent ``(configuration, seed)`` cells over a process pool.  The
claims this bench pins down:

1. **Byte-identical merge** — the reference compare sweep and a torture
   campaign produce *exactly* the serial summaries at 1, 2 and 4
   workers (dataclass equality and the formatted table/report text),
   and the campaign's JSONL trace is the same bytes at each.
2. **Measured speedup** — wall-clock time of the reference sweep (1.3 s
   serial) at 2 and 4 workers, recorded in the artifact.  The floor
   (>= 1.5x, at 2 workers and at 4) is asserted for each worker count
   the machine actually has the usable CPUs for — otherwise the test
   *skips* after recording the honest flat curve (a 1-CPU container
   cannot beat Amdahl, and silently passing would hide that the floor
   never ran).

Results land in ``BENCH_parallel_scaling.json`` for the CI artifact
trail.
"""

import json
import pathlib
import time

import pytest

from conftest import cpus_available, require_cpus

from repro.experiments.comparisons import (
    compare,
    compare_parallel,
    comparison_case,
    standard_configurations,
)
from repro.runtime import format_summary_table
from repro.runtime.torture import configs_for, run_torture
from repro.runtime.trace import TraceCollector

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_parallel_scaling.json"
)

# The reference sweep: heavy enough that a cell costs tens of
# milliseconds (so pool startup amortizes), small enough for CI.
WORKLOAD = "hotspot"
SEEDS = tuple(range(8))
TRANSACTIONS = 32
OPS = 4
WORKER_COUNTS = (1, 2, 4)
TIMING_ROUNDS = 2
SPEEDUP_FLOOR = 1.5


def reference_sweep(workers: int):
    summaries, failed = compare_parallel(
        WORKLOAD,
        seeds=SEEDS,
        transactions=TRANSACTIONS,
        ops_per_txn=OPS,
        workers=workers,
    )
    assert not failed, [f.error for f in failed]
    return summaries


def timed(thunk):
    """Min-of-N wall time (min is the noise-robust statistic here)."""
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.experiment("EXP-C12")
def test_parallel_compare_identical(benchmark):
    """The fanned-out sweep merges to exactly the serial summaries."""
    adt_factory, workload = comparison_case(
        WORKLOAD, transactions=TRANSACTIONS, ops_per_txn=OPS
    )
    serial = benchmark.pedantic(
        lambda: compare(adt_factory, workload, seeds=SEEDS),
        rounds=1,
        iterations=1,
    )
    serial_table = format_summary_table(serial)
    for workers in WORKER_COUNTS:
        summaries = reference_sweep(workers)
        assert summaries == serial, "workers=%d diverged" % workers
        assert format_summary_table(summaries) == serial_table


@pytest.mark.experiment("EXP-C12")
def test_parallel_torture_identical(benchmark, tmp_path):
    """A fanned-out torture campaign merges to exactly the serial report
    and, traced, writes exactly the serial JSONL bytes."""
    configs = configs_for(["bank", "escrow"], ("DU", "UIP"))

    def campaign(workers, trace=None):
        return run_torture(
            configs,
            schedules=24,
            seed=5,
            max_faults=2,
            trace=trace,
            workers=workers,
        )

    def traced_bytes(workers):
        trace = TraceCollector()
        assert campaign(workers, trace).format() == serial.format()
        path = tmp_path / ("TRACE_w%d.jsonl" % workers)
        assert trace.dump_jsonl(str(path)) > 0
        return path.read_bytes()

    serial = benchmark.pedantic(lambda: campaign(1), rounds=1, iterations=1)
    assert serial.ok, "\n".join(v.format() for v in serial.violations)
    for workers in WORKER_COUNTS[1:]:
        report = campaign(workers)
        assert report.format() == serial.format(), (
            "workers=%d diverged" % workers
        )
    serial_bytes = traced_bytes(1)
    for workers in WORKER_COUNTS[1:]:
        assert traced_bytes(workers) == serial_bytes, (
            "workers=%d trace diverged" % workers
        )


@pytest.mark.experiment("EXP-C12")
def test_parallel_scaling_speedup(benchmark, capsys):
    """Record the scaling curve; assert the floor where CPUs allow."""
    cpus = cpus_available()
    times = {
        workers: timed(lambda w=workers: reference_sweep(w))
        for workers in WORKER_COUNTS
    }
    benchmark.pedantic(lambda: reference_sweep(1), rounds=1, iterations=1)
    record = {
        "workload": WORKLOAD,
        "seeds": len(SEEDS),
        "transactions": TRANSACTIONS,
        "ops_per_txn": OPS,
        "cells": len(SEEDS) * len(standard_configurations()),
        "cpus": cpus,
        "times_s": {str(w): times[w] for w in WORKER_COUNTS},
        "speedup": {
            str(w): times[1] / max(times[w], 1e-9) for w in WORKER_COUNTS
        },
        "floor_asserted": cpus >= 2,
    }
    ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    with capsys.disabled():
        print(
            "\n-- EXP-C12 parallel scaling (%d cpus): "
            "1w %.2fs, 2w %.2fs (%.2fx), 4w %.2fs (%.2fx) --"
            % (
                cpus,
                times[1],
                times[2],
                record["speedup"]["2"],
                times[4],
                record["speedup"]["4"],
            )
        )
    # The artifact above records the honest curve either way; on a
    # 1-CPU box the floor assertions now *skip* (visible in the test
    # report) instead of silently passing.
    require_cpus(2)
    assert record["speedup"]["2"] >= SPEEDUP_FLOOR, record
    if cpus >= 4:
        assert record["speedup"]["4"] >= SPEEDUP_FLOOR, record
