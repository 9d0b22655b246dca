"""An untraced open-loop drive keeps what is live, not what it has seen.

A drive builds its system with ``history=False``: no event history,
no read-only observations, no touched-object sets of finished
transactions, and each recovery manager drops its response memo at
quiescence.  It builds each script only on its arrival tick and drops
the scheduler's entry for it when it finishes; what the report needs is
kept in per-arrival columns of a few bytes each.  What is left grows
with the live transactions and the committed state, so the drive's
``tracemalloc`` peak per offered transaction is bounded:

* the ``steady_hotspot`` shape of the end-to-end benchmark at 2 000
  transactions reads about 1 160 bytes (about 1 810 when every script
  was built before the drive and kept to its end, about 3 300 with the
  whole history kept); the bound is 1 500.  At 20 000 transactions it
  reads about 720 (1 360 with every script kept).
* the ``read_mostly`` shape (3 600 arrivals, 90 % snapshot readers) reads
  about 460 bytes (about 1 110 with every script kept); the bound is 700.

Assertion-only: no artifact is written.
"""

import gc
import tracemalloc
from dataclasses import replace

from repro.runtime.openloop import OpenLoopConfig, drive

MAX_PEAK_BYTES_PER_TXN = 1500
#: the ``steady_hotspot`` workload of ``benchmarks/e2e``.
STEADY_HOTSPOT = OpenLoopConfig(
    adt_kind="bank", recovery="DU", objects=64, shards=2, zipf_s=1.1,
    group_commit=4, hold=4, read_mix=0.2, cross_shard=0.1,
    transactions=2000, arrival_rate=0.12,
)
MAX_READ_MOSTLY_PEAK_BYTES_PER_TXN = 700
#: the ``read_mostly`` workload of ``benchmarks/e2e``.
READ_MOSTLY = replace(
    STEADY_HOTSPOT, read_mix=0.9, transactions=3600, arrival_rate=0.4
)


def drive_peak_bytes_per_txn(config: OpenLoopConfig = STEADY_HOTSPOT) -> float:
    """The ``tracemalloc`` peak of one untraced seed-0 drive over what
    was allocated before it, per offered transaction."""
    drive(config, seed=0)  # warm: lazy imports, compiled tables, interning
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = drive(config, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / report.offered


def test_an_untraced_drive_keeps_bounded_memory():
    per_txn = drive_peak_bytes_per_txn()
    assert per_txn <= MAX_PEAK_BYTES_PER_TXN, round(per_txn)


def test_a_read_mostly_drive_keeps_bounded_memory():
    per_txn = drive_peak_bytes_per_txn(READ_MOSTLY)
    assert per_txn <= MAX_READ_MOSTLY_PEAK_BYTES_PER_TXN, round(per_txn)
