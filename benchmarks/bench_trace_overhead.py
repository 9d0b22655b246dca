"""EXP-C11: trace overhead — the nullable hook must be free when unused.

The trace layer (``repro.runtime.trace``) hangs off the scheduler tick
loop behind a nullable hook: every emit site guards with
``if trace is not None``.  The claims this bench pins down:

1. **Observational equivalence** — a traced run and an untraced run of
   the same seeded workload produce identical ``RunMetrics`` counters:
   tracing observes the schedule, it never perturbs it.
2. **Reconciliation** — every counter rebuilt from the traced event
   stream equals the scheduler's own accounting field-for-field (the
   trace doubles as a cross-check on the scheduler).
3. **Bounded cost** — the untraced path is the benchmark's measured
   subject (any tick-loop regression shows up here and in
   ``bench_hotspot_concurrency.py``); the traced/untraced wall-time
   ratio is recorded in the artifact and sanity-bounded to catch a
   pathological emit path (an accidentally quadratic collector).
4. **Bounded memory** — a traced open-loop drive keeps at most
   ``MAX_BYTES_PER_EVENT`` bytes per event once its system is freed
   (``tracemalloc``): the one flat column keeps about 40 (the kind, its
   values, a tick delta where the tick moved), a tuple per event kept
   about 100 and a dict per event about 250, so a return to either fails
   here.

Results land in ``BENCH_trace_overhead.json`` for the CI artifact
trail.
"""

import gc
import json
import pathlib
import random
import time
import tracemalloc

import pytest

from repro.adts.registry import make_adt
from repro.runtime.openloop import OpenLoopConfig, drive
from repro.runtime.scheduler import Scheduler
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.trace import TraceCollector, reconcile
from repro.runtime.wal import GroupCommitPolicy, StableLog
from repro.runtime.workloads import hotspot_banking

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_trace_overhead.json"

TRANSACTIONS = 24
OPS_PER_TXN = 3
SEED = 11
TIMING_ROUNDS = 5
MAX_BYTES_PER_EVENT = 48
#: the ``steady_hotspot`` shape of the end-to-end benchmark, smaller
DRIVE = OpenLoopConfig(
    adt_kind="bank", recovery="DU", objects=64, shards=2, zipf_s=1.1,
    group_commit=4, hold=4, read_mix=0.2, cross_shard=0.1,
    transactions=400, arrival_rate=0.12,
)


def build_run(trace=None, group_commit=1):
    """One seeded hotspot run; deterministic given (trace is irrelevant)."""
    adt = make_adt("bank")
    conflict = adt.nfc_conflict()
    scripts = hotspot_banking(
        random.Random(SEED),
        obj=adt.name,
        transactions=TRANSACTIONS,
        ops_per_txn=OPS_PER_TXN,
    )
    if group_commit > 1:
        policy = GroupCommitPolicy(batch_size=group_commit, max_hold=3)
        obj = ManagedObject(
            adt, conflict, "DU", log=StableLog(policy=policy)
        )
        system = TransactionSystem([obj])
    else:
        system = TransactionSystem([ManagedObject(adt, conflict, "DU")])
    return Scheduler(
        system, scripts, seed=SEED, label="trace-overhead", trace=trace
    )


def timed(thunk):
    """Min-of-N wall time (min is the noise-robust statistic here)."""
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def trace_bytes_per_event() -> float:
    """What one traced drive leaves allocated per event once the drive
    returns and its system is freed: the trace."""
    drive(DRIVE, seed=0)  # warm: lazy imports, interned operations
    gc.collect()
    tracemalloc.start()
    try:
        trace = TraceCollector()
        before = tracemalloc.get_traced_memory()[0]
        drive(DRIVE, seed=0, trace=trace)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(trace.events)


@pytest.mark.experiment("EXP-C11")
def test_tracing_observes_without_perturbing(benchmark):
    """Traced and untraced runs are identical; the trace reconciles."""

    def untraced():
        return build_run().run()

    baseline = benchmark.pedantic(untraced, rounds=1, iterations=1)

    trace = TraceCollector()
    traced = build_run(trace=trace).run()
    assert traced.counters() == baseline.counters()

    results = reconcile(trace.events)
    assert results and all(r.ok for r in results), [
        r.mismatches for r in results
    ]
    assert results[0].reported == traced.counters()

    # Same holds under group commit (forces, stalls, batch accounting).
    gc_trace = TraceCollector()
    gc_traced = build_run(trace=gc_trace, group_commit=4).run()
    gc_untraced = build_run(group_commit=4).run()
    assert gc_traced.counters() == gc_untraced.counters()
    gc_results = reconcile(gc_trace.events)
    assert gc_results and all(r.ok for r in gc_results)

    overhead = {
        "untraced_s": timed(lambda: build_run().run()),
        "traced_s": timed(lambda: build_run(trace=TraceCollector()).run()),
        "events": len(trace.events),
        "counters": baseline.counters(),
    }
    overhead["ratio"] = overhead["traced_s"] / overhead["untraced_s"]
    # Emitting appends one event's slots to a list; anything past this bound
    # means the collector went super-linear, not that the constant grew.
    assert overhead["ratio"] < 25.0, overhead
    per_event = trace_bytes_per_event()
    overhead["bytes_per_event"] = round(per_event, 1)
    assert per_event <= MAX_BYTES_PER_EVENT, overhead
    ARTIFACT.write_text(json.dumps(overhead, indent=2, sort_keys=True) + "\n")
