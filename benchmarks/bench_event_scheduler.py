"""EXP-C18: event-driven scheduler — dead-tick elision buys wall clock,
not semantics.

The scheduler's wake calendar (``repro.runtime.scheduler``) jumps the
stretches of ticks where no transaction is runnable, no hook is due and
no group-commit hold timer can expire, instead of walking them one
``system.tick()`` at a time.  The claims this bench pins down:

1. **Elision is invisible** — the scheduler and its walking oracle
   (``repro.reference.walk_dead_ticks``, "polling" below) produce
   identical RunMetrics counters, commit latencies and JSONL traces on
   both workloads below.  These are the trend-gate equality fields.
2. **Sparse drives collapse to their live ticks** — a low-rate zipfian
   open-loop drive (case ``sparse``) is ~95% dead ticks; the wall-clock
   floor is >= 3x over polling.
3. **Crash-matrix drives still win** — a replicated drive through a
   site-crash window with group-commit holds (case ``crash_matrix``,
   the torture-style axes: crash schedule x hold timer x sites) keeps a
   >= 1.5x floor.  Since only the logs holding a batch are ticked, a
   walked dead tick costs the walking oracle next to nothing, so the
   jump has less left to save than it had (measured 1.5-1.7x, was
   3.2x; the sparse case 4.7-5.0x, was 11.4x).  (The fully-contended
   closed torture matrix has no dead ticks at all — some transaction is
   always runnable — so elision is a no-op there by construction; the
   differential suite covers it for equality instead.)

Floors are asserted only on >= 2-CPU machines (shared 1-vCPU runners
time too noisily) and ``REPRO_BENCH_EQUALITY_ONLY=1`` skips the timing
section outright; the equality claims run everywhere.
"""

import contextlib
import json
import pathlib
import time

import pytest

from conftest import cpus_available, require_cpus

from repro.reference import walk_dead_ticks
from repro.runtime.openloop import OpenLoopConfig, drive
from repro.runtime.trace import TraceCollector

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_event_scheduler.json"
)

SEED = 3
TIMING_ROUNDS = 5
FLOOR_SPARSE = 3.0
FLOOR_CRASH_MATRIX = 1.5

CASES = {
    # ~24k ticks of which ~95% are dead: arrivals trickle in at 0.002
    # per tick and each transaction finishes in a few live ticks.
    "sparse": OpenLoopConfig(
        adt_kind="counter",
        objects=32,
        transactions=100,
        arrival_rate=0.002,
        zipf_s=0.8,
    ),
    # The torture-style axes on an open-loop clock: 2 sites, a site
    # down for a long window mid-run, group-commit holding batches.
    "crash_matrix": OpenLoopConfig(
        adt_kind="counter",
        objects=24,
        transactions=100,
        arrival_rate=0.005,
        zipf_s=0.8,
        group_commit=2,
        hold=4,
        sites=2,
        site_crashes=((1, 500, 8000),),
    ),
}


def run_case(name: str, polling: bool, with_trace: bool = False):
    """One drive of ``CASES[name]``, dead ticks jumped or (``polling``) walked."""
    with walk_dead_ticks() if polling else contextlib.nullcontext():
        trace = TraceCollector() if with_trace else None
        report = drive(CASES[name], seed=SEED, trace=trace)
        events = [dict(e) for e in trace.events] if with_trace else None
        return report, events


def timed_case(name: str, polling: bool) -> float:
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        run_case(name, polling)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.experiment("EXP-C18")
def test_event_and_polling_loops_identical(benchmark):
    """Counters, latencies and full traces match between the loops."""

    def both(name):
        event, event_trace = run_case(name, polling=False, with_trace=True)
        polling, polling_trace = run_case(name, polling=True, with_trace=True)
        return (event, event_trace), (polling, polling_trace)

    for i, name in enumerate(CASES):
        if i == 0:
            (event, event_trace), (polling, polling_trace) = (
                benchmark.pedantic(
                    lambda n=name: both(n), rounds=1, iterations=1
                )
            )
        else:
            (event, event_trace), (polling, polling_trace) = both(name)
        assert event.metrics.counters() == polling.metrics.counters(), name
        assert event.latencies == polling.latencies, name
        assert event_trace == polling_trace, (
            "%s: trace streams diverged" % name
        )
        assert event.metrics.dead_ticks_elided > 0, (
            "%s: no dead ticks — the case no longer exercises elision"
            % name
        )


@pytest.mark.experiment("EXP-C18")
def test_event_scheduler_speedup(benchmark, capsys):
    """Record the elision curve; assert floors where the clock is sane."""
    cpus = cpus_available()
    reports = {name: run_case(name, polling=False)[0] for name in CASES}
    benchmark.pedantic(
        lambda: run_case("sparse", polling=False), rounds=1, iterations=1
    )
    record = {
        "experiment": "EXP-C18",
        "seed": SEED,
        "cpus": cpus,
        "cases": {
            name: {
                "committed": report.metrics.committed,
                "operations": report.metrics.operations,
                "ticks": report.metrics.ticks,
                "dead_ticks_elided": report.metrics.dead_ticks_elided,
                "calendar_wakeups": report.metrics.calendar_wakeups,
                "latency_ticks": report.latency_summary(),
            }
            for name, report in reports.items()
        },
        "floor_asserted": cpus >= 2,
    }
    times = {
        name: {
            "polling": timed_case(name, polling=True),
            "event": timed_case(name, polling=False),
        }
        for name in CASES
    }
    record["times_s"] = {
        name: dict(walls) for name, walls in times.items()
    }
    record["speedup"] = {
        name: walls["polling"] / max(walls["event"], 1e-9)
        for name, walls in times.items()
    }
    ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    with capsys.disabled():
        print(
            "\n-- EXP-C18 event scheduler (%d cpus): "
            "sparse %.2fx (%.3fs -> %.3fs), crash-matrix %.2fx "
            "(%.3fs -> %.3fs) --"
            % (
                cpus,
                record["speedup"]["sparse"],
                times["sparse"]["polling"],
                times["sparse"]["event"],
                record["speedup"]["crash_matrix"],
                times["crash_matrix"]["polling"],
                times["crash_matrix"]["event"],
            )
        )
    require_cpus(2)
    assert record["speedup"]["sparse"] >= FLOOR_SPARSE, record
    assert record["speedup"]["crash_matrix"] >= FLOOR_CRASH_MATRIX, record
