"""EXP-C18: event-driven scheduler — dead-tick elision skips the loop,
not the semantics.

The scheduler's wake calendar (``repro.runtime.scheduler``) jumps the
stretches of ticks where no transaction is runnable, no hook is due and
no group-commit hold timer can expire, instead of walking them one
``system.tick()`` at a time.  The claims this bench pins down:

1. **Elision is invisible** — the scheduler and its walking oracle
   (``repro.reference.walk_dead_ticks``, "polling" below) produce
   identical RunMetrics counters, commit latencies and JSONL traces on
   both workloads below.  These are the trend-gate equality fields.
2. **Sparse drives collapse to their live ticks** — a low-rate zipfian
   open-loop drive (case ``sparse``) makes 400 passes of the scheduler
   loop for the 60 010 ticks the polling loop walks (``ticks -
   dead_ticks_elided`` against ``ticks``): under 1 in 100.
3. **Crash-matrix drives still win** — a replicated drive through a
   site-crash window with group-commit holds (case ``crash_matrix``,
   the torture-style axes: crash schedule x hold timer x sites) makes
   1 343 passes for 24 016 ticks: under 1 in 10.  (The fully-contended
   closed torture matrix has no dead ticks at all — some transaction is
   always runnable — so elision is a no-op there by construction; the
   differential suite covers it for equality instead.)

The claims are counted, not timed: the runs take 12-56 ms, where a
wall-clock ratio is host noise (the crash-matrix case read 1.24-2.37x
against a 1.5x floor), and since only the logs holding a batch are
ticked a walked dead tick costs the polling loop next to nothing.
"""

import contextlib
import json
import pathlib

import pytest

from repro.reference import walk_dead_ticks
from repro.runtime.openloop import OpenLoopConfig, drive
from repro.runtime.trace import TraceCollector

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_event_scheduler.json"
)

SEED = 3
#: the share of the walked ticks a case may spend a loop pass on.
MAX_LIVE_SHARE = {"sparse": 0.01, "crash_matrix": 0.1}

CASES = {
    # ~60k ticks of which over 99% are dead: arrivals trickle in at 0.002
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
def test_event_scheduler_skips_dead_ticks(benchmark, capsys):
    """Record the elision counters; the loop passes made are a small
    share of the ticks the polling loop would walk."""
    reports = {name: run_case(name, polling=False)[0] for name in CASES}
    benchmark.pedantic(
        lambda: run_case("sparse", polling=False), rounds=1, iterations=1
    )
    record = {
        "experiment": "EXP-C18",
        "seed": SEED,
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
    }
    ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    passes = {
        name: case["ticks"] - case["dead_ticks_elided"]
        for name, case in record["cases"].items()
    }
    with capsys.disabled():
        print(
            "\n-- EXP-C18 event scheduler: sparse %d loop passes for %d "
            "ticks, crash-matrix %d for %d --"
            % (
                passes["sparse"],
                record["cases"]["sparse"]["ticks"],
                passes["crash_matrix"],
                record["cases"]["crash_matrix"]["ticks"],
            )
        )
    for name, case in record["cases"].items():
        assert passes[name] <= MAX_LIVE_SHARE[name] * case["ticks"], (name, case)
