"""The benchmark's metric tables and the arithmetic behind them.

Two kinds of number (see README.md):

* **tick space** — results of the modelled design, in simulated ticks.
  Seeded, so they repeat exactly; a change meant only to speed the
  simulator must leave every one of them identical.
* **host time** — the simulator's own speed on this machine, subject to
  sandbox noise; reported as the median over a workload's repeats.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from spans import layer_self_s, span_calls, span_total_s


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: share of the parent's median by which the metric may get worse.
    bound: float
    space: str  # "host" | "tick"
    meaning: str
    #: absolute slack, in the metric's unit, below which worse is noise.
    floor: float = 0.0


#: The ten end-to-end metrics.  A workload reports the ones that apply
#: to it; a metric it does not report is absent, not zero.
END_TO_END: Tuple[Metric, ...] = (
    Metric("txn_per_s", "txn/s", "higher", 0.25, "host",
           "committed update + read-only transactions per host second of the timed call"),
    Metric("setup_s", "s", "lower", 0.25, "host",
           "interpreter entry to the first timed call: imports, input generation, a warm-up build",
           floor=0.05),
    Metric("peak_rss_mb", "MiB", "lower", 0.20, "host",
           "peak resident set (VmHWM) of the repeat's process at exit"),
    Metric("commit_per_ktick", "txn/ktick", "higher", 0.01, "tick",
           "committed / simulated ticks x 1000"),
    Metric("abort_per_commit", "ratio", "lower", 0.01, "tick",
           "aborts of all reasons / committed"),
    Metric("failed_share", "ratio", "lower", 0.0, "tick",
           "offered transactions that never committed / offered"),
    Metric("lat_p50_ticks", "ticks", "lower", 0.01, "tick",
           "median commit latency from the offered arrival tick"),
    Metric("lat_p95_ticks", "ticks", "lower", 0.01, "tick",
           "95th percentile of the same samples"),
    Metric("lat_p99_ticks", "ticks", "lower", 0.01, "tick",
           "99th percentile; only where at least 10 samples lie beyond it"),
    Metric("forces_per_commit", "ratio", "lower", 0.01, "tick",
           "physical log forces / committed"),
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END}

#: What ``BENCHMARK.json`` lists under ``end_to_end``: the host-time
#: metrics.  They exist on every workload, are never 0 and do not jump
#: with the seed, which is what the driver's cross-seed bound needs; the
#: tick-space seven go to the driver as unbounded ``per_layer`` rows and
#: are held exact by ``compare.py`` instead.
DRIVER_END_TO_END: Tuple[str, ...] = ("txn_per_s", "setup_s", "peak_rss_mb")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("scheduler.self_s", "s", "lower"),
    ("scheduler.ticks", "ticks", "lower"),
    ("scheduler.self_us_per_tick", "us/tick", "lower"),
    ("scheduler.dead_ticks_elided", "ticks", "higher"),
    ("scheduler.calendar_wakeups", "count", "lower"),
    ("scheduler.restarts", "count", "lower"),
    ("scheduler.deadlocks", "count", "lower"),
    ("scheduler.commit_stall_ticks", "ticks", "lower"),
    ("lock_manager.self_s", "s", "lower"),
    ("lock_manager.blockers_calls", "count", "lower"),
    ("lock_manager.blocked_attempts", "count", "lower"),
    ("lock_manager.grant_ratio", "ratio", "higher"),
    ("lock_manager.conflicting_holds_s", "s", "lower"),
    ("lock_manager.waits_for_s", "s", "lower"),
    ("compile_tables.compile_s", "s", "lower"),
    ("compile_tables.compile_calls", "count", "lower"),
    ("recovery.self_s", "s", "lower"),
    ("recovery.enabled_responses_calls", "count", "lower"),
    ("recovery.on_abort_s", "s", "lower"),
    ("recovery.on_abort_calls", "count", "lower"),
    ("recovery.on_commit_s", "s", "lower"),
    ("system.self_s", "s", "lower"),
    ("system.invoke_calls", "count", "lower"),
    ("system.commit_polls_per_commit", "ratio", "lower"),
    ("system.versions_s", "s", "lower"),
    ("system.snapshot_reads", "count", "higher"),
    ("wal.self_s", "s", "lower"),
    ("wal.tick_calls", "count", "lower"),
    ("wal.forces", "count", "lower"),
    ("wal.force_requests", "count", "lower"),
    ("wal.forced_records", "count", "lower"),
    ("wal.avg_batch_size", "ratio", "higher"),
    ("wal.restart_s", "s", "lower"),
    ("durability.self_s", "s", "lower"),
    ("durability.crash_s", "s", "lower"),
    ("durability.crashes", "count", "lower"),
    ("durability.checkpoints", "count", "lower"),
    ("trace.self_s", "s", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.events_per_commit", "ratio", "lower"),
    ("sharding.self_s", "s", "lower"),
    ("sharding.cross_shard_txns", "count", "lower"),
    ("replication.self_s", "s", "lower"),
    ("replication.fail_site_s", "s", "lower"),
    ("replication.recover_site_s", "s", "lower"),
    ("replication.catchup_s", "s", "lower"),
    ("replication.site_failures", "count", "lower"),
    ("replication.requalified", "count", "higher"),
    ("openloop.gen_s", "s", "lower"),
    ("openloop.self_s", "s", "lower"),
    ("openloop.offered", "count", "higher"),
    ("openloop.generator_late_ticks", "ticks", "lower"),
    ("torture.self_s", "s", "lower"),
    ("torture.plan_s", "s", "lower"),
    ("torture.audit_s", "s", "lower"),
    ("torture.audit_share", "ratio", "lower"),
    ("torture.schedules", "count", "higher"),
    ("torture.faults_fired", "count", "higher"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.runs", "count", "higher"),
    ("ledger.overhead_ratio", "ratio", "lower"),
    ("ledger.coverage", "ratio", "higher"),
    ("ledger.counters_identical", "count", "higher"),
    ("ledger.spans_missing", "count", "lower"),
)

#: Fewest samples that must lie beyond a reported percentile.
BEYOND = 10


def percentile(sorted_values: Sequence[int], q: float) -> Optional[int]:
    """Nearest-rank percentile, or None with fewer than :data:`BEYOND`
    samples beyond it (p99 needs 1000 samples, p95 200, p50 20)."""
    n = len(sorted_values)
    rank = math.ceil(q * n)
    if rank < 1 or n - rank < BEYOND:
        return None
    return sorted_values[rank - 1]


def tick_metrics(
    *,
    offered: int,
    failed: int,
    done: int,
    counters: Optional[Dict[str, int]],
    latencies: Optional[Sequence[int]],
    durable: bool,
) -> Dict[str, float]:
    """The tick-space end-to-end metrics one repeat can report.

    ``counters`` are summed ``RunMetrics`` counters (None: the workload
    exposes none); ``latencies`` are commit ticks minus offered arrival
    ticks (None: closed loop); ``durable`` says whether a log exists.
    """
    out: Dict[str, float] = {"failed_share": failed / offered}
    if counters is not None and done:
        aborted = counters["aborted"] + counters["ro_aborts"]
        out["commit_per_ktick"] = done / counters["ticks"] * 1000
        out["abort_per_commit"] = aborted / done
        if durable and counters["committed"]:
            out["forces_per_commit"] = counters["forces"] / counters["committed"]
    if latencies is not None:
        ordered = sorted(latencies)
        for name, q in (
            ("lat_p50_ticks", 0.50),
            ("lat_p95_ticks", 0.95),
            ("lat_p99_ticks", 0.99),
        ):
            value = percentile(ordered, q)
            if value is not None:
                out[name] = value
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three.

    The inclusive method: the values are all the runs there are, and
    with the three repeats of one run the exclusive method would return
    their minimum and maximum.
    """
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def layer_metrics(ledger: Dict[str, object], plain_walls: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics of one ledger repeat (see README.md).

    Times come from the repeat's span rows, counts from its counters,
    its report fields (``counts``) or span call counts.  Layers the
    workload never entered are left out.
    """
    rows = ledger["spans"]
    counters = ledger["counters"]
    counts = ledger["counts"]
    done = ledger["done"]
    out: Dict[str, float] = {}
    selfs = layer_self_s(rows)
    for layer, seconds in selfs.items():
        key = "compile_s" if layer == "compile_tables" else "self_s"
        out["%s.%s" % (layer, key)] = seconds

    total = functools.partial(span_total_s, rows)
    calls = functools.partial(span_calls, rows)

    if "ticks" in counters:
        ticks = counters["ticks"]
        attempts = counters["operations"] + counters["blocked_attempts"]
        out["scheduler.ticks"] = ticks
        out["scheduler.self_us_per_tick"] = selfs.get("scheduler", 0.0) * 1e6 / ticks
        for name in ("dead_ticks_elided", "calendar_wakeups", "restarts",
                     "deadlocks", "commit_stall_ticks"):
            out["scheduler." + name] = counters[name]
        out["lock_manager.blocked_attempts"] = counters["blocked_attempts"]
        out["lock_manager.grant_ratio"] = counters["operations"] / attempts
        out["system.snapshot_reads"] = counters["ro_snapshot_reads"]
        for name in ("forces", "force_requests", "forced_records"):
            out["wal." + name] = counters[name]
        if counters["forces"]:
            out["wal.avg_batch_size"] = counters["force_requests"] / counters["forces"]
    if "lock_manager" in selfs:
        out["lock_manager.blockers_calls"] = calls("lock_manager", "LockManager.blockers")
        out["lock_manager.conflicting_holds_s"] = total(
            "lock_manager", "LockManager.conflicting_holds")
        out["lock_manager.waits_for_s"] = total(
            "lock_manager", "WaitsForGraph.wait", "WaitsForGraph.find_cycle",
            "WaitsForGraph.remove_transaction")
    if "compile_tables" in selfs:
        out["compile_tables.compile_calls"] = calls(
            "compile_tables", "maybe_compile", "compile_adt_tables")
    if "recovery" in selfs:
        out["recovery.enabled_responses_calls"] = calls("recovery", "enabled_responses")
        out["recovery.on_abort_s"] = total("recovery", "on_abort")
        out["recovery.on_abort_calls"] = calls("recovery", "on_abort")
        out["recovery.on_commit_s"] = total("recovery", "on_commit")
    if "system" in selfs:
        out["system.invoke_calls"] = calls("system", "TransactionSystem.invoke") + calls(
            "replication", "ReplicatedSystem.invoke")
        if counters.get("committed"):
            out["system.commit_polls_per_commit"] = (
                calls("system", "TransactionSystem.commit") / counters["committed"])
        out["system.versions_s"] = total(
            "system", "install_version", "prune_versions", "version_at", "read_at")
    if "wal" in selfs:
        out["wal.tick_calls"] = calls("wal", "StableLog.tick")
        out["wal.restart_s"] = total("wal", "restart")
    if "durability" in selfs:
        out["durability.crash_s"] = total(
            "durability", "CrashableSystem.crash", "DurableObject.crash_and_restart")
        out["durability.crashes"] = calls("durability", "CrashableSystem.crash")
        out["durability.checkpoints"] = calls("durability", "DurableObject.checkpoint")
    if "trace" in selfs:
        out["trace.events"] = calls("trace", "TraceCollector.emit")
        out["trace.events_per_commit"] = out["trace.events"] / done
    if "replication" in selfs:
        out["replication.fail_site_s"] = total("replication", "fail_site")
        out["replication.recover_site_s"] = total("replication", "recover_site")
        out["replication.catchup_s"] = total("replication", "_replay_catchup")
    if "openloop" in selfs:
        out["openloop.gen_s"] = total("openloop", "open_loop_scripts")
        # Arrivals are simulated ticks and the wake calendar injects each
        # script exactly at its tick: the generator is never late.
        out["openloop.generator_late_ticks"] = 0
    if "torture" in selfs:
        out["torture.plan_s"] = total("torture", "plan_campaign")
        out["torture.audit_s"] = total("torture", "audit_recovery")
        out["torture.audit_share"] = out["torture.audit_s"] / ledger["wall_s"]
    out.update(counts)
    out["ledger.overhead_ratio"] = ledger["wall_s"] / statistics.median(plain_walls)
    out["ledger.coverage"] = sum(selfs.values()) / ledger["wall_s"]
    out["ledger.spans_missing"] = ledger["spans_missing"]
    return out
