"""Tests for structured run tracing and trace<->metrics reconciliation.

The load-bearing property: every :class:`RunMetrics` counter rebuilt
from the trace stream equals the scheduler's own accounting,
field-for-field, across workloads, seeds, group-commit batch sizes and
crash schedules.  A trace that reconciles is a correctness cross-check
on the scheduler; a mismatch means an emit site and a counter increment
have drifted apart.
"""

import ast
import gc
import pathlib
import pickle
import random
import tracemalloc

import pytest

from repro.adts.registry import make_adt
from repro.runtime import (
    EVENT_SCHEMA,
    FaultPlan,
    GroupCommitPolicy,
    ManagedObject,
    Scheduler,
    StableLog,
    TortureConfig,
    TraceCollector,
    TransactionSystem,
    commit_latencies,
    contention_profile,
    format_trace_report,
    latency_histogram,
    load_jsonl,
    reconcile,
    reconstruct_counters,
    run_schedule,
    validate_event,
)
from repro.runtime.openloop import OpenLoopConfig, drive
from repro.runtime.sharding import ShardTrace
from repro.runtime import trace as trace_module
from repro.runtime.torture import configs_for, run_torture
from repro.runtime.trace import EVENT_FIELDS, _scan, _Stamp
from repro.runtime.workloads import (
    escrow_workload,
    hotspot_banking,
    producer_consumer,
)

WORKLOADS = {
    "hotspot": ("bank", hotspot_banking),
    "escrow": ("escrow", escrow_workload),
}


def build_traced_run(workload, seed, group_commit=1, hold=3):
    """One traced scheduler run; returns (metrics, collector)."""
    rng = random.Random(seed)
    if workload == "fifo":
        adt = make_adt("fifo")
        scripts = producer_consumer(
            rng, obj=adt.name, producers=3, consumers=3, ops_per_txn=2
        )
    else:
        kind, generator = WORKLOADS[workload]
        adt = make_adt(kind)
        scripts = generator(rng, obj=adt.name, transactions=6, ops_per_txn=3)
    conflict = adt.nfc_conflict()
    if group_commit > 1:
        policy = GroupCommitPolicy(group_commit, hold)
        obj = ManagedObject(
            adt, conflict, "DU", log=StableLog(policy=policy)
        )
        system = TransactionSystem([obj])
    else:
        system = TransactionSystem([ManagedObject(adt, conflict, "DU")])
    trace = TraceCollector()
    metrics = Scheduler(
        system,
        scripts,
        seed=seed,
        label="%s-s%d-gc%d" % (workload, seed, group_commit),
        trace=trace,
    ).run()
    return metrics, trace


def assert_reconciles(trace):
    for event in trace.events:
        error = validate_event(event)
        assert error is None, error
    results = reconcile(trace.events)
    assert results, "no completed run segment"
    for result in results:
        assert result.ok, result.mismatches
    return results


class TestReconciliationMatrix:
    @pytest.mark.parametrize("workload", ["hotspot", "escrow", "fifo"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_volatile_runs_reconcile(self, workload, seed):
        metrics, trace = build_traced_run(workload, seed)
        results = assert_reconciles(trace)
        assert results[0].reported == metrics.counters()

    @pytest.mark.parametrize("workload", ["hotspot", "fifo"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_group_commit_runs_reconcile(self, workload, seed):
        metrics, trace = build_traced_run(workload, seed, group_commit=4)
        assert_reconciles(trace)
        # Group commit actually exercised: requests were coalesced.
        assert metrics.force_requests >= metrics.forces

    def test_torture_crash_schedule_reconciles(self):
        trace = TraceCollector()
        config = TortureConfig(
            "bank", "DU", transactions=4, ops_per_txn=2, group_commit=2, hold=2
        )
        plan = FaultPlan.crash_at(5, "crash-after-append")
        run_schedule(config, plan, seed=3, trace=trace)
        results = assert_reconciles(trace)
        kinds = {e["kind"] for e in trace.events}
        assert "crash" in kinds and "recovery" in kinds
        # The crash aborts reconcile too (the bugfix counter).
        assert results[0].reported["crash_aborts"] > 0

    def test_torture_torn_force_reconciles(self):
        trace = TraceCollector()
        config = TortureConfig(
            "bank", "DU", transactions=4, ops_per_txn=2, group_commit=3, hold=2
        )
        plan = FaultPlan.crash_at(8, "crash-during-force", keep=1, seed=7)
        run_schedule(config, plan, seed=7, trace=trace)
        assert_reconciles(trace)

    def test_traced_and_untraced_runs_identical(self):
        rng_a, rng_b = random.Random(5), random.Random(5)
        adt_a, adt_b = make_adt("bank"), make_adt("bank")
        scripts_a = hotspot_banking(
            rng_a, obj=adt_a.name, transactions=6, ops_per_txn=3
        )
        scripts_b = hotspot_banking(
            rng_b, obj=adt_b.name, transactions=6, ops_per_txn=3
        )
        sys_a = TransactionSystem(
            [ManagedObject(adt_a, adt_a.nfc_conflict(), "DU")]
        )
        sys_b = TransactionSystem(
            [ManagedObject(adt_b, adt_b.nfc_conflict(), "DU")]
        )
        untraced = Scheduler(sys_a, scripts_a, seed=5, label="x").run()
        traced = Scheduler(
            sys_b, scripts_b, seed=5, label="x", trace=TraceCollector()
        ).run()
        assert untraced.counters() == traced.counters()


class TestCrashRestartRegression:
    """Scheduler.handle_crash: backoff reset + crash_aborts accounting."""

    def _scheduler(self):
        adt = make_adt("bank")
        system = TransactionSystem(
            [ManagedObject(adt, adt.nfc_conflict(), "DU")]
        )
        from repro.core.events import Invocation
        from repro.runtime.scheduler import TransactionScript

        scripts = [
            TransactionScript(
                "T%d" % i, ((adt.name, Invocation("deposit", (1,))),)
            )
            for i in range(2)
        ]
        return Scheduler(system, scripts, seed=0, label="crash-test")

    def test_backoff_reset_on_crash_restart(self):
        scheduler = self._scheduler()
        entry = scheduler._active[0]
        entry.backoff_until = 10_000  # stale pre-crash backoff window
        entry.stall_ticks = 9
        scheduler.handle_crash({entry.txn}, tick=12)
        assert entry.backoff_until == 0
        assert entry.stall_ticks == 0
        assert entry.txn == "T0~r1"

    def test_crash_aborts_counted_separately(self):
        scheduler = self._scheduler()
        victims = {t.txn for t in scheduler._active}
        scheduler.handle_crash(victims, tick=1)
        assert scheduler.metrics.aborted == 2
        assert scheduler.metrics.crash_aborts == 2
        assert scheduler.metrics.restarts == 2

    def test_deadlock_aborts_not_counted_as_crash(self):
        metrics, trace = build_traced_run("hotspot", 0)
        if metrics.aborted:
            assert metrics.crash_aborts == 0


class TestEventStream:
    def test_jsonl_round_trip(self, tmp_path):
        import json

        _, trace = build_traced_run("hotspot", 1)
        path = str(tmp_path / "t.jsonl")
        count = trace.dump_jsonl(path)
        assert count == len(trace.events)
        loaded = load_jsonl(path)
        # JSON canonicalizes tuples to lists; compare canonical forms.
        assert loaded == [
            json.loads(json.dumps(e)) for e in trace.events
        ]
        assert reconcile(loaded)[0].ok

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="line 1"):
            load_jsonl(str(path))

    def test_load_rejects_schema_violation(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "txn-commit", "tick": 3}\n')
        with pytest.raises(ValueError, match="missing required fields"):
            load_jsonl(str(path))

    def test_validate_event_cases(self):
        assert validate_event("nope") is not None
        assert validate_event({"kind": "martian", "tick": 0}) is not None
        assert validate_event({"kind": "op-ok", "tick": -1}) is not None
        ok = {"kind": "op-ok", "tick": 2, "txn": "T", "obj": "X", "op": "w"}
        assert validate_event(ok) is None

    def test_every_schema_kind_has_fields_tuple(self):
        for kind, required in EVENT_SCHEMA.items():
            assert isinstance(required, tuple), kind

    def test_lock_waits_carry_conflict_pairs(self):
        metrics, trace = build_traced_run("hotspot", 0)
        waits = [e for e in trace.events if e["kind"] == "lock-wait"]
        if metrics.blocked_attempts:
            assert waits
        for event in waits:
            assert event["pairs"], "lock-wait without attribution"
            for new_label, held_label, holder in event["pairs"]:
                assert new_label and held_label and holder

    def test_2pc_phases_in_order_per_txn(self):
        _, trace = build_traced_run("fifo", 2, group_commit=4)
        phases = {}
        for event in trace.events:
            if event["kind"].startswith("2pc-"):
                phases.setdefault(event["txn"], []).append(event["kind"])
        assert phases
        for txn, kinds in phases.items():
            assert kinds[0] == "2pc-prepare", txn
            assert kinds[-1] == "2pc-complete", txn


class TestDerivedReports:
    def test_commit_latencies_match_committed(self):
        metrics, trace = build_traced_run("hotspot", 2)
        rows = commit_latencies(trace.events)
        assert len(rows) == metrics.committed
        for row in rows:
            assert row["latency"] == row["committed"] - row["born"]
            assert row["stall_ticks"] + row["other_ticks"] == row["latency"]

    def test_latency_histogram_partitions(self):
        buckets = latency_histogram([0, 1, 2, 3, 9, 70])
        assert sum(count for _, _, count in buckets) == 6
        for lo, hi, _ in buckets:
            assert lo <= hi

    def test_contention_profile_totals(self):
        metrics, trace = build_traced_run("hotspot", 0)
        profile = contention_profile(trace.events)
        assert profile["blocked_attempts"] == metrics.blocked_attempts
        assert sum(profile["objects"].values()) == metrics.blocked_attempts
        for _obj, _new, _held, count, share in profile["pairs"]:
            assert count > 0
            assert 0.0 < share <= 1.0

    def test_report_renders(self):
        _, trace = build_traced_run("hotspot", 0)
        text = format_trace_report(trace.events)
        assert "reconcile" in text and "OK" in text
        assert "contention" in text

    def test_reconstruct_counters_empty_stream(self):
        counters = reconstruct_counters([])
        assert all(v == 0 for v in counters.values())


class TestPercentiles:
    """Nearest-rank percentile pins (the ceil(q*n)-1 off-by-one fix)."""

    def test_shared_percentile_constant(self):
        from repro.runtime.trace import PERCENTILES

        assert PERCENTILES == (0.50, 0.95, 0.99)

    def test_nearest_rank_pins(self):
        from repro.runtime.trace import _percentile

        data = list(range(1, 101))
        assert _percentile(data, 0.50) == 50
        assert _percentile(data, 0.95) == 95
        assert _percentile(data, 0.99) == 99
        # Small populations: rank ceil(q*n), 1-indexed.
        assert _percentile([10, 20, 30, 40], 0.50) == 20
        assert _percentile([10, 20, 30, 40], 0.95) == 40
        assert _percentile([7], 0.99) == 7
        assert _percentile([], 0.50) == 0

    def test_report_prints_all_three_percentiles(self):
        _, trace = build_traced_run("hotspot", 0)
        text = format_trace_report(trace.events)
        assert "p50" in text and "p95" in text and "p99" in text


# ---------------------------------------------------------------------------
# one flat record per collector, decoded on read
# ---------------------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
STAMP_FIELDS = ("shard", "site")


def _emit_calls():
    """``(where, call)`` for every ``<x>.emit(...)`` call under ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
            ):
                yield "%s:%d" % (path.relative_to(SRC), node.lineno), node


#: one sharded and one 3-site drive: every event of their objects and
#: logs carries a domain stamp
STAMPED_DRIVES = pytest.mark.parametrize(
    "config",
    [
        OpenLoopConfig(objects=6, shards=2, transactions=40, group_commit=2,
                       cross_shard=0.3, read_mix=0.2),
        OpenLoopConfig(objects=6, transactions=40, group_commit=2, read_mix=0.2,
                       sites=3, site_crashes=((1, 5, 15),)),
    ],
    ids=["shards", "sites"],
)


def _two_segment_torture_trace():
    trace = TraceCollector()
    run_torture(configs_for(["bank"], ("DU",)), schedules=2, seed=3, trace=trace)
    return trace


class TestPositionalRecords:
    def test_every_emit_site_passes_the_kind_tables_arity(self):
        """No emit site passes a keyword; one that names its kind passes
        exactly that kind's :data:`EVENT_FIELDS` values, so the table and
        the sites cannot drift apart.  (A domain proxy appends its stamp
        itself; ``test_recorded_arity_matches_the_kind_table`` checks
        what lands in the collector.)"""
        literal = 0
        for where, call in _emit_calls():
            assert not call.keywords, "%s passes keywords to emit" % where
            kind = call.args[0]
            if not isinstance(kind, ast.Constant):
                continue
            literal += 1
            assert kind.value in EVENT_FIELDS, "%s: unknown kind %r" % (where, kind.value)
            values = call.args[1:]
            assert not any(isinstance(v, ast.Starred) for v in values), where
            assert len(values) == len(EVENT_FIELDS[kind.value]), (
                "%s: %s takes %d values, the call passes %d"
                % (where, kind.value, len(EVENT_FIELDS[kind.value]), len(values))
            )
        assert literal >= 25, "the walk found too few emit sites"

    @STAMPED_DRIVES
    def test_recorded_arity_matches_the_kind_table(self, config):
        """Each event in the flat record is its kind and its kind's
        values, plus one ``(field, domain)`` stamp where a domain proxy
        emitted it; the record iterator skips only ``int`` tick deltas."""
        trace = TraceCollector()
        drive(config, seed=1, trace=trace)
        record = trace._record
        stamped = 0
        for _tick, start, stop in _scan(record):
            kind, values = record[start], record[start + 1 : stop]
            arity = len(EVENT_FIELDS[kind])
            if len(values) == arity + 1:
                field, domain = values[-1]
                assert field in STAMP_FIELDS and isinstance(domain, int), kind
                stamped += 1
            else:
                assert len(values) == arity, (kind, values)
        assert stamped

    def test_event_fields_cover_the_schema(self):
        assert set(EVENT_FIELDS) == set(EVENT_SCHEMA)
        for kind, fields in EVENT_FIELDS.items():
            names = [f if isinstance(f, str) else f[0] for f in fields]
            assert len(set(names)) == len(names), kind
            assert set(EVENT_SCHEMA[kind]) <= set(names), kind

    def test_events_is_a_read_only_view(self):
        _, trace = build_traced_run("hotspot", 0)
        events = trace.events
        decoded = list(events)
        assert len(events) == len(decoded) > 0
        assert events[0] == decoded[0] and events[-1] == decoded[-1]
        assert events[1:3] == decoded[1:3]
        assert events == decoded and decoded == events
        assert events == trace.events
        assert not hasattr(events, "append") and not hasattr(events, "extend")
        # a decoded dict is the reader's own: changing it changes no record
        events[0]["kind"] = "edited"
        assert trace.events[0]["kind"] != "edited"

    def test_merge_appends_records_without_emitting(self):
        _, trace = build_traced_run("hotspot", 0)
        merged = TraceCollector()
        merged.merge(trace.events)
        merged.merge(trace.events)
        assert list(merged.events) == list(trace.events) * 2


def _replay(trace, steps):
    """Emit ``(tick, kind, values, shard)`` steps; ``shard`` stamps."""
    for tick, kind, values, shard in steps:
        trace.begin_tick(tick)
        emitter = trace if shard is None else ShardTrace(trace, shard)
        emitter.emit(kind, *values)


#: two collectors' steps whose last ticks differ (9 and 5)
FIRST = [
    (0, "run-start", ("a",), None),
    (4, "op-ok", ("T1", "BA", "deposit(1)"), None),
    (4, "force", ("BA", 1, 2), 0),
    (9, "commit-stall", ("T1",), None),
]
SECOND = [
    (0, "run-start", ("b",), None),
    (2, "force-request", ("BA", 3), 1),
    (5, "txn-abort", ("T2", "crash"), None),
]


class TestFlatRecord:
    """One flat list per collector: kinds, values, stamps, tick deltas."""

    def test_indexing_equals_the_decoded_list(self):
        trace = TraceCollector()
        drive(OpenLoopConfig(objects=6, shards=2, transactions=40, group_commit=2,
                             cross_shard=0.3, read_mix=0.2), seed=1, trace=trace)
        events = trace.events
        decoded = list(events)
        n = len(decoded)
        assert len(events) == n > 100
        for i in range(-n, n):
            assert events[i] == decoded[i], i
        for cut in [slice(None), slice(3, -3, 4), slice(-7, None), slice(None, None, -1),
                    slice(5, 5), slice(n - 2, n + 9)]:
            assert events[cut] == decoded[cut], cut
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                events[i]

    def test_indexing_walks_one_event_once_the_index_is_built(self, monkeypatch):
        _, trace = build_traced_run("hotspot", 0)
        events = trace.events
        n = len(events)  # builds the index
        walked = []
        scan = trace_module._scan

        def counting(record, at=0, tick=0):
            for step in scan(record, at, tick):
                walked.append(step)
                yield step

        monkeypatch.setattr(trace_module, "_scan", counting)
        for i in range(n):
            events[-1 - i]
        assert len(walked) == n
        # events recorded after the index was built are indexed on demand
        trace.begin_tick(trace.tick + 3)
        trace.emit("commit-stall", "T9")
        assert len(events) == n + 1
        assert events[-1] == {"txn": "T9", "tick": trace.tick, "kind": "commit-stall"}

    @pytest.mark.parametrize("shipped", [False, True], ids=["direct", "pickled"])
    def test_merge_rebases_tick_deltas(self, shipped):
        """A merged collector decodes as one that saw every event in
        sequence, before and after a pickle round trip (a parallel cell's
        collector crosses a process boundary)."""
        first, second, sequential = TraceCollector(), TraceCollector(), TraceCollector()
        _replay(first, FIRST)
        _replay(second, SECOND)
        _replay(sequential, FIRST + SECOND)
        events = second.events
        if shipped:
            events = pickle.loads(pickle.dumps(events))
        first.merge(events)
        assert list(first.events) == list(sequential.events)
        # the merging collector goes on at its own tick
        first.emit("commit-stall", "T3")
        sequential.begin_tick(9)
        sequential.emit("commit-stall", "T3")
        assert list(first.events) == list(sequential.events)
        assert first.events[-1]["tick"] == 9 and first.events[-2]["tick"] == 5

    @pytest.mark.parametrize(
        "record",
        [
            ["no-such-kind", 1],
            ["op-ok", "T1", "BA"],
            ["commit-stall", "T1", _Stamp(("shard", 0)), _Stamp(("shard", 0))],
            [3, None],
            [("txn", "T1")],
        ],
        ids=["unknown-kind", "cut-short", "stamp-for-a-kind", "none-for-a-kind", "tuple"],
    )
    def test_a_malformed_record_raises(self, record):
        trace = TraceCollector()
        trace._record.extend(record)
        with pytest.raises(ValueError, match="trace record"):
            list(trace.events)
        with pytest.raises(ValueError, match="trace record"):
            len(trace.events)

    @STAMPED_DRIVES
    def test_load_of_the_dump_of_a_stamped_drive(self, config, tmp_path):
        trace = TraceCollector()
        drive(config, seed=1, trace=trace)
        path = str(tmp_path / "t.jsonl")
        assert trace.dump_jsonl(path) == len(trace.events)
        loaded = load_jsonl(path)
        assert loaded == list(trace.events)
        assert any("shard" in e or "site" in e for e in loaded)

    def test_a_traced_drive_keeps_at_most_48_bytes_an_event(self):
        """Retained by the collector once the drive's system is freed
        (``tracemalloc``), on a steady drive (a contended one also keeps
        every ``lock-wait`` event's conflict pairs);
        ``bench_trace_overhead.py`` holds the same bound on a larger one."""
        config = OpenLoopConfig(adt_kind="bank", objects=16, shards=2, transactions=200,
                                arrival_rate=0.12, group_commit=2, hold=2,
                                cross_shard=0.2, read_mix=0.2)
        drive(config, seed=0)  # warm: lazy imports, interned operations
        gc.collect()
        tracemalloc.start()
        try:
            trace = TraceCollector()
            before = tracemalloc.get_traced_memory()[0]
            drive(config, seed=0, trace=trace)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / len(trace.events) <= 48


class TestStreaming:
    """``reconcile`` reads its stream once; the dump decodes as it
    writes.  Both are checked on a torture trace of two segments."""

    def test_reconcile_of_an_iterator_equals_reconcile_of_a_list(self):
        trace = _two_segment_torture_trace()

        def rows(results):
            return [(r.label, r.reconstructed, r.reported, r.ok) for r in results]

        streamed = reconcile(iter(trace.events))
        assert len(streamed) == 2
        assert rows(streamed) == rows(reconcile(list(trace.events)))
        assert all(r.ok for r in streamed)

    def test_load_of_the_dump_equals_the_decoded_events(self, tmp_path):
        trace = _two_segment_torture_trace()
        path = str(tmp_path / "t.jsonl")
        assert trace.dump_jsonl(path) == len(trace.events)
        assert load_jsonl(path) == list(trace.events)


def _bucket_of(latency):
    """The power-of-two bucket ``(lo, hi)`` holding ``latency``."""
    if latency <= 1:
        return (0, 1)
    hi = 2
    while hi < latency:
        hi *= 2
    return (hi // 2 + 1, hi)


def test_latency_histogram_buckets_twenty_thousand_latencies_in_one_pass():
    rng = random.Random(0)
    latencies = [int(rng.paretovariate(0.8)) for _ in range(20_000)]
    buckets = latency_histogram(latencies)
    counts = {}
    for latency in latencies:
        key = _bucket_of(latency)
        counts[key] = counts.get(key, 0) + 1
    assert buckets == [(lo, hi, counts[(lo, hi)]) for lo, hi in sorted(counts)]
    assert sum(count for _, _, count in buckets) == 20_000
