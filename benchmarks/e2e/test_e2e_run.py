"""``run.py`` and the workloads turn a wrong output into a failed run."""

import random
import types

import run
import workloads
from repro.runtime.metrics import RunMetrics
from repro.runtime.openloop import OpenLoopConfig, drive, open_loop_scripts
from repro.runtime.trace import TraceCollector
from workloads import CrashTorture, OpenLoop


def fake_repeat(**changes):
    repeat = {
        "setup_s": 0.2, "wall_s": 2.0, "peak_rss_mb": 30.0,
        "offered": 10, "done": 10, "failed": 0,
        "counters": dict(RunMetrics().counters(), ticks=100, committed=10, operations=30),
        "tick": {"failed_share": 0.0, "commit_per_ktick": 100.0},
        "counts": {}, "problems": [],
    }
    repeat.update(changes)
    return repeat


def measure_with(monkeypatch, repeats, *, ledger=False):
    """``run.measure`` fed canned repeats instead of child interpreters."""
    plain = iter(repeats["plain"])

    def canned(workload, seed, mode="plain"):
        if mode == "setup":
            return {"setup_s": 0.21}
        if mode == "ledger":
            return repeats["ledger"]
        return next(plain)

    monkeypatch.setattr(run, "run_repeat", canned)
    # Zero seconds: one plain repeat, unless the clock says time is left.
    clock = iter([0.0] + [0.0] * (len(repeats["plain"]) - 1) + [99.0] * 9)
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    return run.measure("steady_hotspot", 0, 1.0, ledger=ledger)


def test_medians_over_repeats_and_tick_metrics_from_the_first(monkeypatch):
    result = measure_with(monkeypatch, {"plain": [
        fake_repeat(wall_s=2.0), fake_repeat(wall_s=4.0), fake_repeat(wall_s=5.0),
    ]})
    assert result["repeats"] == 3 and not result["problems"]
    assert result["end_to_end"]["txn_per_s"]["value"] == 2.5
    assert result["end_to_end"]["txn_per_s"]["samples"] == [5.0, 2.5, 2.0]
    assert len(result["end_to_end"]["setup_s"]["samples"]) == 3 + run.EXTRA_SETUPS
    assert result["end_to_end"]["commit_per_ktick"] == {"unit": "txn/ktick", "value": 100.0}
    assert result["attempted"] == 30 and result["failed"] == 0


def test_repeats_that_disagree_in_tick_space_fail_the_run(monkeypatch):
    result = measure_with(monkeypatch, {"plain": [
        fake_repeat(), fake_repeat(counters={"ticks": 101}),
    ]})
    assert result["problems"] == ["repeats of one seed disagree in tick space"]
    assert run.driver_line(result, trace=False)["correct"] is False


def test_a_ledger_run_that_changes_the_counters_fails_the_run(monkeypatch):
    traced = fake_repeat(
        tick={"failed_share": 0.0, "commit_per_ktick": 99.0}, spans=[], spans_missing=0,
    )
    result = measure_with(monkeypatch, {"plain": [fake_repeat()], "ledger": traced},
                          ledger=True)
    assert result["per_layer"]["ledger.counters_identical"]["value"] == 0
    assert result["problems"] == ["the ledger run's counters differ from the plain run's"]


def test_an_undetected_negative_control_fails_the_run(monkeypatch):
    torture = CrashTorture(("bank",), schedules=6, transactions=4, ops_per_txn=2)
    torture.setup(0)
    torture.run()
    assert torture.outcome().problems == []
    # A harness that no longer plants (or no longer catches) the bug:
    real = workloads.run_torture
    monkeypatch.setattr(
        workloads, "run_torture", lambda configs, **kw: real(torture.configs, **kw)
    )
    assert torture.outcome().problems == [
        "negative control (skip-commit-force) was not detected"
    ]


def small_drive():
    config = OpenLoopConfig(adt_kind="bank", objects=4, shards=2, transactions=30,
                            arrival_rate=0.5, group_commit=2, read_mix=0.2)
    arrivals = {s.name: t for s, t in open_loop_scripts(config, random.Random(5))}
    collector = TraceCollector()
    report = drive(config, seed=5, trace=collector)
    return arrivals, collector.events, report


def test_a_trace_that_does_not_reconcile_fails_the_run():
    arrivals, events, report = small_drive()
    assert workloads._digest(5, arrivals, events, report).problems == []
    dropped = [e for e in events if e["kind"] != "op-ok"]
    assert workloads._digest(5, arrivals, dropped, report).problems == [
        "seed 5: trace does not reconcile"
    ]


def test_latency_runs_from_the_offered_arrival():
    arrivals, events, report = small_drive()
    digest = workloads._digest(5, arrivals, events, report)
    commits = {e["script"]: e["tick"] for e in events
               if e["kind"] in ("txn-commit", "ro-commit")}
    assert sorted(digest.latencies) == sorted(
        tick - arrivals[script] for script, tick in commits.items()
    )
    assert len(digest.latencies) == report.offered == 30


def test_a_lost_transaction_breaks_the_offered_identity():
    arrivals, events, report = small_drive()
    victim = next(e["script"] for e in events if e["kind"] == "txn-commit")
    without = [e for e in events if e.get("script") != victim]
    problems = workloads._digest(5, arrivals, without, report).problems
    assert any("offered 30 !=" in p for p in problems)


def test_the_regime_guards_fail_the_run_when_a_seed_leaves_the_regime():
    config = OpenLoopConfig(adt_kind="bank", objects=32, shards=2, transactions=30,
                            arrival_rate=0.05, group_commit=2)
    calm = OpenLoop(config, min_abort_per_commit=0.5)
    calm.setup(5)
    calm.run()
    assert any("left the contended regime" in p for p in calm.outcome().problems)
    crowded = OpenLoop(
        OpenLoopConfig(adt_kind="bank", recovery="UIP", objects=2, shards=1,
                       transactions=40, arrival_rate=4.0, group_commit=4),
        max_abort_per_commit=0.05,
    )
    crowded.setup(5)
    crowded.run()
    assert any("left the healthy regime" in p for p in crowded.outcome().problems)
