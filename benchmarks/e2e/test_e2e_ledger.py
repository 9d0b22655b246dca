"""The span ledger: self-time arithmetic, install/uninstall, and that
timing a drive does not change what the drive does."""

import itertools
import pathlib

import pytest

import repro.runtime.openloop as openloop
import repro.runtime.torture as torture
from repro.runtime.lock_manager import LockManager
from repro.runtime.openloop import OpenLoopConfig
from repro.runtime.trace import TraceCollector

from spans import SPANS, Ledger, layer_self_s, span_calls, span_total_s


def ticking_ledger() -> Ledger:
    """A ledger whose clock advances 1 ns per reading."""
    counter = itertools.count()
    return Ledger(clock=lambda: next(counter))


def by_function(ledger: Ledger):
    return {row["function"]: row for row in ledger.rows()}


def test_self_time_is_duration_minus_children():
    ledger = ticking_ledger()
    inner = ledger.wrap("wal", "inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = ledger.wrap("scheduler", "outer", outer_body)
    outer()
    rows = by_function(ledger)
    # Clock readings: outer 0, inner 1..2, inner 3..4, outer 5.
    assert rows["outer"]["total_ns"] == 5
    assert rows["inner"]["calls"] == 2 and rows["inner"]["total_ns"] == 2
    assert rows["outer"]["self_ns"] == 3
    assert layer_self_s(ledger.rows()) == {"scheduler": 3e-9, "wal": 2e-9}


def test_spans_of_one_layer_inside_each_other_count_once():
    ledger = ticking_ledger()
    leaf = ledger.wrap("system", "leaf", lambda: None)
    middle = ledger.wrap("system", "middle", leaf)
    top = ledger.wrap("system", "top", middle)
    top()
    rows = ledger.rows()
    # The layer's self time is the outermost duration, not the sum of
    # the three inclusive ones.
    assert layer_self_s(rows) == {"system": 5e-9}
    assert span_total_s(rows, "system", "top", "middle", "leaf") == 9e-9
    assert span_calls(rows, "system", "leaf") == 1


def test_exception_unwinds_the_span_stack():
    ledger = ticking_ledger()

    def explode():
        raise KeyError("crash point")

    inner = ledger.wrap("wal", "inner", explode)
    outer = ledger.wrap("scheduler", "outer", inner)
    with pytest.raises(KeyError):
        outer()
    rows = by_function(ledger)
    assert rows["inner"]["calls"] == rows["outer"]["calls"] == 1
    assert rows["outer"]["self_ns"] == rows["outer"]["total_ns"] - rows["inner"]["total_ns"]
    # Balanced: the next top-level span starts with no parent to charge.
    again = ledger.wrap("scheduler", "again", lambda: None)
    again()
    assert by_function(ledger)["again"]["self_ns"] == 1


def test_method_name_matching_sums_over_classes():
    rows = [
        {"layer": "recovery", "function": "UpdateInPlaceManager.on_abort",
         "calls": 2, "total_ns": 10, "self_ns": 10},
        {"layer": "recovery", "function": "DeferredUpdateManager.on_abort",
         "calls": 3, "total_ns": 5, "self_ns": 5},
        {"layer": "wal", "function": "UndoRedoLog.on_abort",
         "calls": 7, "total_ns": 1, "self_ns": 1},
    ]
    assert span_calls(rows, "recovery", "on_abort") == 5
    assert span_total_s(rows, "recovery", "on_abort") == 15e-9


def test_install_and_uninstall_restore_every_attribute():
    originals = {
        "blockers": vars(LockManager)["blockers"],
        "drive": openloop.drive,
        "audit": torture.audit_recovery,
    }
    ledger = Ledger()
    ledger.install()
    try:
        assert ledger.missing == []
        assert vars(LockManager)["blockers"] is not originals["blockers"]
        assert vars(LockManager)["blockers"].__wrapped__ is originals["blockers"]
        assert openloop.drive.__wrapped__ is originals["drive"]
    finally:
        ledger.uninstall()
    assert vars(LockManager)["blockers"] is originals["blockers"]
    assert openloop.drive is originals["drive"]
    assert torture.audit_recovery is originals["audit"]


def test_a_target_the_product_lost_is_reported_not_fatal():
    ledger = Ledger()
    ledger.install({"scheduler": [("repro.runtime.scheduler", "Scheduler.no_such_method"),
                                  ("repro.no_such_module", "f")]})
    ledger.uninstall()
    assert ledger.missing == [
        "repro.runtime.scheduler:Scheduler.no_such_method",
        "repro.no_such_module:f",
    ]


def test_readme_lists_every_spanned_function():
    readme = (pathlib.Path(__file__).resolve().parent / "README.md").read_text()
    for layer, targets in SPANS.items():
        assert "| `%s` |" % layer in readme, layer
        for _module, qualname in targets:
            assert "`%s`" % qualname in readme, qualname


def test_ledger_run_matches_plain_run_on_a_small_drive():
    config = OpenLoopConfig(
        adt_kind="bank", recovery="UIP", objects=4, shards=2, transactions=40,
        arrival_rate=1.0, group_commit=4, read_mix=0.2, cross_shard=0.1,
    )

    def run():
        collector = TraceCollector()
        report = openloop.drive(config, seed=7, trace=collector)
        return report.metrics.counters(), collector.events

    plain_counters, plain_events = run()
    ledger = Ledger()
    ledger.install()
    try:
        traced_counters, traced_events = run()
    finally:
        ledger.uninstall()
    assert traced_counters == plain_counters
    assert traced_events == plain_events
    rows = ledger.rows()
    drive_row = by_function(ledger)["drive"]
    assert drive_row["calls"] == 1
    # Every span sits inside the one drive span, so self times add up to it.
    assert sum(r["self_ns"] for r in rows) == drive_row["total_ns"]
    assert span_calls(rows, "trace", "TraceCollector.emit") == len(traced_events)
