"""The metric tables, the percentile rule, and their agreement with
``BENCHMARK.json`` and the workload table."""

import json
import pathlib
import re

import run
from metrics import (
    BY_NAME,
    DRIVER_END_TO_END,
    END_TO_END,
    PER_LAYER,
    percentile,
    quartiles,
    tick_metrics,
)
from workloads import WORKLOADS, sub_seeds

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_percentile_needs_ten_samples_beyond_it():
    thousand = list(range(1, 1001))
    assert percentile(thousand, 0.99) == 990  # exactly 10 beyond
    assert percentile(thousand[:-1], 0.99) is None  # 999 samples: 9 beyond
    assert percentile(list(range(1, 201)), 0.95) == 190
    assert percentile(list(range(1, 200)), 0.95) is None
    assert percentile(list(range(1, 21)), 0.50) == 10
    assert percentile(list(range(1, 20)), 0.50) is None
    assert percentile([], 0.50) is None


def test_tick_metrics_leave_out_what_does_not_apply():
    counters = {"aborted": 3, "ro_aborts": 1, "ticks": 2000, "committed": 8, "forces": 4}
    closed_volatile = tick_metrics(
        offered=10, failed=0, done=10, counters=counters, latencies=None, durable=False
    )
    assert closed_volatile == {
        "failed_share": 0.0, "commit_per_ktick": 5.0, "abort_per_commit": 0.4,
    }
    open_durable = tick_metrics(
        offered=10, failed=1, done=9, counters=counters,
        latencies=list(range(30)), durable=True,
    )
    assert open_durable["failed_share"] == 0.1
    assert open_durable["forces_per_commit"] == 0.5
    assert open_durable["lat_p50_ticks"] == 14
    assert "lat_p95_ticks" not in open_durable and "lat_p99_ticks" not in open_durable
    no_counters = tick_metrics(
        offered=4, failed=0, done=4, counters=None, latencies=None, durable=True
    )
    assert no_counters == {"failed_share": 0.0}


def test_quartiles_of_one_value():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0


def test_ten_end_to_end_metrics_with_direction_and_bound():
    assert len(END_TO_END) == 10
    for metric in END_TO_END:
        assert metric.better in ("higher", "lower")
        assert 0 <= metric.bound <= 0.25
        assert metric.space in ("host", "tick")
    assert BY_NAME["failed_share"].bound == 0


def test_benchmark_json_agrees_with_the_tables():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == [
        (name, BY_NAME[name].unit, BY_NAME[name].better, BY_NAME[name].bound)
        for name in DRIVER_END_TO_END
    ]
    tick_space = [
        (m.name, m.unit, m.better) for m in END_TO_END if m.name not in DRIVER_END_TO_END
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == list(PER_LAYER) + tick_space


def test_benchmark_json_keeps_the_drivers_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    assert all("\n" not in w["why"] and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert len(SPEC["per_layer"]) <= 128 and 2 <= len(SPEC["workloads"]) <= 8
    # 4 + 22 x workloads runs, each about run_seconds plus one repeat
    # and the set-up samples, must fit the driver's 3420 s.
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 8) <= 3420


def test_driver_line_has_every_listed_metric_and_zero_for_the_absent():
    result = {
        "problems": [], "attempted": 7, "failed": 0,
        "end_to_end": {
            "txn_per_s": {"unit": "txn/s", "value": 5.5},
            "setup_s": {"unit": "s", "value": 0.2},
            "peak_rss_mb": {"unit": "MiB", "value": 30.0},
            "failed_share": {"unit": "ratio", "value": 0.0},
        },
        "per_layer": {"torture.schedules": {"unit": "count", "value": 900}},
    }
    plain = run.driver_line(result, trace=False)
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert plain["correct"] and plain["attempted"] == 7
    traced = run.driver_line(result, trace=True)
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert traced["metrics"]["torture.schedules"] == {"value": 900, "unit": "count"}
    assert traced["metrics"]["lat_p99_ticks"] == {"value": 0, "unit": "ticks"}
    result["problems"].append("x")
    assert run.driver_line(result, trace=False)["correct"] is False


def test_sub_seeds_start_at_the_seed_and_are_distinct():
    assert sub_seeds(2, 3) == [2, 1002, 2002]
