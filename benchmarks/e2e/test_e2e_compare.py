"""``compare.py``: bound, direction, the unresolved rule and exactness
of tick space."""

import copy
import json

import compare
from metrics import BY_NAME


def results(txn_per_s, *, setup_s=(0.20, 0.21, 0.22), p95=19, counters=None):
    return [{
        "workloads": {
            "steady_hotspot": {
                "end_to_end": {
                    "txn_per_s": {"unit": "txn/s", "value": 0, "samples": list(txn_per_s)},
                    "setup_s": {"unit": "s", "value": 0, "samples": list(setup_s)},
                    "lat_p95_ticks": {"unit": "ticks", "value": p95},
                    "failed_share": {"unit": "ratio", "value": 0.0},
                },
                "counters": counters or {"ticks": 100, "committed": 9},
            }
        }
    }]


def verdicts(a, b):
    rows = compare.compare(a, b)
    return {row[1]: row[-1] for row in rows}, compare.failed(rows)


def test_same_numbers_pass():
    rows, failed = verdicts(results([100, 101, 102]), results([100, 101, 102]))
    assert not failed
    assert rows["txn_per_s"] == "ok"
    assert rows["lat_p95_ticks"] == "same"
    assert rows["counters"] == "same"


def test_direction_and_bound():
    bound = BY_NAME["txn_per_s"].bound
    base = [100.0, 100.5, 101.0]
    slower = [x * (1 - bound - 0.05) for x in base]
    slightly_slower = [x * (1 - bound / 2) for x in base]
    faster = [x * 2 for x in base]
    assert verdicts(results(base), results(slower))[0]["txn_per_s"] == "REGRESSION"
    assert verdicts(results(base), results(slower))[1]
    assert verdicts(results(base), results(slightly_slower))[0]["txn_per_s"] == "ok"
    assert verdicts(results(base), results(faster))[0]["txn_per_s"] == "ok"
    # Lower is better for set-up time: more of it regresses, less does not.
    assert verdicts(results(base), results(base, setup_s=(0.40, 0.41, 0.42)))[0][
        "setup_s"] == "REGRESSION"
    assert verdicts(results(base), results(base, setup_s=(0.10, 0.11, 0.12)))[0][
        "setup_s"] == "ok"


def test_setup_floor_forgives_small_absolute_changes():
    fast = results([100, 101, 102], setup_s=(0.040, 0.041, 0.042))
    slower = results([100, 101, 102], setup_s=(0.060, 0.061, 0.062))  # +50%, +0.02 s
    assert verdicts(fast, slower)[0]["setup_s"] == "ok"


def test_wide_spread_is_unresolved_unless_every_b_beats_every_a():
    noisy = [70.0, 100.0, 130.0]
    rows, failed = verdicts(results(noisy), results([72.0, 101.0, 128.0]))
    assert rows["txn_per_s"] == "unresolved"
    assert not failed  # unresolved is reported, not a regression
    rows, _ = verdicts(results(noisy), results([140.0, 180.0, 230.0]))
    assert rows["txn_per_s"] == "ok"


def test_any_tick_space_difference_fails():
    base = results([100, 101, 102])
    rows, failed = verdicts(base, results([100, 101, 102], p95=18))
    assert failed and rows["lat_p95_ticks"] == "CHANGED"
    rows, failed = verdicts(base, results([100, 101, 102], p95=25))
    assert failed and rows["lat_p95_ticks"] == "CHANGED REGRESSION"
    rows, failed = verdicts(base, results([100, 101, 102], counters={"ticks": 101, "committed": 9}))
    assert failed and rows["counters"] == "CHANGED"
    grown = copy.deepcopy(base)
    grown[0]["workloads"]["steady_hotspot"]["end_to_end"]["failed_share"]["value"] = 0.01
    rows, failed = verdicts(base, grown)
    assert failed and rows["failed_share"] == "CHANGED REGRESSION"


def test_metric_reported_on_one_side_only_fails():
    b = results([100, 101, 102])
    del b[0]["workloads"]["steady_hotspot"]["end_to_end"]["lat_p95_ticks"]
    rows, failed = verdicts(results([100, 101, 102]), b)
    assert failed and "one side only" in rows["lat_p95_ticks"]


def test_directory_of_files_pools_their_samples(tmp_path):
    for i, rate in enumerate(([100, 101], [102, 103])):
        (tmp_path / ("r%d.json" % i)).write_text(json.dumps(results(rate)[0]))
    pooled = compare.load(str(tmp_path))
    assert compare.samples(pooled, "steady_hotspot", "txn_per_s") == [100, 101, 102, 103]
    assert compare.main([str(tmp_path), str(tmp_path)]) == 0
