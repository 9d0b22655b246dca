"""The verdicts of ``scripts/e2e_pairs.py`` (``choosing-metrics`` §8)."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "e2e_pairs.py"
_spec = importlib.util.spec_from_file_location("e2e_pairs", _PATH)
e2e_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_pairs)

PARENT = [100.0, 104.0, 98.0, 102.0, 96.0, 101.0, 99.0, 103.0, 97.0, 100.0]


def _verdicts(change, *, higher=True, bound=0.25, parent=PARENT):
    return e2e_pairs.verdicts(parent, change, higher, bound)


def test_a_gain_needs_nine_wins_and_more_than_the_parents_spread():
    assert _verdicts([p * 1.4 for p in PARENT]) == (10, 0, "met", "none")
    nine = [p * 1.4 for p in PARENT[:9]] + [PARENT[9] - 1]
    assert _verdicts(nine)[:3] == (9, 0, "met")
    eight = [p * 1.4 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    assert _verdicts(eight)[:3] == (8, 0, "not met")
    # every pair won, but by less than the parent's own quartile distance
    assert _verdicts([p + 1 for p in PARENT])[:3] == (10, 0, "not met")
    # a tie is nobody's win
    assert _verdicts(list(PARENT))[:3] == (0, 10, "not met")


def test_lower_is_better_turns_the_comparison_round():
    assert _verdicts([p * 0.5 for p in PARENT], higher=False) == (10, 0, "met", "none")
    assert _verdicts([p * 1.4 for p in PARENT], higher=False) == (
        0, 0, "not met", "REGRESSED",
    )


def test_a_regression_is_past_the_bound_and_a_wide_parent_is_unresolved():
    assert _verdicts([p * 0.7 for p in PARENT])[3] == "REGRESSED"
    assert _verdicts([p * 0.8 for p in PARENT])[3] == "none"
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert _verdicts(list(wide), parent=wide)[3] == "unresolved"
    assert _verdicts([w + 100 for w in wide], parent=wide)[3] == "none"


def test_one_pair_has_no_spread():
    assert e2e_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert _verdicts([2.0], parent=[1.0]) == (1, 0, "met", "none")


def _traced(**values):
    units = {
        "scheduler.ticks": "ticks", "scheduler.deadlocks": "count",
        "lock_manager.blocked_attempts": "count", "abort_per_commit": "ratio",
        "lat_p95_ticks": "ticks", "scheduler.self_s": "s",
        "scheduler.self_us_per_tick": "us/tick", "ledger.overhead_ratio": "ratio",
        "ledger.coverage": "ratio", "torture.audit_share": "ratio",
    }
    return {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {name: {"value": values.get(name, 1.0), "unit": unit}
                    for name, unit in units.items()},
    }


def test_tick_rows_name_what_moved_and_skip_host_time():
    same = _traced()
    assert e2e_pairs.tick_rows(same, _traced()) == []
    moved = _traced(**{
        "scheduler.ticks": 5298, "lat_p95_ticks": 191, "abort_per_commit": 0.77,
        # host time and its ratios differ between any two runs
        "scheduler.self_s": 9.0, "scheduler.self_us_per_tick": 9.0,
        "ledger.overhead_ratio": 9.0, "ledger.coverage": 9.0, "torture.audit_share": 9.0,
    })
    assert e2e_pairs.tick_rows(_traced(**{"scheduler.ticks": 11410}), moved) == [
        ("scheduler.ticks", 11410, 5298),
        ("abort_per_commit", 1.0, 0.77),
        ("lat_p95_ticks", 1.0, 191),
    ]


def _fake_runs(monkeypatch, change_ticks):
    """``run_once`` without processes: host metrics per pair, and a
    ``--trace 1`` line whose ticks are ``change_ticks`` on the change."""

    def run_once(tree, workload, seed, seconds, trace=0):
        if trace:
            return _traced(**{"scheduler.ticks": change_ticks if tree.name == "change" else 100})
        speed = 2.0 if tree.name == "change" else 1.0
        return {
            "correct": True, "failed": 0,
            "metrics": {
                "txn_per_s": {"value": 1000.0 * speed + seed},
                "setup_s": {"value": 0.3},
                "peak_rss_mb": {"value": 40.0},
            },
        }

    monkeypatch.setattr(e2e_pairs, "run_once", run_once)


def _main(capsys, parent, change):
    for tree in {parent, change}:
        tree.mkdir(exist_ok=True)
    (parent / "BENCHMARK.json").write_text(
        (_PATH.parent.parent / "BENCHMARK.json").read_text()
    )
    status = e2e_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"])
    return status, capsys.readouterr().out


def test_the_traced_rows_are_printed_under_the_verdicts(tmp_path, monkeypatch, capsys):
    _fake_runs(monkeypatch, change_ticks=40)
    status, out = _main(capsys, tmp_path / "parent", tmp_path / "change")
    assert status == 0
    verdicts, traced = out.split("tick space and counters, seed 0 (--trace 1): ")
    assert "txn_per_s" in verdicts and "gain: met" in verdicts
    assert traced.splitlines()[:2] == [
        "1 rows differ, parent | change",
        "  %-34s 100 | 40" % "scheduler.ticks",
    ]


def test_a_tree_against_itself_must_not_move_tick_space(tmp_path, monkeypatch, capsys):
    _fake_runs(monkeypatch, change_ticks=100)
    tree = tmp_path / "change"
    status, out = _main(capsys, tree, tree)
    assert status == 0 and "(--trace 1): no row differs" in out
    monkeypatch.setattr(
        e2e_pairs, "tick_rows", lambda parent, change: [("scheduler.ticks", 100, 40)]
    )
    status, out = _main(capsys, tree, tree)
    assert status == 1 and "WRONG: a tree differs from itself in tick space" in out
