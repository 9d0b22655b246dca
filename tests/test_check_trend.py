"""Tests for the bench-trend gate (``benchmarks/check_trend.py``)."""

import importlib.util
import json
import pathlib

import pytest

_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_trend.py"
)
_spec = importlib.util.spec_from_file_location("check_trend", _PATH)
check_trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trend)


def _dirs(tmp_path, baseline, fresh):
    base_dir = tmp_path / "base"
    fresh_dir = tmp_path / "fresh"
    for directory, artifacts in ((base_dir, baseline), (fresh_dir, fresh)):
        directory.mkdir()
        for name, payload in artifacts.items():
            (directory / name).write_text(json.dumps(payload))
    return str(base_dir), str(fresh_dir)


RECORD = {
    "committed": 42,
    "cpus": 4,
    "floor_asserted": True,
    "times_s": {"1": 4.0, "2": 2.0},
    "speedup": {"2": 2.0},
    "curve": {"bank": {"queries": 100, "compiled_ops_per_s": 5000.0}},
}


class TestClassify:
    @pytest.mark.parametrize(
        "key, expected",
        [
            ("committed", "equality"),
            ("latency_ticks", "equality"),
            ("queries", "equality"),  # plural 's' is not '_s'
            ("times_s", "timing"),
            ("wall_s", "timing"),
            ("traced_s", "timing"),
            ("speedup", "timing"),
            ("ratio", "timing"),
            ("compiled_ops_per_s", "timing"),
            ("cpus", "environment"),
            ("floor_asserted", "environment"),
            ("bytes_per_event", "environment"),  # interpreter-dependent
        ],
    )
    def test_field_classes(self, key, expected):
        assert check_trend.classify(key) == expected


class TestCompare:
    def test_identical_is_clean(self):
        fails, warns = check_trend.compare_artifact("x.json", RECORD, RECORD)
        assert fails == [] and warns == []

    def test_equality_drift_hard_fails(self):
        fresh = json.loads(json.dumps(RECORD))
        fresh["committed"] = 41
        fails, _ = check_trend.compare_artifact("x.json", RECORD, fresh)
        assert len(fails) == 1
        assert "committed" in fails[0]

    def test_environment_change_is_ignored(self):
        fresh = json.loads(json.dumps(RECORD))
        fresh["cpus"] = 1
        fresh["floor_asserted"] = False
        fails, warns = check_trend.compare_artifact("x.json", RECORD, fresh)
        assert fails == [] and warns == []

    def test_slower_time_warns_but_passes(self):
        fresh = json.loads(json.dumps(RECORD))
        fresh["times_s"]["2"] = 8.0  # 4x slower
        fails, warns = check_trend.compare_artifact("x.json", RECORD, fresh)
        assert fails == []
        assert len(warns) == 1 and "times_s.2" in warns[0]

    def test_lower_speedup_and_rate_warn(self):
        fresh = json.loads(json.dumps(RECORD))
        fresh["speedup"]["2"] = 1.0
        fresh["curve"]["bank"]["compiled_ops_per_s"] = 1000.0
        fails, warns = check_trend.compare_artifact("x.json", RECORD, fresh)
        assert fails == []
        assert len(warns) == 2

    def test_small_timing_noise_stays_quiet(self):
        fresh = json.loads(json.dumps(RECORD))
        fresh["times_s"]["2"] = 2.4  # 20% — inside the 25% band
        fails, warns = check_trend.compare_artifact("x.json", RECORD, fresh)
        assert fails == [] and warns == []


class TestTooShort:
    """A baseline run under a second is not compared: its field is
    reported as too short, neither warned about nor passed."""

    SHORT = {
        "committed": 42,
        "history_lengths": [100, 200],
        "times_s": {"event": 0.02, "polling": 0.22},
        "speedup": {"sparse": 11.0},
        "curve": {"bank": {"compiled_ops_per_s": 5000.0, "compiled_s": 0.01}},
    }

    def test_sub_second_duration_is_not_compared(self):
        fresh = json.loads(json.dumps(RECORD))
        baseline = json.loads(json.dumps(RECORD))
        baseline["times_s"]["2"] = 0.5
        fresh["times_s"]["2"] = 5.0  # 10x slower than a run too short to tell
        fails, warns = check_trend.compare_artifact("x.json", baseline, fresh)
        assert fails == [] and warns == []
        assert check_trend.too_short(baseline) == ["times_s.2"]
        # the second-long run beside it is still compared, and so are
        # the speedups and rates: not every run behind them is short
        fresh["times_s"]["1"] = 8.0
        fresh["speedup"]["2"] = 1.0
        _, warns = check_trend.compare_artifact("x.json", baseline, fresh)
        assert len(warns) == 2

    def test_ratios_of_sub_second_runs_are_not_compared(self):
        fresh = json.loads(json.dumps(self.SHORT))
        fresh["speedup"]["sparse"] = 2.0
        fresh["curve"]["bank"]["compiled_ops_per_s"] = 50.0
        fresh["times_s"]["event"] = 0.2
        fails, warns = check_trend.compare_artifact("x.json", self.SHORT, fresh)
        assert fails == [] and warns == []
        assert check_trend.too_short(self.SHORT) == [
            "curve.bank.compiled_ops_per_s",
            "curve.bank.compiled_s",
            "speedup.sparse",
            "times_s.event",
            "times_s.polling",
        ]

    def test_exactly_a_second_is_compared(self):
        baseline = {"wall_s": 1.0}
        assert check_trend.too_short(baseline) == []
        _, warns = check_trend.compare_artifact(
            "x.json", baseline, {"wall_s": 2.0}
        )
        assert len(warns) == 1

    def test_ratio_without_any_recorded_duration_is_compared(self):
        baseline = {"speedup": {"2": 2.0}}
        assert check_trend.too_short(baseline) == []
        _, warns = check_trend.compare_artifact(
            "x.json", baseline, {"speedup": {"2": 1.0}}
        )
        assert len(warns) == 1

    def test_equality_fields_of_a_short_run_still_hard_fail(self):
        fresh = json.loads(json.dumps(self.SHORT))
        fresh["committed"] = 41
        fails, _ = check_trend.compare_artifact("x.json", self.SHORT, fresh)
        assert len(fails) == 1 and "committed" in fails[0]

    def test_main_reports_too_short_without_warning(self, tmp_path, capsys):
        fresh_record = json.loads(json.dumps(self.SHORT))
        fresh_record["times_s"]["polling"] = 2.2
        base, fresh = _dirs(
            tmp_path,
            {"BENCH_a.json": self.SHORT, "BENCH_b.json": RECORD},
            {"BENCH_a.json": fresh_record, "BENCH_b.json": RECORD},
        )
        assert check_trend.main([base, fresh]) == 0
        out = capsys.readouterr().out
        assert "::warning::" not in out
        assert "BENCH_a.json: 5 timing field(s) too short to compare" in out
        assert "BENCH_b.json:" not in out
        assert "0 warning(s), 5 timing field(s) too short to compare" in out


class TestMain:
    def test_clean_pass(self, tmp_path, capsys):
        artifacts = {"BENCH_a.json": RECORD}
        assert check_trend.main(list(_dirs(tmp_path, artifacts, artifacts))) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_missing_fresh_artifact_fails(self, tmp_path, capsys):
        base, fresh = _dirs(tmp_path, {"BENCH_a.json": RECORD}, {})
        assert check_trend.main([base, fresh]) == 1
        assert "not re-recorded" in capsys.readouterr().out

    def test_new_fresh_artifact_passes_with_note(self, tmp_path, capsys):
        base, fresh = _dirs(
            tmp_path,
            {"BENCH_a.json": RECORD},
            {"BENCH_a.json": RECORD, "BENCH_b.json": RECORD},
        )
        assert check_trend.main([base, fresh]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_no_baselines_is_usage_error(self, tmp_path):
        base, fresh = _dirs(tmp_path, {}, {})
        assert check_trend.main([base, fresh]) == 2

    def test_warning_uses_github_annotation(self, tmp_path, capsys):
        fresh_record = json.loads(json.dumps(RECORD))
        fresh_record["times_s"]["1"] = 40.0
        base, fresh = _dirs(
            tmp_path,
            {"BENCH_a.json": RECORD},
            {"BENCH_a.json": fresh_record},
        )
        assert check_trend.main([base, fresh]) == 0
        assert "::warning::" in capsys.readouterr().out
