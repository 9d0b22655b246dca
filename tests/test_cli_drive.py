"""CLI tests for ``repro drive`` (the open-loop sharded driver)."""

import json

import pytest

from repro.cli import main

SMALL = [
    "drive",
    "--transactions", "12",
    "--objects", "8",
    "--arrival-rate", "3",
]


def _out(capsys) -> str:
    return capsys.readouterr().out


def _stable(text: str) -> str:
    """Report output minus the wall-clock line (never byte-stable)."""
    return "\n".join(
        line for line in text.splitlines() if "wall clock" not in line
    )


class TestValidation:
    @pytest.mark.parametrize(
        "argv, match",
        [
            (["drive", "--adt", "nosuch"], "unknown ADT"),
            (["drive", "--shards", "0"], "--shards must be >= 1"),
            (["drive", "--objects", "0"], "--objects must be >= 1"),
            (["drive", "--arrival-rate", "0"], "--arrival-rate must be > 0"),
            (["drive", "--cross-shard", "1.5"], "--cross-shard must be in"),
            (["drive", "--zipf", "-1"], "--zipf must be >= 0"),
            (["drive", "--seed-base", "-1"], "--seed-base must be >= 0"),
            (["drive", "--transactions", "0"], "--transactions must be >= 1"),
            (["drive", "--group-commit", "0"], "--group-commit must be >= 1"),
            (["drive", "--read-mix", "1.5"], "--read-mix must be in"),
            (["drive", "--read-mix", "-0.2"], "--read-mix must be in"),
            (
                ["drive", "--adt", "fifo", "--read-mix", "0.5"],
                "no read-only observer",
            ),
            (["drive", "--burst-factor", "0.5"], "--burst-factor must be >= 1"),
            (["drive", "--burst-period", "1"], "--burst-period must be >= 2"),
        ],
    )
    def test_rejects_bad_arguments(self, argv, match):
        with pytest.raises(SystemExit, match=match):
            main(argv)

    def test_workers_is_not_a_drive_option(self, capsys):
        # One scheduler drives every shard: there is no second path to
        # select, so argparse itself refuses the flag.
        with pytest.raises(SystemExit) as exit_info:
            main(["drive", "--shards", "2", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestDrive:
    def test_smoke_reports_latency_percentiles(self, capsys):
        assert main(SMALL + ["--shards", "2"]) == 0
        out = _out(capsys)
        assert "open-loop drive" in out
        for token in ("p50", "p95", "p99", "shard"):
            assert token in out

    def test_deterministic_per_seed(self, capsys):
        args = SMALL + ["--shards", "2", "--zipf", "0.9"]
        assert main(args + ["--seed", "1"]) == 0
        first = _stable(_out(capsys))
        assert main(args + ["--seed", "1"]) == 0
        assert _stable(_out(capsys)) == first
        assert main(args + ["--seed", "2"]) == 0
        assert _stable(_out(capsys)) != first

    def test_seed_base_offset_equals_plain_seed(self, capsys):
        assert main(SMALL + ["--seed", "1", "--seed-base", "2"]) == 0
        offset = _stable(_out(capsys))
        assert main(SMALL + ["--seed", "3"]) == 0
        assert _stable(_out(capsys)) == offset

    def test_bursty_process_and_cross_shard(self, capsys):
        assert main(
            SMALL
            + [
                "--shards", "2",
                "--process", "bursty",
                "--burst-factor", "3",
                "--burst-period", "32",
                "--cross-shard", "0.5",
            ]
        ) == 0
        assert "open-loop drive" in _out(capsys)

    def test_trace_out_writes_schema_valid_events(self, tmp_path, capsys):
        path = tmp_path / "drive.jsonl"
        assert main(SMALL + ["--shards", "2", "--trace-out", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "drive-start" in kinds and "drive-end" in kinds
        # the trace reconciles through the standard reporter
        assert main(["trace-report", str(path)]) == 0
        assert "drive" in _out(capsys)

    def test_read_mix_reports_ro_line_and_reconciles(self, tmp_path, capsys):
        path = tmp_path / "ro.jsonl"
        args = SMALL + [
            "--adt", "counter",
            "--read-mix", "0.4",
            "--trace-out", str(path),
        ]
        assert main(args) == 0
        out = _out(capsys)
        assert "/ro0.4" in out
        assert "read-only" in out
        kinds = {
            json.loads(line)["kind"]
            for line in path.read_text().strip().splitlines()
        }
        assert "snapshot-read" in kinds and "ro-commit" in kinds
        # RO counters reconcile under the strict reporter.
        assert main(["trace-report", str(path), "--strict"]) == 0
        assert "read-only" in _out(capsys)

    def test_locked_baseline_label(self, capsys):
        args = SMALL + [
            "--adt", "counter",
            "--read-mix", "0.4",
            "--ro-mode", "locked",
        ]
        assert main(args) == 0
        assert "/ro0.4-locked" in _out(capsys)


class TestReplicatedDrive:
    @pytest.mark.parametrize(
        "argv, match",
        [
            (SMALL + ["--sites", "0"], "--sites must be >= 1"),
            (
                SMALL + ["--sites", "2", "--shards", "2"],
                "pick one axis",
            ),
            (
                SMALL + ["--sites", "2", "--site-crash", "1@0"],
                "fail tick must be >= 1",
            ),
            (
                SMALL + ["--sites", "2", "--site-crash", "bogus"],
                "--site-crash must look like",
            ),
            (
                SMALL + ["--sites", "2", "--site-crash", "5@3"],
                "out of range",
            ),
            (
                SMALL + ["--sites", "2", "--site-crash", "1@9-4"],
                "after the fail tick",
            ),
            (
                SMALL + ["--sites", "2", "--site-crash", "1@5-20",
                         "--site-crash", "1@10-30"],
                "overlaps site1@5-20",
            ),
            (
                SMALL + ["--sites", "2", "--site-crash", "1@5",
                         "--site-crash", "1@40-60"],
                "overlaps site1@5-end",
            ),
            (
                SMALL + ["--sites", "2", "--cross-shard", "0.5"],
                "--cross-shard needs shards > 1",
            ),
        ],
    )
    def test_rejects_bad_replication_arguments(self, argv, match):
        with pytest.raises(SystemExit, match=match):
            main(argv)

    def test_replicated_drive_reports_per_site_rows(self, capsys):
        code = main(
            SMALL + ["--sites", "2", "--site-crash", "1@8-20", "--seed", "1"]
        )
        out = _out(capsys)
        assert code == 0
        assert "/x2/sc1" in out
        assert "availability" in out
        assert "site 0" in out and "site 1" in out

    def test_site_crash_without_sites_uses_replicated_path(self, capsys):
        # --site-crash alone (sites=1) models a total outage window
        code = main(SMALL + ["--site-crash", "0@5-12"])
        out = _out(capsys)
        assert code == 0
        assert "/sc1" in out
        assert "availability" in out
