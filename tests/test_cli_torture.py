"""CLI tests for ``repro torture``: exit codes, knobs, reproducibility."""

import pytest

from repro.cli import main


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


class TestTortureCommand:
    def test_clean_run_exits_zero(self, capsys):
        code, out = run(
            ["torture", "--adt", "bank", "--schedules", "12", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "all invariants held" in out
        assert "12 schedules" in out

    def test_schedules_flag_is_honored(self, capsys):
        _, out = run(
            ["torture", "--adt", "counter", "--schedules", "7"], capsys
        )
        assert "torture: 7 schedules" in out

    def test_recovery_filter(self, capsys):
        _, out = run(
            [
                "torture",
                "--adt",
                "bank",
                "--recovery",
                "du",
                "--schedules",
                "4",
            ],
            capsys,
        )
        assert "bank/DU" in out
        assert "UIP" not in out

    def test_adt_list_builds_matrix(self, capsys):
        _, out = run(
            ["torture", "--adt", "bank,fifo", "--schedules", "10"], capsys
        )
        # bank supports logical undo (3 configs); fifo does not (2).
        for label in (
            "bank/DU",
            "bank/UIP/replay-winners",
            "bank/UIP/redo-undo",
            "fifo/DU",
            "fifo/UIP/replay-winners",
        ):
            assert label in out

    def test_unknown_adt_rejected(self, capsys):
        try:
            main(["torture", "--adt", "btree", "--schedules", "1"])
        except SystemExit as exc:
            assert "btree" in str(exc)
        else:
            raise AssertionError("unknown ADT was accepted")

    def test_same_seed_is_reproducible(self, capsys):
        argv = ["torture", "--adt", "set", "--schedules", "9", "--seed", "77"]
        _, first = run(argv, capsys)
        _, second = run(argv, capsys)
        assert first == second

    def test_different_seeds_differ(self, capsys):
        base = ["torture", "--adt", "bank", "--schedules", "15"]
        _, a = run(base + ["--seed", "1"], capsys)
        _, b = run(base + ["--seed", "2"], capsys)
        assert a != b

    def test_negative_control_exits_one(self, capsys):
        code, out = run(
            [
                "torture",
                "--adt",
                "bank",
                "--schedules",
                "6",
                "--inject-bug",
                "skip-commit-force",
            ],
            capsys,
        )
        assert code == 1
        assert "VIOLATIONS" in out
        assert "schedule:" in out  # each violation names its fault plan

    def test_checkpoint_knob(self, capsys):
        code, out = run(
            [
                "torture",
                "--adt",
                "escrow",
                "--schedules",
                "8",
                "--checkpoint-every",
                "5",
            ],
            capsys,
        )
        assert code == 0
        assert "all invariants held" in out


class TestSiteCrashCampaign:
    def test_sites_runs_the_site_crash_campaign(self, capsys):
        code, out = run(
            [
                "torture",
                "--adt", "counter",
                "--recovery", "du",
                "--sites", "2",
                "--schedules", "4",
                "--transactions", "4",
            ],
            capsys,
        )
        assert code == 0
        assert "counter/DU/x2" in out
        assert "all invariants held" in out

    def test_checkpoints_run_with_sites(self, capsys):
        code, out = run(
            [
                "torture",
                "--adt", "counter,bank",
                "--sites", "3",
                "--schedules", "12",
                "--checkpoint-every", "5",
                "--read-mix", "0.25",
            ],
            capsys,
        )
        assert code == 0
        assert "all invariants held" in out

    def test_skip_catchup_negative_control_exits_one(self, capsys):
        code, out = run(
            [
                "torture",
                "--adt", "counter",
                "--recovery", "du",
                "--sites", "2",
                "--schedules", "8",
                "--transactions", "4",
                "--inject-bug", "skip-catchup",
            ],
            capsys,
        )
        assert code == 1
        assert "VIOLATIONS" in out or "violation" in out.lower()

    def test_skip_catchup_requires_sites(self, capsys):
        import pytest

        with pytest.raises(SystemExit, match="needs sites >= 2"):
            main(["torture", "--inject-bug", "skip-catchup"])

    @pytest.mark.parametrize(
        "knob", [["--max-faults", "5"], ["--max-retries", "7"]], ids=["knob1", "knob2"]
    )
    def test_log_fault_knobs_rejected_with_sites(self, knob):
        with pytest.raises(SystemExit, match=knob[0] + " shapes log-fault"):
            main(["torture", "--sites", "2", "--schedules", "2"] + knob)

    def test_log_fault_bug_rejected_with_sites(self, capsys):
        import pytest

        with pytest.raises(SystemExit, match="log-fault control; it needs sites == 1"):
            main(
                [
                    "torture",
                    "--sites", "2",
                    "--inject-bug", "skip-commit-force",
                ]
            )
