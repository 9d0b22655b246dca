"""CLI tests for ``--workers`` (compare/torture: the commands that run
campaigns of cells) and ``--seed-base`` (run/compare/torture)."""

import pytest

from repro.cli import main


def _out(capsys) -> str:
    return capsys.readouterr().out


class TestValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "hotspot", "--workers", "0"],
            ["torture", "--sites", "2", "--schedules", "2", "--workers", "0"],
            ["torture", "--adt", "bank", "--schedules", "2", "--workers", "-1"],
        ],
    )
    def test_workers_floor(self, argv):
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "hotspot", "--seed-base", "-1"],
            ["run", "bank", "--seed-base", "-2"],
            ["torture", "--adt", "bank", "--schedules", "2", "--seed-base", "-1"],
        ],
    )
    def test_seed_base_floor(self, argv):
        with pytest.raises(SystemExit, match="--seed-base must be >= 0"):
            main(argv)


class TestSeedBase:
    def test_compare_offsets_the_seed_range(self, capsys):
        args = ["compare", "hotspot", "--transactions", "4", "--seeds", "2"]
        assert main(args + ["--seed-base", "5"]) == 0
        shifted = _out(capsys)
        assert main(args) == 0
        base = _out(capsys)
        assert shifted != base  # different seeds, different numbers

    def test_run_offset_equals_plain_seed(self, capsys):
        args = ["run", "bank", "--transactions", "4"]
        assert main(args + ["--seed", "2", "--seed-base", "3"]) == 0
        offset = _out(capsys)
        assert main(args + ["--seed", "5"]) == 0
        assert offset == _out(capsys)

    def test_torture_offset_equals_plain_seed(self, capsys):
        args = ["torture", "--adt", "bank", "--schedules", "4",
                "--transactions", "2"]
        assert main(args + ["--seed", "1", "--seed-base", "2"]) == 0
        offset = _out(capsys)
        assert main(args + ["--seed", "3"]) == 0
        assert offset == _out(capsys)


class TestWorkersByteIdentical:
    def test_compare(self, capsys):
        args = ["compare", "semiqueue", "--transactions", "4", "--seeds", "2"]
        assert main(args) == 0
        serial = _out(capsys)
        assert main(args + ["--workers", "2"]) == 0
        assert _out(capsys) == serial

    def test_run(self, capsys):
        """One run is one cell's body, not a campaign: nothing to fan out,
        so ``run`` takes no ``--workers`` at all."""
        args = ["run", "bank", "--transactions", "4", "--group-commit", "2"]
        assert main(args) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_torture(self, capsys):
        args = ["torture", "--adt", "bank", "--recovery", "du",
                "--schedules", "6", "--transactions", "2"]
        assert main(args) == 0
        serial = _out(capsys)
        assert main(args + ["--workers", "2"]) == 0
        assert _out(capsys) == serial

    def test_torture_negative_control_still_detected(self, capsys):
        args = ["torture", "--adt", "bank", "--schedules", "4",
                "--inject-bug", "skip-commit-force", "--workers", "2"]
        assert main(args) == 1
        assert "VIOLATIONS" in _out(capsys)
