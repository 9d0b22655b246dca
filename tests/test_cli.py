"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import main
from repro.core import serde
from repro.experiments.examples import (
    section_3_3_history,
    section_3_4_perturbed_history,
)

DATA = pathlib.Path(__file__).parent / "data"


class TestAdtsCommand:
    def test_lists_all(self, capsys):
        assert main(["adts"]) == 0
        out = capsys.readouterr().out
        for kind in ("bank", "semiqueue", "escrow", "register"):
            assert kind in out


class TestTablesCommand:
    def test_bank_tables(self, capsys):
        assert main(["tables", "bank"]) == 0
        out = capsys.readouterr().out
        assert "Forward Commutativity Relation" in out
        assert "Right Backward Commutativity Relation" in out
        assert "NFC-only conflicts" in out

    def test_markdown(self, capsys):
        assert main(["tables", "register", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| |" in out

    def test_unknown_adt(self):
        with pytest.raises(SystemExit):
            main(["tables", "btree"])

    @pytest.mark.parametrize(
        "argv",
        (
            ["tables", "nope"],
            ["counterexample", "uip", "--adt", "nope"],
            ["synthesize", "du", "--adt", "nope"],
            ["audit", str(DATA / "ten_concurrent_deposits.json"), "--adt", "nope"],
            ["audit", str(DATA / "ten_concurrent_deposits.json"), "--object", "BA=nope"],
        ),
        ids=("tables", "counterexample", "synthesize", "audit-adt", "audit-object"),
    )
    def test_unknown_adt_is_one_line_and_exit_1(self, argv):
        """``make_adt`` raises ``ValueError``; the commands ask first, so
        the CLI still ends with the one-line message and status 1 (a
        string ``SystemExit`` code), not a traceback."""
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert str(exit_.value.code).startswith("unknown ADT 'nope' (choose from: bank,")

    def test_custom_name(self, capsys):
        assert main(["tables", "counter", "--name", "HITS"]) == 0
        assert "HITS" in capsys.readouterr().out


class TestFiguresCommand:
    def test_figures_match(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6-1 matches the paper: True" in out
        assert "Figure 6-2 matches the paper: True" in out


class TestCounterexampleCommand:
    def test_uip(self, capsys):
        assert main(["counterexample", "uip"]) == 0
        out = capsys.readouterr().out
        assert "missing conflict pair" in out
        assert "not serializable" in out

    def test_du(self, capsys):
        assert main(["counterexample", "du"]) == 0
        assert "missing conflict pair" in capsys.readouterr().out


class TestAuditCommand:
    def test_clean_history(self, tmp_path, capsys):
        path = str(tmp_path / "h.json")
        serde.dump(section_3_3_history(), path)
        assert main(["audit", path, "--adt", "bank"]) == 0
        out = capsys.readouterr().out
        assert "atomic       : yes (order A-B-C)" in out
        assert "dynamic atomic: yes" in out

    def test_violating_history_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "h.json")
        serde.dump(section_3_4_perturbed_history(), path)
        assert main(["audit", path, "--adt", "bank"]) == 1
        out = capsys.readouterr().out
        assert "dynamic atomic: NO" in out

    def test_ten_concurrent_deposits(self, capsys):
        """10! linear extensions: the enumerating checker died here with a
        ``TooManyOrdersError`` traceback (the fixture CI audits too)."""
        path = pathlib.Path(__file__).parent / "data" / "ten_concurrent_deposits.json"
        assert len(serde.load(str(path)).committed()) == 10
        assert main(["audit", str(path), "--adt", "bank"]) == 0
        out = capsys.readouterr().out
        assert "atomic       : yes" in out
        assert "dynamic atomic: yes" in out

    def test_per_object_bindings(self, tmp_path, capsys):
        path = str(tmp_path / "h.json")
        serde.dump(section_3_3_history(), path)
        assert main(["audit", path, "--object", "BA=bank"]) == 0

    def test_missing_spec(self, tmp_path):
        path = str(tmp_path / "h.json")
        serde.dump(section_3_3_history(), path)
        with pytest.raises(SystemExit):
            main(["audit", path])

    def test_bad_binding(self, tmp_path):
        path = str(tmp_path / "h.json")
        serde.dump(section_3_3_history(), path)
        with pytest.raises(SystemExit):
            main(["audit", path, "--object", "nonsense"])


class TestCompareCommand:
    def test_semiqueue_small(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "semiqueue",
                    "--seeds",
                    "2",
                    "--transactions",
                    "4",
                    "--ops",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "UIP+NRBC" in out and "thruput" in out

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["compare", "blockchain"])

    def test_rejects_zero_seeds(self, capsys):
        with pytest.raises(SystemExit, match="--seeds must be >= 1"):
            main(["compare", "hotspot", "--seeds", "0"])

    def test_rejects_negative_opening(self):
        with pytest.raises(SystemExit, match="--opening must be >= 0"):
            main(["compare", "hotspot", "--opening", "-5"])

    def test_read_mix_adds_ro_columns(self, capsys):
        assert (
            main(
                [
                    "compare", "hotspot",
                    "--seeds", "2",
                    "--transactions", "4",
                    "--ops", "2",
                    "--read-mix", "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ro-commit" in out and "ro-reads" in out

    def test_read_mix_rejects_out_of_range(self):
        with pytest.raises(SystemExit, match="--read-mix must be in"):
            main(["compare", "hotspot", "--read-mix", "2.0"])

    def test_read_mix_rejects_observerless_workloads(self):
        with pytest.raises(SystemExit, match="no read-only observer"):
            main(["compare", "fifo", "--read-mix", "0.5", "--seeds", "1"])


class TestRunCommand:
    def test_run_prints_metrics(self, capsys):
        assert main(["run", "bank", "--transactions", "4", "--ops", "2"]) == 0
        out = capsys.readouterr().out
        assert "committed" in out and "forces" in out

    def test_rejects_zero_transactions(self):
        with pytest.raises(SystemExit, match="--transactions must be >= 1"):
            main(["run", "bank", "--transactions", "0"])

    def test_rejects_negative_ops(self):
        with pytest.raises(SystemExit, match="--ops must be >= 1"):
            main(["run", "bank", "--ops", "-1"])

    def test_rejects_bad_group_commit(self):
        with pytest.raises(SystemExit, match="--group-commit must be >= 1"):
            main(["run", "bank", "--group-commit", "0"])

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        from repro.runtime.trace import load_jsonl, reconcile

        path = str(tmp_path / "t.jsonl")
        assert (
            main(
                [
                    "run",
                    "bank",
                    "--transactions",
                    "4",
                    "--ops",
                    "2",
                    "--group-commit",
                    "4",
                    "--trace-out",
                    path,
                ]
            )
            == 0
        )
        assert "trace" in capsys.readouterr().out
        events = load_jsonl(path)  # schema-validates every line
        results = reconcile(events)
        assert len(results) == 1 and results[0].ok


    def test_run_with_sites_reports_per_site_accounting(self, capsys):
        argv = [
            "run", "counter",
            "--sites", "2",
            "--site-crash", "1@5-15",
            "--transactions", "6",
            "--ops", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "counter/DU/x2" in out
        assert "site 0" in out and "site 1" in out
        assert "requalified" in out
        # the shared summary prints for replicated runs too
        for label in ("forces ", "avg batch size", "forces/commit", "commit stall ticks"):
            assert "\n%s" % label in out, label

    def test_run_rejects_overlapping_site_crash_windows(self):
        with pytest.raises(SystemExit, match="site1@10-30 overlaps site1@5-20"):
            main([
                "run", "counter", "--sites", "2",
                "--site-crash", "1@5-20", "--site-crash", "1@10-30",
            ])

    def test_run_sites_rejects_workers(self, capsys):
        # ``run`` has no --workers flag (only campaigns fan out): argparse
        # refuses it before any replication check could.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "counter", "--sites", "2", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err


class TestTortureValidation:
    def test_rejects_zero_schedules(self):
        with pytest.raises(SystemExit, match="--schedules must be >= 1"):
            main(["torture", "--schedules", "0"])

    def test_rejects_negative_retries(self):
        with pytest.raises(SystemExit, match="--max-retries must be >= 0"):
            main(["torture", "--max-retries", "-1"])

    def test_rejects_zero_max_faults(self):
        with pytest.raises(SystemExit, match="--max-faults must be >= 1"):
            main(["torture", "--max-faults", "0"])

    def test_rejects_negative_checkpoint_every(self):
        with pytest.raises(SystemExit, match="--checkpoint-every must be >= 0"):
            main(["torture", "--checkpoint-every", "-1"])


class TestTraceReportCommand:
    def _write_trace(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert (
            main(
                [
                    "torture",
                    "--adt",
                    "bank",
                    "--recovery",
                    "du",
                    "--schedules",
                    "2",
                    "--trace-out",
                    path,
                ]
            )
            == 0
        )
        return path

    def test_torture_trace_reconciles(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace-report", path, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "reconcile" in out and "MISMATCH" not in out

    def test_torture_read_mix_labels_and_passes(self, capsys):
        assert (
            main(
                [
                    "torture",
                    "--adt",
                    "bank",
                    "--recovery",
                    "du",
                    "--schedules",
                    "4",
                    "--read-mix",
                    "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bank/DU/ro0.5" in out
        assert "all invariants held" in out

    def test_torture_read_mix_rejects_out_of_range(self):
        with pytest.raises(SystemExit, match="--read-mix must be in"):
            main(["torture", "--adt", "bank", "--read-mix", "1.5"])

    def test_torture_read_mix_skips_observerless_adts(self, capsys):
        # fifo has no read-only observer invocations; the torture matrix
        # just runs it without readers instead of rejecting the flag.
        assert (
            main(
                [
                    "torture",
                    "--adt",
                    "fifo",
                    "--recovery",
                    "du",
                    "--schedules",
                    "2",
                    "--read-mix",
                    "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fifo/DU/ro0.5" in out

    def test_rejects_malformed_trace(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SystemExit, match="invalid trace"):
            main(["trace-report", str(path)])

    def test_mismatch_exits_nonzero(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.jsonl"
        events = [
            {"kind": "run-start", "tick": 0, "label": "x"},
            {
                "kind": "run-end",
                "tick": 0,
                "label": "x",
                "metrics": {"committed": 3},
            },
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["trace-report", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_strict_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace-report", str(path), "--strict"]) == 1
