"""Tests for the parallel experiment execution engine.

Covers the three contracts of ``repro.runtime.parallel``:

* **determinism** — serial-vs-parallel equality over the compare matrix
  (workloads x workers), a group-commit run cell, and a torture
  campaign: the merged aggregates are exactly the serial ones;
* **robustness** — a crashed worker's cells are retried once on a fresh
  pool, and cells that keep killing their worker surface as failed
  cells instead of hanging the sweep;
* **trace sharding** — per-worker shards stitch back into a stream that
  ``repro trace-report --strict`` accepts, with one copy per cell.
"""

import json
import os

import pytest

from repro.cli import main
from repro.experiments.comparisons import compare, compare_parallel, comparison_case
from repro.runtime.parallel import (
    Cell,
    CellResult,
    ParallelRunner,
    execute_cell,
    register_executor,
    shard_path,
    stitch_trace_shards,
    trace_shard_paths,
)
from repro.runtime.torture import configs_for, plan_campaign, run_torture

WORKER_MATRIX = (1, 2, 4)


# ---------------------------------------------------------------------------
# serial-vs-parallel equality
# ---------------------------------------------------------------------------


class TestCompareEquality:
    @pytest.mark.parametrize("workload", ["hotspot", "semiqueue", "set"])
    def test_matrix_matches_serial(self, workload):
        adt_factory, workload_fn = comparison_case(
            workload, transactions=4, ops_per_txn=2
        )
        serial = compare(adt_factory, workload_fn, seeds=(0, 1, 2))
        for workers in WORKER_MATRIX:
            summaries, failed = compare_parallel(
                workload,
                seeds=(0, 1, 2),
                transactions=4,
                ops_per_txn=2,
                workers=workers,
            )
            assert not failed
            assert summaries == serial, "%s diverged at workers=%d" % (
                workload,
                workers,
            )

    def test_seed_offset_respected(self):
        summaries, failed = compare_parallel(
            "hotspot", seeds=(5, 6), transactions=4, ops_per_txn=2, workers=2
        )
        assert not failed
        adt_factory, workload_fn = comparison_case(
            "hotspot", transactions=4, ops_per_txn=2
        )
        assert summaries == compare(adt_factory, workload_fn, seeds=(5, 6))


class TestRunCellEquality:
    def test_group_commit_run_cell(self):
        """A 'run' cell (group commit on) matches in and out of the pool."""
        cell = Cell(
            index=0,
            kind="run",
            spec={
                "adt": "bank",
                "recovery": "DU",
                "transactions": 6,
                "ops": 3,
                "group_commit": 4,
                "hold": 2,
            },
            seed=3,
        )
        direct = execute_cell(cell)
        assert direct.forces > 0 and direct.committed > 0
        # Two cells so the pooled path actually engages the pool.
        cells = [cell, Cell(index=1, kind="run", spec=cell.spec, seed=4)]
        for workers in WORKER_MATRIX:
            results = ParallelRunner(workers).run(cells)
            assert [r.ok for r in results] == [True, True]
            assert results[0].value == direct
            assert results[1].value == execute_cell(cells[1])


class TestTortureEquality:
    def test_campaign_matches_serial(self):
        configs = configs_for(["bank"], ("DU", "UIP"), group_commit=2)
        serial = run_torture(configs, schedules=12, seed=3)
        assert serial.ok
        for workers in WORKER_MATRIX[1:]:
            report = run_torture(
                configs, schedules=12, seed=3, workers=workers
            )
            assert report.format() == serial.format()
            assert report.counters == serial.counters

    def test_site_crash_campaign_matches_serial(self):
        configs = configs_for(["bank", "counter"], ("DU", "UIP"), sites=2)
        serial = run_torture(configs, schedules=10, seed=3)
        assert serial.ok and serial.crashes > serial.schedules
        parallel = run_torture(configs, schedules=10, seed=3, workers=2)
        assert parallel.format() == serial.format()

    def test_plan_campaign_is_the_serial_prefix(self):
        """The cell decomposition draws exactly the serial RNG stream."""
        configs = configs_for(["bank"], ("DU",))
        first = plan_campaign(configs, schedules=8, seed=9)
        again = plan_campaign(configs, schedules=8, seed=9)
        assert [(p.describe(), s) for _, p, s in first] == [
            (p.describe(), s) for _, p, s in again
        ]

    def test_shared_trace_collector_rejected(self):
        configs = configs_for(["bank"], ("DU",))
        with pytest.raises(ValueError, match="trace_out"):
            run_torture(
                configs, schedules=2, seed=0, workers=2, trace=object()
            )


# ---------------------------------------------------------------------------
# worker-death robustness
# ---------------------------------------------------------------------------


def _flaky_executor(cell, trace):
    """Kill the worker the first time each cell runs; succeed after."""
    marker = os.path.join(cell.spec["dir"], "cell-%d" % cell.index)
    if not os.path.exists(marker):
        with open(marker, "w") as fp:
            fp.write("crashed")
        os._exit(1)
    return cell.index * 10


def _doomed_executor(cell, trace):
    os._exit(1)


class TestWorkerDeath:
    def test_crashed_cells_retry_on_a_fresh_worker(self, tmp_path):
        register_executor("test-flaky", _flaky_executor)
        spec = {"dir": str(tmp_path)}
        cells = [Cell(i, "test-flaky", spec) for i in range(4)]
        # A broken pool can take unstarted chunks down with it, and each
        # wave only guarantees one cell past its first-run crash — give
        # the retry budget one wave per cell plus the clean final wave.
        runner = ParallelRunner(2, chunk_size=1, retries=4)
        results = runner.run(cells)
        assert [r.ok for r in results] == [True] * 4
        assert [r.value for r in results] == [0, 10, 20, 30]
        # Every cell really did kill its first worker.
        assert all(
            os.path.exists(os.path.join(str(tmp_path), "cell-%d" % i))
            for i in range(4)
        )

    def test_cell_that_keeps_killing_workers_is_abandoned(self):
        register_executor("test-doomed", _doomed_executor)
        runner = ParallelRunner(2, chunk_size=1)
        # Force the pool path: two cells, both doomed.
        results = runner.run(
            [Cell(0, "test-doomed"), Cell(1, "test-doomed")]
        )
        assert [r.ok for r in results] == [False, False]
        assert all("worker process died" in r.error for r in results)
        assert ParallelRunner.failed(results) == results

    def test_python_exception_is_a_failed_cell_not_a_dead_worker(self):
        def boom(cell, trace):
            raise RuntimeError("cell %d exploded" % cell.index)

        register_executor("test-boom", boom)
        results = ParallelRunner(1).run(
            [Cell(0, "test-boom"), Cell(1, "test-boom")]
        )
        assert [r.ok for r in results] == [False, False]
        assert "RuntimeError: cell 0 exploded" in results[0].error

    def test_unknown_kind(self):
        with pytest.raises(KeyError, match="no-such-kind"):
            execute_cell(Cell(0, "no-such-kind"))

    def test_duplicate_indexes_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ParallelRunner(1).run([Cell(0, "run"), Cell(0, "run")])

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(0)
        with pytest.raises(ValueError):
            ParallelRunner(2, chunk_size=0)
        with pytest.raises(ValueError):
            ParallelRunner(2, retries=-1)


# ---------------------------------------------------------------------------
# trace sharding and stitching
# ---------------------------------------------------------------------------


class TestTraceSharding:
    def test_shard_path_naming(self):
        assert shard_path("TRACE_x.jsonl", 3) == "TRACE_x.w3.jsonl"
        assert shard_path("plain", 0) == "plain.w0.jsonl"

    def test_stitch_round_trip_through_trace_report(self, tmp_path):
        trace_file = str(tmp_path / "TRACE_par.jsonl")
        configs = configs_for(["bank"], ("DU",))
        report = run_torture(
            configs, schedules=6, seed=1, workers=2, trace_out=trace_file
        )
        assert report.ok
        shards = trace_shard_paths(trace_file)
        assert shards, "no worker shards were written"
        assert all(".w" in p for p in shards)
        assert os.path.exists(trace_file)
        # The stitched stream is one copy per cell, in cell order, and
        # passes full schema validation + reconciliation.
        cells = [
            json.loads(line)["cell"] for line in open(trace_file)
        ]
        assert cells == sorted(cells)
        assert set(cells) == set(range(6))
        assert main(["trace-report", trace_file, "--strict"]) == 0

    def test_stitch_skips_torn_lines_and_duplicate_cells(self, tmp_path):
        base = str(tmp_path / "T.jsonl")
        with open(shard_path(base, 0), "w") as fp:
            fp.write(json.dumps({"kind": "a", "cell": 0}) + "\n")
            fp.write('{"kind": "torn", "cel')  # mid-write worker death
        with open(shard_path(base, 1), "w") as fp:
            fp.write(json.dumps({"kind": "b", "cell": 0}) + "\n")
            fp.write(json.dumps({"kind": "c", "cell": 1}) + "\n")
        count = stitch_trace_shards(base, winners={0: 1, 1: 1})
        events = [json.loads(line) for line in open(base)]
        assert count == 2
        assert [e["kind"] for e in events] == ["b", "c"]
        # Without winners, the lowest worker id holds cell 0.
        stitch_trace_shards(base)
        events = [json.loads(line) for line in open(base)]
        assert [e["kind"] for e in events] == ["a", "c"]

    def test_stale_shards_removed_before_a_run(self, tmp_path):
        trace_file = str(tmp_path / "TRACE_s.jsonl")
        stale = shard_path(trace_file, 7)
        with open(stale, "w") as fp:
            fp.write(json.dumps({"kind": "stale", "cell": 99}) + "\n")
        configs = configs_for(["bank"], ("DU",))
        run_torture(
            configs, schedules=2, seed=0, workers=2, trace_out=trace_file
        )
        assert not os.path.exists(stale)
        cells = {json.loads(line)["cell"] for line in open(trace_file)}
        assert 99 not in cells
