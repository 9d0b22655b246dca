"""Tests for the parallel experiment execution engine.

Covers the three contracts of ``repro.runtime.parallel``:

* **determinism** — serial-vs-parallel equality over the compare matrix
  (workloads x workers), a group-commit run cell, and a torture
  campaign: the merged aggregates are exactly the serial ones;
* **robustness** — a crashed worker's cells are retried once on a fresh
  pool, and cells that keep killing their worker surface as failed
  cells instead of hanging the sweep;
* **one trace** — a cell's events come back with its result, so a
  campaign's event stream is equal at every worker count, reconciles,
  and holds each completed cell exactly once.
"""

import os
from concurrent.futures import Future

import pytest

from repro.cli import main
from repro.experiments.comparisons import compare, compare_parallel, comparison_case
from repro.runtime.faults import FaultPlan
from repro.runtime.parallel import (
    Cell,
    ParallelRunner,
    _Flight,
    execute_cell,
    register_executor,
)
from repro.runtime.torture import (
    TortureConfig,
    configs_for,
    fault_free_scheduler,
    plan_campaign,
    run_torture,
)
from repro.runtime.trace import TraceCollector, load_jsonl, reconcile

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


def _fault_free_run(cell, trace):
    """What ``repro run`` executes, as a cell: RunMetrics of one durable run."""
    return fault_free_scheduler(cell.spec["config"], cell.seed, trace).run()


class TestRunCellEquality:
    def test_group_commit_run_cell(self):
        """A durable-run cell (group commit on) matches in and out of the pool."""
        register_executor("test-run", _fault_free_run)
        config = TortureConfig(
            "bank", "DU", transactions=6, ops_per_txn=3, group_commit=4, hold=2
        )
        cell = Cell(index=0, kind="test-run", spec={"config": config}, seed=3)
        direct = execute_cell(cell)
        assert direct.forces > 0 and direct.committed > 0
        # Two cells so the pooled path actually engages the pool.
        cells = [cell, Cell(index=1, kind="test-run", spec=cell.spec, seed=4)]
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

    def test_results_kept_past_a_broken_pool_survive_later_breaks(self):
        """A chunk that finished before its pool broke keeps its results,
        however many pools break while older chunks are retried."""
        flight = _Flight([Cell(0, "test-doomed")])
        flight.future = Future()
        flight.future.set_result(["finished"])
        for _ in range(3):
            flight.on_broken_pool(retries=1)
        assert flight.results == ["finished"] and flight.deaths == 0

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

    @pytest.mark.parametrize("workers", (1, 2))
    def test_unknown_adt_kind_is_a_failed_cell(self, workers):
        """``make_adt`` raises ``ValueError``, not ``SystemExit``: inside
        a cell that is a reported failure — it neither ends an inline
        campaign nor reads as a dead worker in a pool."""
        from repro.adts.registry import make_adt

        with pytest.raises(ValueError, match="unknown ADT 'nope'"):
            make_adt("nope")
        with pytest.raises(ValueError, match="unknown ADT 'nope'"):
            run_torture(configs_for(["nope"]), schedules=2)
        spec = {"config": TortureConfig("nope", "DU"), "plan": FaultPlan()}
        results = ParallelRunner(workers).run(
            [Cell(0, "torture", spec), Cell(1, "torture", spec)]
        )
        assert [r.ok for r in results] == [False, False]
        assert all("ValueError: unknown ADT 'nope'" in r.error for r in results)

    def test_duplicate_indexes_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ParallelRunner(1).run([Cell(0, "compare"), Cell(0, "compare")])

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(0)
        with pytest.raises(ValueError):
            ParallelRunner(2, chunk_size=0)
        with pytest.raises(ValueError):
            ParallelRunner(2, retries=-1)


# ---------------------------------------------------------------------------
# one trace at every worker count
# ---------------------------------------------------------------------------


def _traced_flaky_executor(cell, trace):
    """``_flaky_executor`` that records the cell's events before it dies
    (first run) and again when it succeeds (the retry)."""
    trace.begin_tick(cell.index)
    trace.emit("schedule-start", "cell-%d" % cell.index, "flaky")
    return _flaky_executor(cell, trace)


def _traced_boom_executor(cell, trace):
    trace.emit("schedule-start", "cell-%d" % cell.index, "boom")
    if cell.index == 1:
        raise RuntimeError("cell 1 exploded")
    return cell.index


class TestOneTrace:
    @pytest.mark.parametrize(
        "overrides, schedules",
        [({}, 12), ({"group_commit": 2}, 12), ({"sites": 2}, 8)],
        ids=["log-faults", "group-commit", "site-crashes"],
    )
    def test_campaign_events_equal_at_every_worker_count(
        self, overrides, schedules
    ):
        configs = configs_for(["bank"], ("DU", "UIP"), **overrides)
        streams = {}
        for workers in WORKER_MATRIX:
            trace = TraceCollector()
            report = run_torture(
                configs, schedules=schedules, seed=3, trace=trace, workers=workers
            )
            assert report.ok
            streams[workers] = trace.events
        serial = streams[1]
        assert all(events == serial for events in streams.values())
        starts = [e for e in serial if e["kind"] == "schedule-start"]
        assert len(starts) == schedules
        # A fresh collector per cell: no schedule opens on the previous
        # schedule's clock.
        assert {e["tick"] for e in starts} == {0}
        assert not any("cell" in e for e in serial)
        results = reconcile(serial)
        assert len(results) == schedules and all(r.ok for r in results)

    def test_cli_trace_out_leaves_one_file(self, tmp_path, capsys):
        args = ["torture", "--adt", "bank", "--recovery", "du", "--schedules", "6"]
        files = {}
        for workers in (1, 2):
            path = tmp_path / ("w%d" % workers) / "TRACE.jsonl"
            path.parent.mkdir()
            assert main(args + ["--workers", str(workers), "--trace-out", str(path)]) == 0
            assert os.listdir(str(path.parent)) == ["TRACE.jsonl"]  # no *.w<k>.jsonl
            files[workers] = path.read_bytes()
        capsys.readouterr()
        assert files[1] == files[2]
        events = load_jsonl(str(path))
        assert events and not any("cell" in e for e in events)
        assert main(["trace-report", str(path), "--strict"]) == 0

    def test_retried_cells_appear_once_in_index_order(self, tmp_path):
        """A worker that dies after emitting loses its events with it; the
        retry's events are the cell's only copy."""
        register_executor("test-traced-flaky", _traced_flaky_executor)
        spec = {"dir": str(tmp_path)}
        cells = [Cell(i, "test-traced-flaky", spec) for i in reversed(range(4))]
        trace = TraceCollector()
        results = ParallelRunner(2, chunk_size=1, retries=4).run(cells, trace)
        assert [r.ok for r in results] == [True] * 4
        assert [e["label"] for e in trace.events] == [
            "cell-%d" % i for i in range(4)
        ]
        assert [e["tick"] for e in trace.events] == [0, 1, 2, 3]
        assert [r.events for r in results] == [[e] for e in trace.events]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cell_contributes_no_events(self, workers):
        register_executor("test-traced-boom", _traced_boom_executor)
        cells = [Cell(i, "test-traced-boom") for i in range(3)]
        trace = TraceCollector()
        results = ParallelRunner(workers, chunk_size=1).run(cells, trace)
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].events == []
        assert [e["label"] for e in trace.events] == ["cell-0", "cell-2"]

    def test_untraced_cells_get_no_collector(self):
        register_executor("test-untraced", lambda cell, trace: trace is None)
        results = ParallelRunner(1).run(
            [Cell(0, "test-untraced"), Cell(1, "test-untraced")]
        )
        assert [(r.value, r.events) for r in results] == [(True, [])] * 2
