"""A torture campaign is one stream: each schedule is drawn when it runs,
its result merged into the report (its events into the trace) and
dropped.

* **differential** — the streamed campaign against a materialised
  reference (every plan drawn first, :func:`run_schedule` per
  assignment, merged in index order by hand): the same report text and
  the same JSONL bytes, for one-site and site-crash configs, inline and
  over a pool, on two seeds;
* **retention** — a finished schedule's plan and system are freed
  before the next one starts (by reference counting alone);
* **failed cells** — a schedule whose cell raises lands in
  ``report.failed`` under its own config's label;
* **pulls** — the runner pulls a cell when its result is wanted
  (inline), or a bounded window of chunks ahead (pool);
* **chunks** — a small campaign over a pool is split over the workers.
"""

import gc
import itertools
import weakref

import pytest

from repro.runtime import torture
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import FaultCounters
from repro.runtime.parallel import MAX_CHUNK, Cell, ParallelRunner, register_executor
from repro.runtime.spec import SystemSpec
from repro.runtime.torture import (
    TortureReport,
    configs_for,
    plan_campaign,
    run_schedule,
    run_torture,
)
from repro.runtime.trace import TraceCollector

ONE_SITE = configs_for(
    ["bank", "counter"], ("DU", "UIP"), group_commit=2, hold=1, checkpoint_every=4
)
SITES = configs_for(["bank", "counter"], ("DU", "UIP"), sites=2)


def reference_campaign(configs, *, schedules, seed, trace):
    """Every plan drawn first, each run on its own, merged in order."""
    report = TortureReport(seed=seed)
    for config, plan, run_seed in plan_campaign(
        configs, schedules=schedules, seed=seed
    ):
        counters = FaultCounters()
        cell_trace = TraceCollector()
        result = run_schedule(
            config, plan, seed=run_seed, counters=counters, trace=cell_trace
        )
        trace.merge(cell_trace.events)
        report.schedules += 1
        report.crashes += result.crashes
        report.committed += result.committed
        report.faults_fired += result.faults_fired
        report.violations.extend(result.violations)
        report.per_config[result.config] = report.per_config.get(result.config, 0) + 1
        report.counters.merge(counters)
    return report


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("configs", [ONE_SITE, SITES], ids=["one-site", "sites2"])
def test_the_stream_is_the_materialised_campaign(tmp_path, configs, workers, seed):
    expected_trace = TraceCollector()
    expected = reference_campaign(
        configs, schedules=12, seed=seed, trace=expected_trace
    )
    trace = TraceCollector()
    report = run_torture(configs, schedules=12, seed=seed, trace=trace, workers=workers)
    assert report.ok and report.schedules == 12
    assert report.format() == expected.format()
    assert report.counters == expected.counters
    expected_trace.dump_jsonl(str(tmp_path / "expected.jsonl"))
    trace.dump_jsonl(str(tmp_path / "streamed.jsonl"))
    assert (tmp_path / "streamed.jsonl").read_bytes() == (
        tmp_path / "expected.jsonl"
    ).read_bytes()


def test_a_finished_schedule_is_freed_before_the_next_starts(monkeypatch):
    """By reference counting alone (the collector is off): a campaign
    keeps no plan or system of a schedule it has merged."""
    plans, systems, inside = [], [], [False]
    real_run, real_build = torture.run_schedule, SystemSpec.build_system

    def build_system(*args, **kwargs):
        system = real_build(*args, **kwargs)
        if inside[0]:
            systems.append(weakref.ref(system))
        return system

    def run_schedule(config, plan, **kwargs):
        assert not [ref for ref in plans + systems if ref() is not None]
        if isinstance(plan, FaultPlan):
            plans.append(weakref.ref(plan))
        inside[0] = True
        try:
            return real_run(config, plan, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(SystemSpec, "build_system", build_system)
    monkeypatch.setattr(torture, "run_schedule", run_schedule)
    enabled = gc.isenabled()
    gc.disable()
    try:
        report = run_torture(ONE_SITE + SITES, schedules=24, seed=3)
    finally:
        if enabled:
            gc.enable()
    assert report.ok and report.schedules == 24
    assert len(plans) == 12 and len(systems) == 24
    assert not [ref for ref in plans + systems if ref() is not None]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_cell_lands_under_its_own_label(monkeypatch, workers):
    configs = configs_for(["bank", "counter"], ("DU",))
    real_run = torture.run_schedule

    def run_schedule(config, plan, **kwargs):
        if config.adt_kind == "counter":
            raise RuntimeError("planted")
        return real_run(config, plan, **kwargs)

    monkeypatch.setattr(torture, "run_schedule", run_schedule)
    report = run_torture(configs, schedules=6, seed=0, workers=workers)
    label = configs[1].label()
    assert report.failed == [
        "schedule %d (%s): RuntimeError: planted" % (i, label) for i in (1, 3, 5)
    ]
    assert not report.ok
    assert report.schedules == 3 and report.per_config == {configs[0].label(): 3}


def _index(cell, trace):
    return cell.index


@pytest.mark.parametrize("workers", [1, 2])
def test_the_runner_pulls_cells_as_their_results_are_wanted(workers):
    register_executor("test-index", _index)
    pulled = []

    def cells():
        for i in itertools.count():
            pulled.append(i)
            yield Cell(i, "test-index")

    stream = ParallelRunner(workers).stream(itertools.islice(cells(), 500))
    assert [next(stream).value for _ in range(3)] == [0, 1, 2]
    if workers == 1:
        assert pulled == [0, 1, 2]
    else:
        # two chunks a worker in flight, and the one being yielded
        assert len(pulled) <= (2 * workers + 1) * MAX_CHUNK
    assert [r.value for r in stream] == list(range(3, 500))


def test_a_small_pool_campaign_is_split_over_the_workers(monkeypatch):
    """The campaign tells the runner its length: 12 schedules at two
    workers go out as several chunks (about four a worker), not as one
    chunk of up to MAX_CHUNK cells on one worker."""
    sizes = []
    real_chunks = ParallelRunner._chunks

    def chunks(self, cells, size):
        for chunk in real_chunks(self, cells, size):
            sizes.append(len(chunk))
            yield chunk

    monkeypatch.setattr(ParallelRunner, "_chunks", chunks)
    report = run_torture(ONE_SITE, schedules=12, seed=0, workers=2)
    assert report.ok and report.schedules == 12
    assert sizes == [2] * 6
