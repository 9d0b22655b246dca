"""EXP-C9: torture throughput — crash-schedule audit rate by configuration.

Measures how many complete fault schedules per second the torture
harness sustains (each schedule = workload run + injected faults +
crash/restart protocol + three-invariant audit), for the DU and UIP
config families and for the full matrix.  Also spot-checks the negative
control so the measured throughput is of a harness that demonstrably
still has teeth.

A campaign draws each schedule's fault plan when the schedule runs and
drops the schedule once its result is merged into the report, so its
memory does not grow with the schedule count: the ``tracemalloc`` peak
of the ``crash_torture`` matrix of ``benchmarks/e2e`` at 750 schedules
reads about 960 bytes a schedule (about 5 850 when every plan, cell
and result was held to the end of the campaign); the bound is 1 500.
That bound is assertion-only: no artifact is written.
"""

import gc
import tracemalloc

import pytest

from repro.adts.registry import ADT_REGISTRY
from repro.runtime.torture import TortureConfig, configs_for, run_torture

SCHEDULES = 60
MAX_PEAK_BYTES_PER_SCHEDULE = 1500
#: the ``crash_torture`` matrix of ``benchmarks/e2e``.
CRASH_TORTURE = configs_for(
    ("bank", "escrow", "kv", "set"), transactions=8, ops_per_txn=3,
    group_commit=4, hold=2, checkpoint_every=5, read_mix=0.25,
)


def run_family(
    recovery: str, schedules: int = SCHEDULES, seed: int = 0, workers: int = 1
):
    configs = configs_for(sorted(ADT_REGISTRY), (recovery,))
    return run_torture(configs, schedules=schedules, seed=seed, workers=workers)


@pytest.mark.experiment("EXP-C9")
def test_torture_throughput_du(benchmark, bench_workers):
    report = benchmark.pedantic(
        lambda: run_family("DU", workers=bench_workers), rounds=3, iterations=1
    )
    assert report.ok, "\n".join(v.format() for v in report.violations)
    assert report.schedules == SCHEDULES
    assert report.crashes >= report.schedules  # every schedule ends in an audit crash


@pytest.mark.experiment("EXP-C9")
def test_torture_throughput_uip(benchmark, bench_workers):
    report = benchmark.pedantic(
        lambda: run_family("UIP", workers=bench_workers), rounds=3, iterations=1
    )
    assert report.ok, "\n".join(v.format() for v in report.violations)
    assert report.schedules == SCHEDULES


@pytest.mark.experiment("EXP-C9")
def test_torture_full_matrix_rate(benchmark, capsys, bench_workers):
    """The headline number: schedules/second over the full config matrix."""

    def campaign():
        configs = configs_for(sorted(ADT_REGISTRY), checkpoint_every=8)
        return run_torture(
            configs,
            schedules=SCHEDULES,
            seed=7,
            max_faults=3,
            workers=bench_workers,
        )

    report = benchmark.pedantic(campaign, rounds=3, iterations=1)
    assert report.ok, "\n".join(v.format() for v in report.violations)
    if not benchmark.stats:  # --benchmark-disable: no timing to report
        return
    rate = report.schedules / max(benchmark.stats["mean"], 1e-9)
    with capsys.disabled():
        print(
            "\n-- EXP-C9 torture rate: %.0f schedules/s "
            "(%d crashes, %d faults fired, %d records lost) --"
            % (
                rate,
                report.crashes,
                report.faults_fired,
                report.counters.records_lost,
            )
        )
    assert rate > 1  # sanity floor; typical rates are in the hundreds


@pytest.mark.experiment("EXP-C9")
def test_negative_control_still_detected(benchmark):
    """Throughput without teeth is meaningless: the planted bug must fail."""

    def buggy():
        configs = [
            TortureConfig("bank", "DU", bug="skip-commit-force"),
            TortureConfig("bank", "UIP", bug="skip-commit-force"),
        ]
        return run_torture(configs, schedules=8, seed=0)

    report = benchmark.pedantic(buggy, rounds=1, iterations=1)
    assert not report.ok
    assert any(
        v.invariant in ("lost-commit", "restart-state")
        for v in report.violations
    )


def campaign_peak_bytes(schedules: int, configs=CRASH_TORTURE) -> int:
    """The ``tracemalloc`` peak of one seed-0 campaign over what was
    allocated before it."""
    run_torture(configs, schedules=8, seed=0)  # warm: imports, compiled tables
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = run_torture(configs, schedules=schedules, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.ok and report.schedules == schedules
    return peak


def test_a_campaign_keeps_bounded_memory():
    per_schedule = campaign_peak_bytes(750) / 750
    assert per_schedule <= MAX_PEAK_BYTES_PER_SCHEDULE, round(per_schedule)
