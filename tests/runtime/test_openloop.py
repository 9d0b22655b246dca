"""Tests for the open-loop traffic driver (:mod:`repro.runtime.openloop`)."""

import hashlib
import math
import random
from collections import Counter

import pytest

from repro.runtime.openloop import (
    DriveReport,
    OpenLoopConfig,
    ZipfChooser,
    arrival_ticks,
    drive,
    home_shard,
    open_loop_scripts,
    split_arrivals,
    zipf_weights,
)
from repro.runtime.sharding import shard_of
from repro.runtime.trace import TraceCollector

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validates_knobs():
    for bad in (
        dict(objects=0),
        dict(shards=0),
        dict(transactions=0),
        dict(ops_per_txn=0),
        dict(arrival_rate=0.0),
        dict(process="steady"),
        dict(burst_factor=0.5),
        dict(zipf_s=-1.0),
        dict(cross_shard=1.5),
        dict(read_mix=-0.1),
        dict(read_mix=1.5),
        dict(ro_mode="martian"),
    ):
        with pytest.raises(ValueError):
            OpenLoopConfig(**bad)


def test_label_carries_read_mix_and_baseline_mode():
    assert "/ro" not in OpenLoopConfig().label()
    assert OpenLoopConfig(read_mix=0.3).label().endswith("/ro0.3")
    assert OpenLoopConfig(read_mix=0.3, ro_mode="locked").label().endswith(
        "/ro0.3-locked"
    )


def test_object_names_are_stable_and_distinct():
    names = OpenLoopConfig(objects=12).object_names()
    assert len(names) == 12
    assert len(set(names)) == 12
    assert names == OpenLoopConfig(objects=12).object_names()


# ---------------------------------------------------------------------------
# zipfian hot keys
# ---------------------------------------------------------------------------


def test_zipf_weights_normalize_and_rank():
    weights = zipf_weights(10, 1.1)
    assert math.isclose(sum(weights), 1.0)
    assert weights == sorted(weights, reverse=True)
    # s=0 degenerates to uniform
    assert all(math.isclose(w, 0.1) for w in zipf_weights(10, 0.0))


def test_zipf_chooser_rejects_empty_rank_space():
    # Regression: n=0 used to die with an IndexError inside bisect.
    with pytest.raises(ValueError, match="at least one rank"):
        ZipfChooser(0, 1.1)
    with pytest.raises(ValueError, match="at least one rank"):
        ZipfChooser(-3, 1.0)


def test_zipf_chooser_degenerate_single_rank():
    chooser = ZipfChooser(1, 1.1)
    rng = random.Random(0)
    assert all(chooser.pick(rng) == 0 for _ in range(50))


def test_zipf_chooser_s_zero_is_uniform():
    chooser = ZipfChooser(4, 0.0)
    rng = random.Random(0)
    picks = [chooser.pick(rng) for _ in range(4000)]
    counts = [picks.count(k) for k in range(4)]
    assert all(800 < c < 1200 for c in counts)


def test_zipf_chooser_is_skewed_and_deterministic():
    chooser = ZipfChooser(16, 1.1)
    rng = random.Random(0)
    picks = [chooser.pick(rng) for _ in range(2000)]
    assert all(0 <= p < 16 for p in picks)
    # rank 0 is the hot key: it must dominate the tail ranks
    assert picks.count(0) > 3 * picks.count(8)
    rng2 = random.Random(0)
    assert picks == [chooser.pick(rng2) for _ in range(2000)]


# ---------------------------------------------------------------------------
# arrivals
# ---------------------------------------------------------------------------


def test_poisson_arrivals_are_monotone_and_near_rate():
    config = OpenLoopConfig(transactions=500, arrival_rate=2.0)
    ticks = arrival_ticks(config, random.Random(1))
    assert len(ticks) == 500
    assert all(t >= 1 for t in ticks)
    assert ticks == sorted(ticks)
    # mean offered rate within 25% of the target over 500 arrivals
    rate = len(ticks) / ticks[-1]
    assert 1.5 < rate < 2.5


def test_bursty_arrivals_cluster_in_on_windows():
    config = OpenLoopConfig(
        transactions=400,
        arrival_rate=1.0,
        process="bursty",
        burst_factor=4.0,
        burst_period=64,
    )
    ticks = arrival_ticks(config, random.Random(1))
    assert ticks == sorted(ticks)
    # every arrival lands inside the on-window (first period/factor
    # ticks of each period)
    on = config.burst_period / config.burst_factor
    assert all((t - 1) % config.burst_period < on + 1 for t in ticks)
    # the long-run mean rate is preserved (within 30%)
    rate = len(ticks) / ticks[-1]
    assert 0.7 < rate < 1.3


def test_arrivals_are_deterministic_per_seed():
    config = OpenLoopConfig(transactions=50, arrival_rate=3.0)
    a = arrival_ticks(config, random.Random(9))
    b = arrival_ticks(config, random.Random(9))
    c = arrival_ticks(config, random.Random(10))
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# script generation
# ---------------------------------------------------------------------------


def test_open_loop_scripts_are_deterministic():
    config = OpenLoopConfig(objects=8, shards=2, transactions=30)
    a = open_loop_scripts(config, random.Random(4))
    b = open_loop_scripts(config, random.Random(4))
    assert [(s.name, s.steps, t) for s, t in a] == [
        (s.name, s.steps, t) for s, t in b
    ]


def test_single_shard_scripts_stay_on_their_home_shard():
    config = OpenLoopConfig(objects=16, shards=4, transactions=40)
    for script, _ in open_loop_scripts(config, random.Random(2)):
        home = home_shard(script, config.shards)
        for obj, _inv in script.steps:
            assert shard_of(obj, config.shards) == home


def test_cross_shard_scripts_touch_two_shards():
    config = OpenLoopConfig(
        objects=16, shards=4, transactions=60, cross_shard=1.0
    )
    crossing = 0
    for script, _ in open_loop_scripts(config, random.Random(2)):
        shards = {shard_of(obj, config.shards) for obj, _ in script.steps}
        assert len(shards) <= 2
        crossing += len(shards) == 2
    assert crossing > 30  # cross_shard=1.0: nearly all transactions cross


@pytest.mark.parametrize(
    "config, digest",
    [
        (OpenLoopConfig(adt_kind="bank", objects=64, shards=2, zipf_s=1.1, read_mix=0.9,
                        cross_shard=0.1, transactions=400), "031a817eab1b872d"),
        (OpenLoopConfig(adt_kind="bank", objects=16, shards=4, cross_shard=0.5,
                        read_mix=0.3, transactions=300), "a183f9b5be3fc2e1"),
        (OpenLoopConfig(adt_kind="bank", objects=16, shards=4, cross_shard=0.5,
                        read_mix=0.3, transactions=300, ro_mode="locked"), "9db5881c8efe5c97"),
    ],
    ids=["read-mostly", "four-shards", "locked-readers"],
)
def test_cross_shard_scripts_are_pinned(config, digest):
    """The offered load of a cross-shard config, draw for draw: the
    placement a generator precomputes must not move a script."""
    rows = [
        (s.name, [(obj, str(inv)) for obj, inv in s.steps], s.read_only, tick)
        for s, tick in open_loop_scripts(config, random.Random(7))
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest


# ---------------------------------------------------------------------------
# driving
# ---------------------------------------------------------------------------


def test_drive_commits_the_offered_load_and_measures_latency():
    config = OpenLoopConfig(
        adt_kind="counter", objects=8, shards=2, transactions=24
    )
    trace = TraceCollector()
    report = drive(config, seed=5, trace=trace)
    assert isinstance(report, DriveReport)
    assert report.offered == 24
    assert report.metrics.committed == 24
    assert len(report.latencies) == 24
    assert report.latencies == sorted(report.latencies)
    summary = report.latency_summary()
    assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
    kinds = {e["kind"] for e in trace.events}
    assert "drive-start" in kinds and "drive-end" in kinds
    assert len(report.per_shard) == 2
    assert sum(row["committed"] for row in report.per_shard) == 24
    assert "open-loop drive" in report.format()


def _commits(trace):
    return [e for e in trace.events if e["kind"] in ("txn-commit", "ro-commit")]


def test_drive_latency_counts_from_arrival_not_tick_one():
    # Latency runs from the offered arrival: not from tick one, and not
    # from the restart that began a script's last incarnation (the
    # trace's per-incarnation ``latency`` field).
    config = OpenLoopConfig(
        adt_kind="counter", objects=4, transactions=40, arrival_rate=1.0
    )
    trace = TraceCollector()
    report = drive(config, seed=1, trace=trace)
    arrivals = {s.name: t for s, t in open_loop_scripts(config, random.Random(1))}
    commits = _commits(trace)
    assert len(commits) == report.offered == 40
    restarted = [e for e in commits if e["txn"] != e["script"]]
    assert restarted  # contended: some commits are a later incarnation's
    assert all(e["tick"] - arrivals[e["script"]] > e["latency"] for e in restarted)
    assert report.latencies == sorted(
        e["tick"] - arrivals[e["script"]] for e in commits
    )


def test_untraced_drive_builds_and_emits_no_trace(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("an untraced drive touched a TraceCollector")

    monkeypatch.setattr(TraceCollector, "__init__", boom)
    monkeypatch.setattr(TraceCollector, "emit", boom)
    for config in (
        OpenLoopConfig(adt_kind="counter", objects=8, shards=2,
                       transactions=40, read_mix=0.3),
        OpenLoopConfig(adt_kind="counter", objects=6, transactions=40,
                       sites=3, site_crashes=((1, 8, 20),)),
    ):
        report = drive(config, seed=0, trace=None)
        assert report.latencies and report.metrics.committed > 0


@pytest.mark.parametrize(
    "config",
    [
        OpenLoopConfig(adt_kind="counter", objects=8, shards=2,
                       transactions=60, read_mix=0.3, cross_shard=0.2),
        OpenLoopConfig(adt_kind="counter", objects=6, transactions=60,
                       read_mix=0.2, sites=3, site_crashes=((1, 8, 20),)),
    ],
    ids=["shards2", "sites3-crash"],
)
def test_drive_report_agrees_with_its_trace(config):
    trace = TraceCollector()
    report = drive(config, seed=2, trace=trace)
    rng = random.Random(2)
    scripts = open_loop_scripts(config, rng)
    arrivals = {s.name: t for s, t in scripts}
    if config.sites > 1:
        origin = split_arrivals([t for _, t in scripts], config.sites, rng)
        home = {s.name: site for (s, _), site in zip(scripts, origin)}
        rows, key = report.per_site, "site"
    else:
        home = {s.name: home_shard(s, config.shards) for s, _ in scripts}
        rows, key = report.per_shard, "shard"
    commits = _commits(trace)
    assert report.metrics.restarts > 0
    assert report.latencies == sorted(
        e["tick"] - arrivals[e["script"]] for e in commits
    )
    by_home = Counter(home[e["script"]] for e in commits if e["kind"] == "txn-commit")
    assert {row[key]: row["committed"] for row in rows} == {
        row[key]: by_home[row[key]] for row in rows
    }
    assert sum(by_home.values()) == report.metrics.committed


def test_shard_count_does_not_change_an_open_loop_drive():
    # Dynamic atomicity is local: every object enforces Conflict on its
    # own, so which shard owns an object changes the ``shard`` stamp on
    # its events and nothing that executes.
    runs = []
    for shards in (1, 2, 4):
        config = OpenLoopConfig(
            adt_kind="counter",
            objects=8,
            shards=shards,
            transactions=40,
            arrival_rate=2.0,
            cross_shard=0.0,
            read_mix=0.3,
            group_commit=2,
            hold=2,
        )
        trace = TraceCollector()
        report = drive(config, seed=6, trace=trace)
        assert sum(row["committed"] for row in report.per_shard) == (
            report.metrics.committed
        )
        events = [
            {k: v for k, v in e.items() if k not in ("shard", "shards", "label")}
            for e in trace.events
        ]
        runs.append((report.metrics.counters(), report.latencies, events))
    assert runs[0][0]["deadlocks"] > 0  # contended: not a trivially equal run
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# read-only mix
# ---------------------------------------------------------------------------


def test_read_mix_marks_scripts_read_only_with_observer_steps():
    config = OpenLoopConfig(
        adt_kind="counter", objects=8, transactions=60, read_mix=0.5
    )
    scripts = open_loop_scripts(config, random.Random(3))
    readonly = [s for s, _ in scripts if s.read_only]
    assert 10 < len(readonly) < 50  # ~half, seeded draw
    for script in readonly:
        for _obj, invocation in script.steps:
            assert invocation.name == "read"


def test_locked_baseline_draws_identical_scripts():
    snap = OpenLoopConfig(
        adt_kind="counter", objects=8, transactions=40, read_mix=0.4
    )
    locked = OpenLoopConfig(
        adt_kind="counter",
        objects=8,
        transactions=40,
        read_mix=0.4,
        ro_mode="locked",
    )
    a = open_loop_scripts(snap, random.Random(7))
    b = open_loop_scripts(locked, random.Random(7))
    assert [(s.name, s.steps, t) for s, t in a] == [
        (s.name, s.steps, t) for s, t in b
    ]
    assert any(s.read_only for s, _ in a)
    assert not any(s.read_only for s, _ in b)


def test_read_mix_rejected_for_observerless_adts():
    config = OpenLoopConfig(adt_kind="fifo", objects=4, read_mix=0.5)
    with pytest.raises(ValueError, match="no read-only observer"):
        open_loop_scripts(config, random.Random(0))


def test_drive_with_read_mix_counts_ro_commits_in_latencies():
    config = OpenLoopConfig(
        adt_kind="counter", objects=8, transactions=30, read_mix=0.4
    )
    report = drive(config, seed=4)
    m = report.metrics
    assert m.ro_committed > 0
    assert m.ro_snapshot_reads > 0
    assert m.committed + m.ro_committed == 30
    # Read-only commits show up in the latency population too.
    assert len(report.latencies) == 30
    assert "read-only" in report.format()


# ---------------------------------------------------------------------------
# latency percentiles (nearest-rank pins)
# ---------------------------------------------------------------------------


def _report_with(latencies):
    from repro.runtime.metrics import RunMetrics

    return DriveReport(
        label="pin",
        shards=1,
        offered=len(latencies),
        metrics=RunMetrics(),
        wall_s=1.0,
        latencies=sorted(latencies),
    )


def test_latency_summary_pins_nearest_rank_percentiles():
    # 100 distinct values: the nearest-rank p-th percentile is exactly
    # the p-th smallest value — the off-by-one regression pinned down.
    report = _report_with(list(range(1, 101)))
    summary = report.latency_summary()
    assert summary["p50"] == 50
    assert summary["p95"] == 95
    assert summary["p99"] == 99
    assert summary["max"] == 100


def test_latency_summary_small_populations():
    assert _report_with([7]).latency_summary() == {
        "n": 1, "mean": 7.0, "p50": 7, "p95": 7, "p99": 7, "max": 7,
    }
    summary = _report_with([10, 20, 30, 40]).latency_summary()
    assert summary["p50"] == 20  # rank ceil(0.5 * 4) = 2
    assert summary["p95"] == 40
    empty = _report_with([]).latency_summary()
    assert empty["p50"] == 0 and empty["max"] == 0


# ---------------------------------------------------------------------------
# replication: the sites axis and the Poisson-preserving split
# ---------------------------------------------------------------------------


def test_config_validates_replication_axes():
    for bad in (
        dict(sites=0),
        dict(sites=2, shards=2),
        dict(sites=2, cross_shard=0.5),
        dict(sites=2, site_crashes=((2, 5, 0),)),
        dict(sites=2, site_crashes=((1, 0, 0),)),
        dict(sites=2, site_crashes=((1, 9, 4),)),
        # one site's down-windows overlap: the second failure would be
        # silently skipped (the site is already down)
        dict(sites=2, site_crashes=((1, 5, 20), (1, 10, 30))),
        dict(sites=2, site_crashes=((1, 5, 0), (1, 40, 60))),
    ):
        with pytest.raises(ValueError):
            OpenLoopConfig(**bad)
    # disjoint windows of one site are a legal schedule
    OpenLoopConfig(sites=2, site_crashes=((1, 5, 20), (1, 21, 30)))


def test_replication_label_suffixes_only_when_in_use():
    plain = OpenLoopConfig()
    assert "/x" not in plain.label() and "/sc" not in plain.label()
    replicated = OpenLoopConfig(sites=3, site_crashes=((1, 5, 9),))
    assert replicated.label().endswith("/x3/sc1")


def test_split_arrivals_superposition_is_unchanged():
    from repro.runtime.openloop import split_arrivals

    config = OpenLoopConfig(transactions=500, arrival_rate=2.0)
    rng = random.Random(3)
    arrivals = arrival_ticks(config, rng)
    origin = split_arrivals(arrivals, 4, rng)
    assert len(origin) == len(arrivals)
    assert set(origin) <= set(range(4))
    # thinning relabels arrivals; it never moves, drops, or adds any,
    # so the merged stream is exactly the original target-rate process
    merged = sorted(
        tick for site in range(4)
        for tick, s in zip(arrivals, origin) if s == site
    )
    assert merged == sorted(arrivals)


def test_split_arrivals_substreams_stay_poisson():
    """The pin for the split rule: i.i.d. per-arrival assignment keeps
    each sub-stream Poisson at rate/sites.

    Tested via the gap distribution: sub-stream inter-arrival gaps must
    stay exponential (CV ~ 1), where deterministic round-robin would
    produce Erlang-k gaps (CV ~ 1/sqrt(k), far below 1).
    """
    from repro.runtime.openloop import split_arrivals

    sites = 4
    config = OpenLoopConfig(transactions=8000, arrival_rate=1.0)
    rng = random.Random(7)
    # work in continuous arrival *times*, the underlying process
    times, t = [], 0.0
    for _ in range(config.transactions):
        t += rng.expovariate(config.arrival_rate)
        times.append(t)

    def gap_cv(stream):
        gaps = [b - a for a, b in zip(stream, stream[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        return math.sqrt(var) / mean

    origin = split_arrivals(times, sites, rng)
    for site in range(sites):
        sub = [x for x, s in zip(times, origin) if s == site]
        # rate: each sub-stream carries ~1/sites of the traffic
        assert len(sub) == pytest.approx(len(times) / sites, rel=0.1)
        # exponential gaps: CV ~ 1 (Poisson), not ~ 0.5 (Erlang-4)
        assert gap_cv(sub) == pytest.approx(1.0, abs=0.1)
    # the round-robin strawman fails exactly this pin
    round_robin = [x for i, x in enumerate(times) if i % sites == 0]
    assert gap_cv(round_robin) < 0.7


def test_split_arrivals_rejects_bad_site_count():
    from repro.runtime.openloop import split_arrivals

    with pytest.raises(ValueError, match="sites"):
        split_arrivals([1, 2, 3], 0, random.Random(0))


def test_replicated_drive_reports_per_site_and_availability():
    config = OpenLoopConfig(
        adt_kind="counter",
        objects=6,
        transactions=40,
        arrival_rate=2.0,
        sites=2,
        site_crashes=((1, 8, 20),),
    )
    report = drive(config, seed=0)
    assert report.sites == 2
    assert len(report.per_site) == 2
    assert sum(r["arrivals"] for r in report.per_site) == report.offered
    assert report.per_site[1]["failures"] == 1
    assert 0.0 < report.availability <= 1.0
    assert "availability" in report.format()


def test_fault_free_read_mostly_drive_is_fully_available():
    # Read-only scripts are offered load too: counting only update
    # commits made a fault-free 90%-reader drive look like an outage.
    report = drive(
        OpenLoopConfig(
            adt_kind="counter", objects=8, transactions=60,
            arrival_rate=1.0, read_mix=0.9, sites=2,
        ),
        seed=0,
    )
    assert report.metrics.ro_committed > report.metrics.committed > 0
    assert report.availability == 1.0
    assert "availability         : 1.000 (60/60 offered committed)" in (
        report.format()
    )


def test_replicated_drive_availability_beats_single_site_outage():
    # EXP-C17 in miniature: a site lost for good.  With a second copy
    # the service keeps committing; the single site alone cannot.
    base = dict(
        adt_kind="counter", objects=6, transactions=40, arrival_rate=2.0
    )
    replicated = drive(
        OpenLoopConfig(sites=2, site_crashes=((1, 8, 0),), **base), seed=0
    )
    alone = drive(
        OpenLoopConfig(sites=1, site_crashes=((0, 8, 0),), **base), seed=0
    )
    assert replicated.availability > alone.availability
