"""The six workloads and the one table their sizes live in.

Each workload splits a repeat into ``setup`` (untimed: input generation
and a warm-up build, so lazy imports are done), ``run`` (the calls into
the product; returns the host seconds they took) and ``outcome``
(untimed: correctness checks, counters and tick-space metrics).  The product receives only the generated
inputs; ``--seed`` is all that varies them.

Sizes were tuned so that one repeat takes 3.5 to 4 s at the commit that
added the benchmark, then frozen.  There is no size flag.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.adts.registry import make_adt
from repro.experiments.comparisons import (
    comparison_case,
    run_configuration,
    standard_configurations,
)
from repro.runtime.openloop import OpenLoopConfig, drive, open_loop_scripts
from repro.runtime.replication import build_replicated_system
from repro.runtime.sharding import build_sharded_system, shard_of
from repro.runtime.torture import configs_for, run_torture, workload_for
from repro.runtime.trace import TraceCollector, reconcile

from metrics import tick_metrics


def sub_seeds(seed: int, n: int) -> List[int]:
    """``n`` seeds derived from ``--seed``; the first is the seed itself."""
    return [seed + 1000 * i for i in range(n)]


@dataclass
class Outcome:
    """What one repeat found, besides its host times."""

    offered: int
    done: int  # committed update + read-only transactions
    failed: int
    #: exact-repeat surface: every repeat of a seed must give the same.
    counters: Dict[str, int]
    #: tick-space end-to-end metrics that apply to the workload.
    tick: Dict[str, float]
    #: per-layer counts that come from reports, not from spans.
    counts: Dict[str, float] = field(default_factory=dict)
    #: failed correctness checks, one line each.
    problems: List[str] = field(default_factory=list)


def _sum_counters(all_metrics) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for metrics in all_metrics:
        for name, value in metrics.counters().items():
            total[name] = total.get(name, 0) + value
    return total


# ---------------------------------------------------------------------------
# open-loop drives
# ---------------------------------------------------------------------------


class OpenLoop:
    """``drives`` open-loop drives of one config, on derived seeds."""

    def __init__(
        self,
        config: OpenLoopConfig,
        *,
        drives: int = 1,
        max_abort_per_commit: Optional[float] = None,
        min_abort_per_commit: Optional[float] = None,
    ) -> None:
        self.config = config
        self.drives = drives
        #: the regime the workload was chosen for (see README.md): a
        #: seed that leaves it means the rate must move, not the seed.
        self.max_abort_per_commit = max_abort_per_commit
        self.min_abort_per_commit = min_abort_per_commit

    def setup(self, seed: int) -> None:
        config = self.config
        self.seeds = sub_seeds(seed, self.drives)
        #: per drive: script name -> offered arrival tick.
        self.arrivals = []
        self.cross_shard = 0
        for drive_seed in self.seeds:
            scripts = open_loop_scripts(config, random.Random(drive_seed))
            self.arrivals.append({s.name: tick for s, tick in scripts})
            self.cross_shard += sum(
                len({shard_of(obj, config.shards) for obj, _ in s.steps}) > 1
                for s, _ in scripts
            )
        names = config.object_names()
        knobs = dict(
            recovery=config.recovery,
            group_commit=config.group_commit,
            hold=config.hold,
        )
        if config.sites > 1:
            build_replicated_system(config.adt_kind, names, sites=config.sites, **knobs)
        else:
            build_sharded_system(config.adt_kind, names, shards=config.shards, **knobs)

    def run(self) -> float:
        self.digests = []
        timed = 0.0
        for drive_seed, arrivals in zip(self.seeds, self.arrivals):
            collector = TraceCollector()
            start = time.perf_counter()
            report = drive(self.config, seed=drive_seed, trace=collector)
            timed += time.perf_counter() - start
            # Each trace is digested and dropped between the timed
            # calls: all of them kept alive would make peak RSS a
            # property of the benchmark, not of the product.
            self.digests.append(_digest(drive_seed, arrivals, collector.events, report))
        return timed

    def outcome(self) -> Outcome:
        digests = self.digests
        offered = sum(d.report.offered for d in digests)
        done = sum(len(d.commit_ticks) for d in digests)
        problems = [p for d in digests for p in d.problems]
        counters = _sum_counters(d.report.metrics for d in digests)
        tick = tick_metrics(
            offered=offered, failed=offered - done, done=done, counters=counters,
            latencies=[lat for d in digests for lat in d.latencies], durable=True,
        )
        ratio = tick.get("abort_per_commit", 0.0)
        if self.max_abort_per_commit is not None and not (
            ratio < self.max_abort_per_commit and done == offered
        ):
            problems.append(
                "left the healthy regime: abort_per_commit %.3f, %d of %d committed"
                % (ratio, done, offered)
            )
        if self.min_abort_per_commit is not None and not ratio > self.min_abort_per_commit:
            problems.append(
                "left the contended regime: abort_per_commit %.3f" % ratio
            )
        counts: Dict[str, float] = {"openloop.offered": offered}
        if self.config.shards > 1:
            counts["sharding.cross_shard_txns"] = self.cross_shard
        if self.config.sites > 1:
            rows = [row for d in digests for row in d.report.per_site]
            counts["replication.site_failures"] = sum(r["failures"] for r in rows)
            counts["replication.requalified"] = sum(r["requalified"] for r in rows)
        return Outcome(offered, done, offered - done, counters, tick, counts, problems)


@dataclass
class _Digest:
    """What is kept of one drive once its trace is dropped."""

    report: object  # DriveReport
    commit_ticks: Dict[str, int]  # script name -> tick its commit was acknowledged
    latencies: List[int]
    problems: List[str]


def _digest(drive_seed: int, arrivals: Dict[str, int], events, report) -> _Digest:
    """Check one drive's trace and take the latencies from it.

    Latency runs from the *offered* arrival tick; the product's own
    ``latency`` field restarts its clock at every restart.  A commit
    that in-doubt resolution completed at a site failure has no
    ``txn-commit`` event and is not in ``RunMetrics.committed``
    (README.md, known product gaps); the ``resolved`` list of the
    failure event is where it shows.
    """
    commit_ticks: Dict[str, int] = {}
    resolved = 0
    for event in events:
        kind = event["kind"]
        if kind in ("txn-commit", "ro-commit"):
            commit_ticks[event["script"]] = event["tick"]
        elif kind in ("site-failure", "crash"):
            for txn in event["resolved"]:
                commit_ticks[txn.split("~")[0]] = event["tick"]
                resolved += 1
    problems = []
    metrics = report.metrics
    never = len(arrivals) - len(commit_ticks)
    if report.offered != metrics.committed + metrics.ro_committed + resolved + never:
        problems.append(
            "seed %d: offered %d != committed %d + ro_committed %d + resolved %d + failed %d"
            % (drive_seed, report.offered, metrics.committed, metrics.ro_committed,
               resolved, never)
        )
    results = reconcile(events)
    if not results or not all(r.ok for r in results):
        problems.append("seed %d: trace does not reconcile" % drive_seed)
    latencies = [tick - arrivals[script] for script, tick in commit_ticks.items()]
    return _Digest(report, commit_ticks, latencies, problems)


# ---------------------------------------------------------------------------
# the paper's comparison sweep
# ---------------------------------------------------------------------------


class PaperCompare:
    """``comparison_case`` x ``standard_configurations()`` x derived seeds."""

    def __init__(self, cases: Sequence[str], *, transactions: int, ops_per_txn: int,
                 seeds: int) -> None:
        self.case_names = cases
        self.transactions = transactions
        self.ops_per_txn = ops_per_txn
        self.n_seeds = seeds

    def setup(self, seed: int) -> None:
        self.seeds = sub_seeds(seed, self.n_seeds)
        self.configurations = standard_configurations()
        self.cases = [
            comparison_case(name, transactions=self.transactions,
                            ops_per_txn=self.ops_per_txn)
            for name in self.case_names
        ]
        self.offered = len(self.configurations) * sum(
            len(workload(random.Random(s))) for _, workload in self.cases for s in self.seeds
        )

    def run(self) -> float:
        start = time.perf_counter()
        self.runs = [
            metrics
            for adt_factory, workload in self.cases
            for configuration in self.configurations
            for metrics in run_configuration(
                configuration, adt_factory, workload, seeds=self.seeds
            )
        ]
        return time.perf_counter() - start

    def outcome(self) -> Outcome:
        counters = _sum_counters(self.runs)
        done = counters["committed"] + counters["ro_committed"]
        tick = tick_metrics(
            offered=self.offered, failed=self.offered - done, done=done,
            counters=counters, latencies=None, durable=False,
        )
        return Outcome(
            self.offered, done, self.offered - done, counters, tick,
            {"experiments.runs": len(self.runs)},
        )


# ---------------------------------------------------------------------------
# crash torture
# ---------------------------------------------------------------------------


class CrashTorture:
    """``run_torture`` over an ADT x recovery x restart-policy matrix."""

    #: schedules of the planted-bug run that must be caught.
    CONTROL_SCHEDULES = 10

    def __init__(self, adt_kinds: Sequence[str], *, schedules: int, **knobs) -> None:
        self.adt_kinds = adt_kinds
        self.schedules = schedules
        self.knobs = knobs

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.configs = configs_for(self.adt_kinds, **self.knobs)
        #: update scripts per schedule of each config (readers ride along
        #: but ``TortureReport.committed`` does not count them).
        self.updates = [
            sum(
                not script.read_only
                for script in workload_for(c, make_adt(c.adt_kind), random.Random(seed))
            )
            for c in self.configs
        ]

    def run(self) -> float:
        start = time.perf_counter()
        self.report = run_torture(self.configs, schedules=self.schedules, seed=self.seed)
        return time.perf_counter() - start

    def outcome(self) -> Outcome:
        report = self.report
        problems = [v.format() for v in report.violations]
        problems.extend("failed cell: " + entry for entry in report.failed)
        control = run_torture(
            configs_for(self.adt_kinds, bug="skip-commit-force", **self.knobs),
            schedules=self.CONTROL_SCHEDULES,
            seed=self.seed,
        )
        if not control.violations:
            problems.append("negative control (skip-commit-force) was not detected")
        n = len(self.configs)
        offered = sum(self.updates[i % n] for i in range(self.schedules))
        # A transaction counts as failed when its schedule broke an
        # invariant or never ran.  ``offered - report.committed`` is not
        # a failure count: the report leaves out commits that crash-time
        # in-doubt resolution completed (README.md, known product gaps).
        broken = {(v.config, v.schedule) for v in report.violations}
        failed = min(offered, (len(broken) + len(report.failed)) * max(self.updates))
        counters = {
            "schedules": report.schedules,
            "crashes": report.crashes,
            "committed": report.committed,
            "faults_fired": report.faults_fired,
        }
        counters.update(vars(report.counters))
        tick = tick_metrics(
            offered=offered, failed=failed, done=report.committed,
            counters=None, latencies=None, durable=True,
        )
        counts = {
            "torture.schedules": report.schedules,
            "torture.faults_fired": report.faults_fired,
        }
        return Outcome(offered, report.committed, failed, counters, tick, counts, problems)


# ---------------------------------------------------------------------------
# the size table
# ---------------------------------------------------------------------------

#: The hot-spot shape four workloads share: 64 bank accounts over two
#: shards, zipfian keys, group commit of 4 held up to 4 ticks, a fifth
#: of the arrivals read-only, a tenth cross-shard.
_HOTSPOT = dict(
    adt_kind="bank", recovery="DU", objects=64, shards=2, zipf_s=1.1,
    group_commit=4, hold=4, read_mix=0.2, cross_shard=0.1,
)

#: name -> the workload at its frozen size.  ``BENCHMARK.json`` holds
#: the one-line reason for each; README.md the longer one.
WORKLOADS = {
    # Closed loop, one volatile object, no log: the paper's own experiment.
    "paper_compare": PaperCompare(
        ("hotspot", "escrow", "set", "semiqueue", "fifo"),
        transactions=32, ops_per_txn=3, seeds=10,
    ),
    # 0.12 txn/tick is about 60% of the 0.2 txn/tick knee.
    "steady_hotspot": OpenLoop(
        OpenLoopConfig(**_HOTSPOT, transactions=2000, arrival_rate=0.12),
        max_abort_per_commit=0.05,
    ),
    # One long drive past the knee collapses at a seed-dependent tick and
    # its host time varies tenfold between seeds; 25 flash crowds of 56
    # arrivals on 8 hot objects reach the same code and repeat within 6%.
    "overload_uip": OpenLoop(
        OpenLoopConfig(**dict(_HOTSPOT, recovery="UIP", objects=8),
                       transactions=56, arrival_rate=4.0),
        drives=25,
        min_abort_per_commit=0.5,
    ),
    "read_mostly": OpenLoop(
        OpenLoopConfig(**dict(_HOTSPOT, read_mix=0.9),
                       transactions=3600, arrival_rate=0.4),
    ),
    # ``counter`` is left out: about one of its schedules in 400 spends
    # 0.4 to 3.4 s in the dynamic-atomicity audit (median 5 ms), which
    # alone moved a repeat between 4.4 and 9.7 s from seed to seed.
    "crash_torture": CrashTorture(
        ("bank", "escrow", "kv", "set"),
        schedules=750, transactions=8, ops_per_txn=3, group_commit=4, hold=2,
        checkpoint_every=5, read_mix=0.25,
    ),
    "replicated_failover": OpenLoop(
        OpenLoopConfig(
            adt_kind="counter", objects=32, transactions=2000, arrival_rate=0.12,
            zipf_s=1.1, group_commit=4, read_mix=0.2, sites=3,
            site_crashes=((1, 2000, 6000), (2, 8000, 9000)),
        ),
    ),
}
