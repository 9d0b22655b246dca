"""The open-loop traffic driver: heavy traffic as a measured scenario.

The EXP-C workloads so far are *closed-loop*: a fixed population of
scripts, each re-entering the system the moment its predecessor
finishes.  Closed loops self-throttle — blocked transactions stop
generating load — so they cannot show what happens when traffic keeps
arriving regardless of how the system is doing, which is exactly the
"millions of users" regime the roadmap asks to make measurable.  This
module drives the sharded runtime (:mod:`repro.runtime.sharding`) with
an **open-loop** arrival process:

* **arrivals** — transactions enter at ticks drawn from a Poisson
  process at ``arrival_rate`` transactions/tick, or from a *bursty*
  on/off modulation of the same mean rate (all traffic compressed into
  a ``1/burst_factor`` duty cycle of each ``burst_period``), never
  gated on completions;
* **hot keys** — each transaction's object is drawn from a zipfian
  distribution with exponent ``zipf_s`` over the key space, so a few
  objects absorb most of the traffic (the paper's hot-spot motivation,
  Section 1);
* **placement** — objects are hash-partitioned over ``shards`` (see
  :func:`~repro.runtime.sharding.shard_of`); a ``cross_shard`` fraction
  of transactions touch a second object in a different shard and commit
  through the durable-prepare/commit-record 2PC pipeline;
* **measurement** — commit latency percentiles (p50/p95/p99, in ticks
  from the offered arrival to the commit the scheduler reports, across
  every restart), committed/ticks throughput, wall-clock throughput,
  and per-shard traffic breakdowns.  Nothing is read back from a
  trace: an untraced drive builds no collector and emits nothing.

A drive holds what is live.  The arrival ticks are drawn up front (one
``int`` each), but each script is built from the seeded generator only
when the scheduler pulls it on its arrival tick, and dropped when it
finishes; the report is built from per-arrival columns (tick, home,
read-only flag, commit tick).  The draws come in the same order as
:func:`open_loop_scripts`, which builds the whole load as a list, so a
streamed drive runs the very same scripts.

One scheduler drives every shard, so the shard count changes what a
shard *owns* (its objects, its share of the operations and log forces)
and nothing that executes: counters, ticks and latencies are equal at
every ``shards`` when ``cross_shard`` is 0 (EXP-C15).

CLI: ``repro drive --shards N --arrival-rate R --zipf S``.
"""

from __future__ import annotations

import bisect
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .durability import site_faults, validate_site_crashes
from .metrics import RunMetrics
from .replication import ReplicatedSystem
from .scheduler import TransactionScript
from .sharding import ShardedSystem, shard_of
from .spec import SystemSpec, at_least, fraction
from .trace import PERCENTILES, TraceCollector, _percentile

__all__ = [
    "OpenLoopConfig",
    "DriveReport",
    "drive",
    "split_arrivals",
    "PERCENTILES",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenLoopConfig(SystemSpec):
    """One open-loop scenario: a :class:`~repro.runtime.spec.SystemSpec`
    and its traffic (plain values only)."""

    adt_kind: str = "counter"
    objects: int = 16  # key-space size (one ADT object per key)
    shards: int = 1
    transactions: int = 128  # total arrivals offered
    ops_per_txn: int = 3
    arrival_rate: float = 2.0  # mean transaction arrivals per tick
    process: str = "poisson"  # "poisson" | "bursty"
    burst_factor: float = 4.0  # bursty: peak rate multiple (duty 1/factor)
    burst_period: int = 64  # bursty: on/off cycle length in ticks
    zipf_s: float = 1.1  # hot-key skew exponent (0 = uniform)
    cross_shard: float = 0.0  # fraction of two-object cross-shard txns
    read_mix: float = 0.0  # fraction of arrivals that are read-only
    ro_mode: str = "snapshot"  # "snapshot" (lock-free) | "locked" baseline
    hold: int = 4
    max_ticks: int = 200_000
    #: ``(site, fail_tick, recover_tick)`` rows; ``recover_tick == 0``
    #: keeps the site down until the run drains.  Any row (or
    #: ``sites > 1``) drives the replicated system instead of the
    #: sharded one.
    site_crashes: Tuple[Tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        for name, floor in (("objects", 1), ("shards", 1), ("transactions", 1),
                            ("ops_per_txn", 1), ("burst_factor", 1),
                            ("burst_period", 2), ("zipf_s", 0)):
            at_least(self, name, floor)
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be > 0 (got %g)" % self.arrival_rate)
        if self.process not in ("poisson", "bursty"):
            raise ValueError(
                "process must be 'poisson' or 'bursty', not %r" % self.process
            )
        fraction(self, "cross_shard")
        fraction(self, "read_mix")
        if self.ro_mode not in ("snapshot", "locked"):
            raise ValueError(
                "ro_mode must be 'snapshot' or 'locked', not %r" % self.ro_mode
            )
        if self.sites > 1 and self.shards != 1:
            raise ValueError(
                "sites > 1 replicates every object and shards > 1 partitions "
                "them: pick one axis"
            )
        if self.sites > 1 and self.cross_shard > 0:
            raise ValueError("cross_shard needs shards > 1, not sites > 1")
        validate_site_crashes(self.site_crashes, self.sites)

    def label(self) -> str:
        base = "drive/%s/%s/s%d/r%g/z%g" % (
            self.adt_kind,
            self.process,
            self.shards,
            self.arrival_rate,
            self.zipf_s,
        )
        # The suffix appears only for RO-mix scenarios so every existing
        # label (and the BENCH equality fields keyed on it) is unchanged.
        if self.read_mix > 0:
            base += "/ro%g" % self.read_mix
            if self.ro_mode != "snapshot":
                base += "-" + self.ro_mode
        # Replication suffixes likewise appear only when the axis is in
        # use, so pre-replication labels stay byte-stable.
        if self.sites > 1:
            base += "/x%d" % self.sites
        if self.site_crashes:
            base += "/sc%d" % len(self.site_crashes)
        return base

    def object_names(self) -> List[str]:
        """The key space: ``K00`` .. ``K<objects-1>``, zero-padded."""
        width = max(2, len(str(self.objects - 1)))
        return ["K%0*d" % (width, i) for i in range(self.objects)]


# ---------------------------------------------------------------------------
# zipfian hot keys
# ---------------------------------------------------------------------------


def zipf_weights(n: int, s: float) -> List[float]:
    """Normalized zipfian weights: ``w_k ∝ 1/(k+1)^s`` for ranks 0..n-1."""
    raw = [1.0 / ((k + 1) ** s) for k in range(n)]
    total = sum(raw)
    return [w / total for w in raw]


class ZipfChooser:
    """Seeded zipfian sampling over ``n`` ranks via inverse-CDF bisect."""

    def __init__(self, n: int, s: float) -> None:
        if n < 1:
            raise ValueError(
                "ZipfChooser needs at least one rank (got n=%d)" % n
            )
        self._cdf: List[float] = []
        acc = 0.0
        for w in zipf_weights(n, s):
            acc += w
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard float drift

    def pick(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random())


# ---------------------------------------------------------------------------
# arrivals
# ---------------------------------------------------------------------------


def arrival_ticks(config: OpenLoopConfig, rng: random.Random) -> List[int]:
    """One arrival tick per transaction, non-decreasing, first tick >= 1.

    Poisson: exponential inter-arrival gaps at ``arrival_rate``.  Bursty:
    the same Poisson process runs at ``arrival_rate * burst_factor`` but
    only during the first ``burst_period / burst_factor`` ticks of each
    period (the *on* window), so the long-run mean stays
    ``arrival_rate`` while queues build at every burst.
    """
    if config.process == "poisson":
        t = 0.0
        out = []
        for _ in range(config.transactions):
            t += rng.expovariate(config.arrival_rate)
            out.append(int(t) + 1)
        return out
    # bursty: draw in "active time" (on-window ticks only), then map
    # active time back onto the wall clock period by period.
    on = max(1.0, config.burst_period / config.burst_factor)
    peak = config.arrival_rate * config.burst_factor
    active = 0.0
    out = []
    for _ in range(config.transactions):
        active += rng.expovariate(peak)
        periods = int(active // on)
        out.append(int(periods * config.burst_period + (active % on)) + 1)
    return out


def split_arrivals(
    arrivals: Sequence[int], sites: int, rng: random.Random
) -> List[int]:
    """Assign each arrival an origin site by an independent uniform draw.

    This is Poisson **thinning**: partitioning a Poisson process with
    i.i.d. per-arrival coin flips yields independent Poisson sub-streams
    at rate ``arrival_rate / sites`` each, and their superposition is
    the original process at the full target rate.  The tempting
    alternatives both distort the offered load: generating an
    independent per-site stream at the full rate multiplies the total
    by ``sites``, and deterministic round-robin assignment produces
    sub-streams with Erlang (shape ``sites``) inter-arrival gaps, not
    exponential ones.  Object choice (the zipfian hot-key draw) stays
    in the *global* script stream, untouched by the split — every site
    sees the same hot keys, which is the replicated hot-spot scenario,
    not ``sites`` disjoint key spaces.
    """
    if sites < 1:
        raise ValueError("sites must be >= 1 (got %d)" % sites)
    return [rng.randrange(sites) for _ in arrivals]


# ---------------------------------------------------------------------------
# script generation
# ---------------------------------------------------------------------------


def open_loop_scripts(
    config: OpenLoopConfig, rng: random.Random
) -> List[Tuple[TransactionScript, int]]:
    """The full offered load: ``(script, arrival_tick)`` per transaction.

    Deterministic from ``(config, rng state)``: the stream of
    :func:`open_loop_stream`, drained into a list.
    """
    _, stream = open_loop_stream(config, rng)
    return list(stream)


def open_loop_stream(
    config: OpenLoopConfig, rng: random.Random
) -> Tuple[List[int], Iterator[Tuple[TransactionScript, int]]]:
    """The offered load as a stream: the arrival ticks, drawn from
    ``rng`` now, and an iterator of ``(script, arrival_tick)`` pairs
    that draws each script from ``rng`` only when it is pulled.

    Nothing else may draw from ``rng`` until the stream is drained.
    """
    from ..adts.registry import make_adt

    names = config.object_names()
    adt = make_adt(config.adt_kind)
    alphabet = list(adt.invocation_alphabet())
    observers = list(adt.readonly_invocations())
    if config.read_mix > 0 and not observers:
        raise ValueError(
            "adt %r has no read-only observer invocations; "
            "read_mix > 0 is unsupported for it" % config.adt_kind
        )
    chooser = ZipfChooser(config.objects, config.zipf_s)
    arrivals = arrival_ticks(config, rng)
    # A cross-shard transaction's second object is drawn from the names
    # in a *different* shard than its home, when one exists.
    shard = {n: shard_of(n, config.shards) for n in names}
    others = (
        {s: [n for n in names if shard[n] != s] for s in set(shard.values())}
        if config.cross_shard > 0
        else {}
    )

    def stream() -> Iterator[Tuple[TransactionScript, int]]:
        for t, arrival in enumerate(arrivals):
            readonly = config.read_mix > 0 and rng.random() < config.read_mix
            home = names[chooser.pick(rng)]
            second: Optional[str] = None
            if config.cross_shard > 0 and rng.random() < config.cross_shard:
                away = others[shard[home]]
                if away:
                    second = away[chooser.pick(rng) % len(away)]
            steps = []
            for i in range(config.ops_per_txn):
                obj = home
                if second is not None and i >= (config.ops_per_txn + 1) // 2:
                    obj = second
                pool = observers if readonly else alphabet
                steps.append((obj, rng.choice(pool)))
            # ``ro_mode == "locked"`` is the baseline: the *same* observer
            # scripts (identical rng draws) run through the ordinary
            # locked read path instead of the multiversion snapshot path.
            yield TransactionScript(
                "T%d" % t, steps,
                read_only=readonly and config.ro_mode == "snapshot",
            ), arrival

    return arrivals, stream()


def home_shard(script: TransactionScript, shards: int) -> int:
    """The shard owning a script's first-step object."""
    return shard_of(script.steps[0][0], shards)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


@dataclass
class DriveReport:
    """Outcome of one open-loop drive."""

    label: str
    shards: int
    offered: int
    metrics: RunMetrics
    wall_s: float
    #: commit latencies in ticks (arrival -> commit), sorted.
    latencies: List[int] = field(default_factory=list)
    per_shard: List[Dict[str, int]] = field(default_factory=list)
    #: replication width (1 = the sharded runtime, no copies).
    sites: int = 1
    #: replicated drives: per-site origin traffic and fault counters.
    per_site: List[Dict[str, int]] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Fraction of the offered load — update and read-only
        transactions alike — that committed: the EXP-C17 service metric
        under site-crash schedules."""
        done = self.metrics.committed + self.metrics.ro_committed
        return done / self.offered if self.offered else 0.0

    @property
    def committed_per_s(self) -> float:
        return self.metrics.committed / self.wall_s if self.wall_s > 0 else 0.0

    def percentile(self, q: float) -> int:
        return _percentile(self.latencies, q)

    def latency_summary(self) -> Dict[str, float]:
        lat = self.latencies
        summary: Dict[str, float] = {
            "n": len(lat),
            "mean": (sum(lat) / len(lat)) if lat else 0.0,
        }
        for q in PERCENTILES:
            summary["p%d" % round(q * 100)] = self.percentile(q)
        summary["max"] = lat[-1] if lat else 0
        return summary

    def format(self) -> str:
        m = self.metrics
        lat = self.latency_summary()
        lines = [
            "open-loop drive      : %s" % self.label,
            "offered              : %d transactions (%d shards)"
            % (self.offered, self.shards),
            "committed            : %d (aborted %d, deadlocks %d, restarts %d)"
            % (m.committed, m.aborted, m.deadlocks, m.restarts),
            "ticks                : %d (throughput %.4f committed/tick)"
            % (m.ticks, m.throughput),
            "wall clock           : %.3fs (%.1f committed/s)"
            % (self.wall_s, self.committed_per_s),
            "commit latency ticks : n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d"
            % (lat["n"], lat["mean"], lat["p50"], lat["p95"], lat["p99"], lat["max"]),
        ]
        if m.ro_committed or m.ro_aborts:
            lines.append(
                "read-only            : %d committed (%d snapshot reads), "
                "%d aborted" % (m.ro_committed, m.ro_snapshot_reads, m.ro_aborts)
            )
        for row in self.per_shard:
            lines.append(
                "  shard %-2d           : %4d committed, %4d ops, %3d objects, "
                "%d forces"
                % (
                    row["shard"],
                    row["committed"],
                    row["operations"],
                    row["objects"],
                    row.get("forces", 0),
                )
            )
        if self.per_site:
            lines.append(
                "availability         : %.3f (%d/%d offered committed)"
                % (self.availability, m.committed + m.ro_committed, self.offered)
            )
            for row in self.per_site:
                lines.append(
                    "  site %-3d           : %4d arrivals, %4d committed, "
                    "%d failures, %d requalified, %d forces"
                    % (
                        row["site"],
                        row["arrivals"],
                        row["committed"],
                        row["failures"],
                        row["requalified"],
                        row.get("forces", 0),
                    )
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# driving
# ---------------------------------------------------------------------------


def drive(
    config: OpenLoopConfig,
    *,
    seed: int = 0,
    trace: Optional[TraceCollector] = None,
) -> DriveReport:
    """Run one open-loop scenario and measure it: one scheduler over a
    :class:`ShardedSystem` holding every shard (cross-shard traffic
    allowed) — or, with ``sites > 1`` or a site-crash schedule, over a
    :class:`~repro.runtime.replication.ReplicatedSystem` whose sites
    fail and recover from the tick schedule.

    A replicated drive sees the same global arrival stream as the
    single-site drive (identical rng draws), *thinned* over the sites —
    see :func:`split_arrivals` for why that is the only split that
    keeps the offered process Poisson at the target rate — and its
    report's ``availability`` is the committed fraction of the offered
    load through the site-crash schedule.

    The scheduler pulls each script from :func:`open_loop_stream` on
    its arrival tick, and keeps it until it finishes.  The report comes
    from per-arrival columns in stream order — the arrival ticks, each
    script's home and read-only flag (noted as it is pulled), and
    :meth:`Scheduler.commit_ticks` — never from a trace: a latency is
    commit tick − offered arrival, across restarts, and a shard's
    ``committed`` counts update scripts by home shard.  A replicated
    drive draws its homes once the stream has drained, where the whole
    load was drawn before it.  ``trace=None`` builds no collector and
    emits nothing; a passed collector also gets ``drive-start`` /
    ``drive-end``.

    Nothing audits a drive, so its system is built with
    ``history=False``: it keeps the live transactions' state and the
    committed state, not the event history, and the same scripts run
    the same either way.
    """
    rng = random.Random(seed)
    arrivals, stream = open_loop_stream(config, rng)
    replicated = config.sites > 1 or bool(config.site_crashes)
    system = config.build_system(
        config.object_names(), shards=config.shards, replicated=replicated, history=False
    )
    shards = 1 if replicated else config.shards
    # The columns noted as each script is pulled, in stream order.
    homes: List[int] = []
    read_only = bytearray()
    ops_by_shard: Counter = Counter()

    def noted(stream: Iterator[Tuple[TransactionScript, int]]):
        for script, tick in stream:
            read_only.append(script.read_only)
            if not replicated:
                homes.append(home_shard(script, config.shards))
                ops_by_shard.update(
                    shard_of(obj, config.shards) for obj, _ in script.steps
                )
            yield script, tick

    if trace is not None:
        trace.emit("drive-start", config.label(), shards, config.arrival_rate)
    start = time.perf_counter()
    scheduler = config.scheduler(
        system, seed=seed, faults=site_faults(config.site_crashes), trace=trace,
        arrivals=noted(stream), last_arrival=max(arrivals),
    )
    metrics = scheduler.run()
    wall = time.perf_counter() - start
    if replicated:
        homes = split_arrivals(arrivals, config.sites, rng)
    # Latency counts from the offered arrival, across every restart;
    # ``committed`` counts update scripts by their home shard or site.
    commit_ticks = scheduler.commit_ticks()
    latencies = sorted(
        tick - arrival
        for tick, arrival in zip(commit_ticks, arrivals)
        if tick is not None
    )
    committed = Counter(
        home
        for tick, home, ro in zip(commit_ticks, homes, read_only)
        if tick is not None and not ro
    )
    report = DriveReport(
        label=config.label(),
        shards=shards,
        offered=len(arrivals),
        metrics=metrics,
        wall_s=wall,
        latencies=latencies,
        per_shard=[] if replicated else _per_shard_rows(
            system, ops_by_shard, committed
        ),
        sites=config.sites,
        per_site=_per_site_rows(system, homes, committed) if replicated else [],
    )
    if trace is not None:
        lat = report.latency_summary()
        trace.emit(
            "drive-end",
            config.label(),
            metrics.committed,
            lat["p50"],
            lat["p95"],
            lat["p99"],
        )
    return report


def _per_shard_rows(
    system: ShardedSystem,
    ops_by_shard: Dict[int, int],
    committed_by_shard: Dict[int, int],
) -> List[Dict[str, int]]:
    rows = []
    for acc in system.force_accounting_by_shard():
        k = acc["shard"]
        rows.append(
            {
                "shard": k,
                "objects": len(system.domain_objects(k)),
                "committed": committed_by_shard.get(k, 0),
                "operations": ops_by_shard.get(k, 0),
                "forces": acc["forces"],
            }
        )
    return rows


def _per_site_rows(
    system: ReplicatedSystem,
    origin: Sequence[int],
    committed_by_site: Dict[int, int],
) -> List[Dict[str, int]]:
    arrivals_by_site: Dict[int, int] = {}
    for site in origin:
        arrivals_by_site[site] = arrivals_by_site.get(site, 0) + 1
    return [
        {
            "site": acc["site"],
            "arrivals": arrivals_by_site.get(acc["site"], 0),
            "committed": committed_by_site.get(acc["site"], 0),
            "failures": system.domain_failures[acc["site"]],
            "requalified": system.requalifications[acc["site"]],
            "forces": acc["forces"],
        }
        for acc in system.force_accounting_by_domain()
    ]
