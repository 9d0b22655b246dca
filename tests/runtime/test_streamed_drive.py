"""A drive streams its arrivals and holds only what is live.

The scheduler pulls each script from the offered stream on its arrival
tick and drops its entry when it finishes, and ``drive`` builds its
report from per-arrival columns.  Pinned here against a reference that
builds the whole offered load before tick 1, hands every script to the
scheduler at once and keys its report by script name: the reports and
the traces are the same.  Also: a finished script is unreachable while
the run goes on, a script name is used once per run under a stream, and
the non-convergence report says what is still to arrive.
"""

import gc
import hashlib
import random
import weakref
from collections import Counter

import pytest

from repro.adts import BankAccount
from repro.core.events import inv
from repro.runtime import ManagedObject, TransactionSystem
from repro.runtime.durability import site_faults
from repro.runtime.openloop import (
    OpenLoopConfig,
    drive,
    home_shard,
    open_loop_scripts,
    open_loop_stream,
    split_arrivals,
)
from repro.runtime.replication import build_replicated_system
from repro.runtime.scheduler import Scheduler, TransactionScript
from repro.runtime.sharding import build_sharded_system, shard_of
from repro.runtime.trace import TraceCollector

from ..drive_harness import drive_scheduler

CONFIGS = {
    "sharded-cross-shard": OpenLoopConfig(
        adt_kind="bank", recovery="DU", objects=16, shards=2, transactions=240,
        arrival_rate=0.5, zipf_s=1.1, cross_shard=0.2, group_commit=4, hold=4,
    ),
    "replicated-site-crash": OpenLoopConfig(
        adt_kind="counter", objects=8, transactions=200, arrival_rate=0.5,
        sites=3, site_crashes=((1, 60, 220),), group_commit=4, hold=3,
    ),
    "read-mix": OpenLoopConfig(
        adt_kind="counter", objects=16, transactions=240, arrival_rate=1.0,
        read_mix=0.5, group_commit=2, hold=2,
    ),
    "bursty": OpenLoopConfig(
        adt_kind="bank", recovery="UIP", objects=16, shards=2, transactions=240,
        arrival_rate=0.5, process="bursty", burst_factor=4.0, burst_period=32,
    ),
}


def reference_drive(config, seed, trace):
    """``drive`` with the whole offered load built before tick 1, every
    script admitted from one materialised list, and the report keyed by
    script name, with each commit tick read from the trace."""
    rng = random.Random(seed)
    scripts = open_loop_scripts(config, rng)
    knobs = dict(
        recovery=config.recovery, group_commit=config.group_commit,
        hold=config.hold, history=False,
    )
    replicated = config.sites > 1 or bool(config.site_crashes)
    if replicated:
        homes = split_arrivals([tick for _, tick in scripts], config.sites, rng)
        system = build_replicated_system(
            config.adt_kind, config.object_names(), sites=config.sites, **knobs
        )
    else:
        homes = [home_shard(s, config.shards) for s, _ in scripts]
        system = build_sharded_system(
            config.adt_kind, config.object_names(), shards=config.shards, **knobs
        )
    shards = 1 if replicated else config.shards
    trace.emit("drive-start", config.label(), shards, config.arrival_rate)
    metrics = Scheduler(
        system,
        [],
        seed=seed,
        label=config.label(),
        max_restarts=config.max_restarts,
        max_ticks=max(config.max_ticks, scripts[-1][1] + 10_000),
        trace=trace,
        arrivals=scripts,
        faults=site_faults(config.site_crashes),
    ).run()
    commit_tick = {
        e["script"]: e["tick"]
        for e in trace.events
        if e["kind"] in ("txn-commit", "ro-commit")
    }
    done = [
        (script, arrival, home)
        for (script, arrival), home in zip(scripts, homes)
        if script.name in commit_tick
    ]
    latencies = sorted(commit_tick[s.name] - arrival for s, arrival, _ in done)
    committed = Counter(home for s, _, home in done if not s.read_only)
    per_shard = per_site = []
    if replicated:
        arrived = Counter(homes)
        per_site = [
            {
                "site": acc["site"],
                "arrivals": arrived.get(acc["site"], 0),
                "committed": committed.get(acc["site"], 0),
                "failures": system.domain_failures[acc["site"]],
                "requalified": system.requalifications[acc["site"]],
                "forces": acc["forces"],
            }
            for acc in system.force_accounting_by_domain()
        ]
    else:
        ops = Counter(
            shard_of(obj, config.shards) for s, _ in scripts for obj, _ in s.steps
        )
        per_shard = [
            {
                "shard": acc["shard"],
                "objects": len(system.domain_objects(acc["shard"])),
                "committed": committed.get(acc["shard"], 0),
                "operations": ops.get(acc["shard"], 0),
                "forces": acc["forces"],
            }
            for acc in system.force_accounting_by_domain()
        ]
    return metrics, latencies, per_shard, per_site


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_streamed_drive_reports_what_the_materialised_one_does(name, seed, tmp_path):
    config = CONFIGS[name]
    streamed_trace, reference_trace = TraceCollector(), TraceCollector()
    report = drive(config, seed=seed, trace=streamed_trace)
    metrics, latencies, per_shard, per_site = reference_drive(
        config, seed, reference_trace
    )
    assert report.offered == config.transactions
    assert report.metrics.counters() == metrics.counters()
    assert report.latencies == latencies
    assert report.per_shard == per_shard
    assert report.per_site == per_site
    assert report.per_site if config.sites > 1 else report.per_shard
    # the trace bytes, but for the reference's missing ``drive-end``
    streamed, reference = tmp_path / "streamed.jsonl", tmp_path / "reference.jsonl"
    streamed_trace.dump_jsonl(str(streamed))
    reference_trace.dump_jsonl(str(reference))
    lines = streamed.read_bytes().splitlines(keepends=True)
    assert b'"kind": "drive-end"' in lines[-1]
    assert b"".join(lines[:-1]) == reference.read_bytes()


def test_the_differential_drives_exercise_their_shapes():
    """Not vacuous: each differential drive commits nearly all it is
    offered, one latency per commit the scan made (an in-doubt commit
    resolved at a site failure has none), through the feature it is
    there for."""
    reports = {name: drive(config, seed=0) for name, config in CONFIGS.items()}
    for name, report in reports.items():
        m = report.metrics
        assert len(report.latencies) == m.committed + m.ro_committed, name
        assert len(report.latencies) >= 0.95 * report.offered, name
    assert reports["replicated-site-crash"].per_site[1]["failures"] == 1
    assert reports["read-mix"].metrics.ro_committed > 0
    assert reports["sharded-cross-shard"].metrics.forces > 0


#: sha256 (16 hex digits) of ``repr((pairs, rng.random()))`` for the
#: offered pairs of each config at seed 11, as the whole load was built
#: before the stream: the same scripts, and the generator left where the
#: replicated drive draws its homes.
SCRIPT_DIGESTS = {
    "bursty": "644b9d8f361a730b",
    "read-mix": "bfce8daaf83ac038",
    "replicated-site-crash": "6e01654a411d471d",
    "sharded-cross-shard": "8b5434d6015a6c90",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_the_stream_draws_the_scripts_the_whole_load_did(name):
    config = CONFIGS[name]
    rng = random.Random(11)
    arrivals, stream = open_loop_stream(config, rng)
    pairs = list(stream)
    assert [tick for _, tick in pairs] == arrivals
    digest = hashlib.sha256(repr((pairs, rng.random())).encode()).hexdigest()
    assert digest[:16] == SCRIPT_DIGESTS[name]


def _sharded_system(config):
    return config.build_system(
        config.object_names(), shards=config.shards, history=False
    )


def test_a_finished_script_is_unreachable_while_the_run_goes_on():
    config = CONFIGS["sharded-cross-shard"]
    system = _sharded_system(config)
    arrivals, stream = open_loop_stream(config, random.Random(0))
    refs = []
    checked = []

    def watched():
        for i, (script, tick) in enumerate(stream):
            if i % 8 == 7:
                gc.collect()
                ticks = scheduler.commit_ticks()
                finished = [j for j, t in enumerate(ticks) if t is not None]
                assert all(refs[j]() is None for j in finished), i
                # the live scripts are still there: the refs are sound
                live = {id(e.script) for e in scheduler._active}
                assert live <= {id(r()) for r in refs if r() is not None}
                checked.append(len(finished))
            refs.append(weakref.ref(script))
            yield script, tick

    scheduler = drive_scheduler(system, config, arrivals, watched(), seed=0, trace=None)
    metrics = scheduler.run()
    assert metrics.committed + metrics.ro_committed == config.transactions
    assert len(checked) == 30 and checked[-1] > 150
    gc.collect()
    assert all(r() is None for r in refs)


# ---------------------------------------------------------------------------
# a script name is used once per run
# ---------------------------------------------------------------------------


def _system():
    ba = BankAccount("BA")
    return TransactionSystem([ManagedObject(ba, ba.nrbc_conflict(), "UIP")])


def _deposit(name, steps=1):
    return TransactionScript(name, (("BA", inv("deposit", 1)),) * steps)


def test_a_tick0_name_the_system_has_finished_is_refused():
    system = _system()
    system.invoke("T", "BA", inv("deposit", 1))
    assert system.commit("T")
    with pytest.raises(ValueError, match="T arrives after an entry of that name has finished"):
        Scheduler(system, [_deposit("T")])


def test_a_streamed_name_that_is_live_raises():
    scheduler = Scheduler(_system(), [_deposit("T", steps=3)], arrivals=[(_deposit("T"), 1)])
    with pytest.raises(ValueError, match="T arrives while an entry of that name is live"):
        scheduler.run()
    scheduler = Scheduler(_system(), [], arrivals=[(_deposit("U"), 2), (_deposit("U"), 2)])
    with pytest.raises(ValueError, match="U arrives while an entry of that name is live"):
        scheduler.run()


def test_a_streamed_name_that_has_finished_is_refused_not_merged():
    scheduler = Scheduler(_system(), [_deposit("T")], arrivals=[(_deposit("T"), 20)])
    with pytest.raises(ValueError, match="T arrives after an entry of that name has finished"):
        scheduler.run()
    # one commit, not two merged into one name
    assert scheduler.metrics.committed == 1
    assert scheduler.commit_ticks() == [2]


def test_a_name_out_of_its_restart_budget_is_refused_too():
    """A script that ran out of restarts has finished as well: its first
    incarnation, named after it, aborted."""
    system = _system()
    scheduler = Scheduler(
        system, [], max_restarts=0, arrivals=[(_deposit("T"), 1), (_deposit("T"), 5)]
    )
    scheduler._admit_arrivals(1)
    [entry] = scheduler._active
    scheduler._abort_and_restart(entry, 1, reason="deadlock")
    assert entry.retired and system.status("T") == "aborted"
    scheduler._compact()
    with pytest.raises(ValueError, match="has finished"):
        scheduler._admit_arrivals(5)


def test_a_stream_goes_forward_in_ticks_from_zero():
    with pytest.raises(ValueError, match="tick order"):
        Scheduler(_system(), [], arrivals=[(_deposit("T"), -1)])
    scheduler = Scheduler(_system(), [], arrivals=[(_deposit("T"), 5), (_deposit("U"), 4)])
    with pytest.raises(ValueError, match="U arrives at 4, after an arrival at 5"):
        scheduler.run()


# ---------------------------------------------------------------------------
# non-convergence under a stream
# ---------------------------------------------------------------------------


def test_the_nonconvergence_report_names_live_entries_and_pending_arrivals():
    """A drive cut at a small ``max_ticks``: the report names the stuck
    live entries, counts the arrivals still to come and gives the tick
    of the next."""
    config = CONFIGS["sharded-cross-shard"]
    system = _sharded_system(config)
    arrivals, stream = open_loop_stream(config, random.Random(0))
    scheduler = drive_scheduler(system, config, arrivals, stream, seed=0, trace=None)
    scheduler.max_ticks = 40
    with pytest.raises(RuntimeError) as excinfo:
        scheduler.run()
    message = str(excinfo.value)
    assert message.startswith("scheduler did not converge within 40 ticks")
    admitted = sum(1 for tick in arrivals if tick <= 40)
    live = [e for e in scheduler._active if not e.retired]
    assert live and admitted < len(arrivals)
    assert "live transactions (%d):" % len(live) in message
    for entry in live[:20]:
        assert "  %s[active] step=%d/" % (entry.txn, entry.step) in message
    pending = len(arrivals) - admitted
    assert (
        "arrivals pending (%d): the next, T%d, arrives=%d"
        % (pending, admitted, arrivals[admitted])
    ) in message
