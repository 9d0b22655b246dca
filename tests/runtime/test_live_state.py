"""A system keeps what is live; the audit record only when asked.

Built with ``history=False`` — what ``drive`` builds — a system keeps no
event history, no merged logical history and no read-only observations,
and every query for them raises :class:`HistoryNotKept`, so an audit of
such a run fails instead of passing on an empty history.  It runs
exactly as the same system with one: same counters, commit ticks and
trace, and a recovery manager of it that holds no live transaction holds
no response memo.  With or without the history, a finished transaction
leaves the failure bookkeeping (``_touched`` / ``_ro_touched``).
"""

import random

import pytest

from repro.core.events import inv
from repro.core.history import HistoryNotKept
from repro.runtime.openloop import OpenLoopConfig, _scheduler, open_loop_stream
from repro.runtime.replication import build_replicated_system
from repro.runtime.scheduler import CRASH_SHARD, Fault, FaultCalendar
from repro.runtime.sharding import build_sharded_system
from repro.runtime.torture import audit_recovery, audit_replication
from repro.runtime.trace import TraceCollector


def _assert_live(system, writers, readers):
    """The bookkeeping maps hold exactly the unfinished transactions."""
    assert set(system._touched) == {
        t for t in writers if system.status(t) == "active"
    }
    assert set(system._ro_touched) == {
        t for t in readers if system.status(t) == "active"
    }


def _commit(system, txn):
    """Commit ``txn``, letting held group-commit batches fall due."""
    while not system.commit(txn):
        assert system.status(txn) == "active"
        system.tick()


@pytest.mark.parametrize("history", [True, False])
def test_a_shard_crash_leaves_only_unfinished_transactions(history):
    system = build_sharded_system(
        "bank", ["A", "D"], shards=2, group_commit=4, hold=4, history=history
    )
    assert system.domain_of["A"] != system.domain_of["D"]
    writers, readers = set(), set()

    def write(txn, *names):
        writers.add(txn)
        for name in names:
            assert system.invoke(txn, name, inv("deposit", 1)).ok

    def read(txn, name):
        readers.add(txn)
        assert system.snapshot_read(txn, name, inv("balance")).ok

    write("T1", "A", "D")
    _commit(system, "T1")
    write("T2", "A")
    system.abort("T2")
    read("R1", "A")
    read("R2", "D")
    read("R3", "D")
    system.finish_readonly("R2")
    system.abort("R3")
    _assert_live(system, writers, readers)
    # T3's commit records are held on both shards (resolved: committed);
    # T4 never prepared (killed); R1 read the failed shard (killed).
    write("T3", "A", "D")
    assert system.commit("T3") is False
    for obj in system.objects.values():
        obj.wal.log.force()
    assert system.commit("T3") is False
    write("T4", "A")
    write("T5", "D")
    _assert_live(system, writers, readers)
    assert system.crash_shard(system.domain_of["A"]) == {"T4", "R1"}
    assert system.status("T3") == "committed"
    _assert_live(system, writers, readers)
    assert set(system._touched) == {"T5"}
    system.crash()
    _assert_live(system, writers, readers)
    assert not system._touched and not system._ro_touched


@pytest.mark.parametrize("history", [True, False])
def test_a_site_failure_leaves_only_unfinished_transactions(history):
    system = build_replicated_system(
        "counter", ["X", "Y"], sites=3, group_commit=2, hold=4, history=history
    )
    writers, readers = set(), set()

    def write(txn, *names):
        writers.add(txn)
        for name in names:
            assert system.invoke(txn, name, inv("increment", 1)).ok

    write("T1", "X", "Y")
    _commit(system, "T1")
    readers.add("R1")
    assert system.snapshot_read("R1", "X", inv("read")).ok
    write("T2", "X")
    write("T3", "Y")
    system.abort("T3")
    _assert_live(system, writers, readers)
    assert system.fail_site(1) == {"T2"}
    _assert_live(system, writers, readers)
    system.recover_site(1)
    write("T4", "X")
    _commit(system, "T4")
    system.finish_readonly("R1")
    _assert_live(system, writers, readers)
    assert not system._touched and not system._ro_touched


def test_a_system_without_history_refuses_to_be_audited():
    sharded = build_sharded_system("bank", ["A", "D"], shards=2, history=False)
    assert sharded.invoke("T1", "A", inv("deposit", 1)).ok
    assert sharded.commit("T1")
    assert sharded.snapshot_read("R1", "A", inv("balance")).ok
    sharded.finish_readonly("R1")
    with pytest.raises(HistoryNotKept):
        sharded.history()
    with pytest.raises(HistoryNotKept):
        sharded.objects["A"].history()
    with pytest.raises(HistoryNotKept):
        sharded.readonly_observations("R1")
    with pytest.raises(HistoryNotKept):
        sharded.readonly_snapshot("R1")
    sharded.crash_shard(sharded.domain_of["A"])
    with pytest.raises(HistoryNotKept):
        audit_recovery(sharded, "", "")
    with pytest.raises(HistoryNotKept):
        audit_recovery(sharded, "", "", names=[])

    replicated = build_replicated_system("counter", ["X"], sites=2, history=False)
    assert replicated.invoke("T1", "X", inv("increment", 1)).ok
    assert replicated.commit("T1")
    with pytest.raises(HistoryNotKept):
        replicated.logical_history()
    with pytest.raises(HistoryNotKept):
        replicated.objects["X@s1"].history()
    with pytest.raises(HistoryNotKept):
        audit_replication(replicated, "", "")


#: a sharded shape with cross-shard traffic and readers, crashed mid-run.
SHARDED = OpenLoopConfig(
    adt_kind="bank", objects=16, shards=2, transactions=160,
    arrival_rate=0.5, zipf_s=1.1, cross_shard=0.2, read_mix=0.3,
    group_commit=4, hold=4,
)

#: three sites, half the arrivals snapshot readers, one site outage.
REPLICATED = OpenLoopConfig(
    adt_kind="counter", objects=8, transactions=160, arrival_rate=0.5,
    zipf_s=1.1, read_mix=0.5, group_commit=4, sites=3,
    site_crashes=((1, 60, 200),),
)


def _run(config, history, seed=0):
    """One scheduler over ``config``'s scripts; the shard crash (sharded)
    or the site schedule (replicated) fires mid-run."""
    knobs = dict(
        recovery=config.recovery, group_commit=config.group_commit,
        hold=config.hold, history=history,
    )
    names = config.object_names()
    if config.sites > 1:
        system = build_replicated_system(
            config.adt_kind, names, sites=config.sites, **knobs
        )
    else:
        system = build_sharded_system(
            config.adt_kind, names, shards=config.shards, **knobs
        )
    arrivals, stream = open_loop_stream(config, random.Random(seed))
    trace = TraceCollector()
    scheduler = _scheduler(system, config, arrivals, stream, seed=seed, trace=trace)
    if config.sites == 1:
        scheduler.faults = FaultCalendar([Fault(CRASH_SHARD, 60, domain=0)])
    metrics = scheduler.run()
    return system, scheduler, metrics, trace


@pytest.mark.parametrize("config", [SHARDED, REPLICATED], ids=["sharded", "replicated"])
def test_the_same_run_with_and_without_history(config):
    kept, with_scheduler, with_metrics, with_trace = _run(config, True)
    plain, plain_scheduler, plain_metrics, plain_trace = _run(config, False)
    assert with_metrics.counters() == plain_metrics.counters()
    assert with_metrics.committed and with_metrics.crash_aborts
    assert with_scheduler.commit_ticks() == plain_scheduler.commit_ticks()
    assert list(with_trace.events) == list(plain_trace.events)
    assert any(e["kind"] == "snapshot-read" for e in plain_trace.events)
    assert len(kept.history()) > 0
    for system in (kept, plain):
        assert not system._touched and not system._ro_touched
    # Quiescent at the end, the plain run's managers hold no memo; the
    # audited run keeps its memo, as it keeps everything else.
    for obj in plain.objects.values():
        assert obj.recovery._responses == {}, obj.name
    assert any(obj.recovery._responses for obj in kept.objects.values())
