"""Group commit: the batching engine, the ticket protocol, and parity.

Three layers of coverage:

* **log level** — :class:`~repro.runtime.wal.GroupCommitPolicy`
  validation, ticket satisfaction (a ticket is satisfied only by a
  *completed* physical flush), batch-full and hold-timer flush triggers,
  and the held batch dying as the volatile tail at a crash;
* **system level** — a commit is never acknowledged before its commit
  record's batch has flushed; a crash with the batch still held resolves
  the transaction as aborted (commit-point-first ordering);
* **parity** — batch size 1 reproduces the unbatched engine byte for
  byte: identical log records, physical flushes, events and metrics.

Torn *batched* forces (fault injection meeting group commit) live here
too: one tear increments ``torn_forces`` once, loses only the unflushed
suffix of the batch, and never lets a commit whose record was lost be
acknowledged.
"""

from __future__ import annotations

import random

import pytest

from repro.adts.registry import make_adt
from repro.core.events import inv
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.faults import CrashPoint, FaultPlan, FaultyStableLog
from repro.runtime.metrics import FaultCounters
from repro.runtime.scheduler import Scheduler, TransactionScript
from repro.runtime.wal import CommitRecord, GroupCommitPolicy, StableLog


def record_maker(tag: str):
    return lambda lsn: CommitRecord(lsn, txn=tag)


# ---------------------------------------------------------------------------
# policy and ticket protocol
# ---------------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        GroupCommitPolicy(batch_size=0)
    with pytest.raises(ValueError):
        GroupCommitPolicy(batch_size=1, max_hold=-1)
    assert not GroupCommitPolicy(1, 5).is_batching
    assert GroupCommitPolicy(2, 0).is_batching


def test_batch_fills_and_flushes():
    log = StableLog(policy=GroupCommitPolicy(batch_size=3, max_hold=10))
    tickets = []
    for i in range(3):
        log.append(record_maker("T%d" % i))
        tickets.append(log.request_force())
    # The first two requests were held; the third filled the batch.
    assert log.forces == 1
    assert log.force_requests == 3
    assert log.forced_records == 3
    assert log.held_batch_size() == 0
    assert all(log.flushed(t) for t in tickets)


def test_ticket_unsatisfied_until_flush():
    log = StableLog(policy=GroupCommitPolicy(batch_size=4, max_hold=10))
    log.append(record_maker("T0"))
    ticket = log.request_force()
    assert not log.flushed(ticket)
    assert log.held_batch_size() == 1
    assert log.forces == 0
    log.force()  # explicit flush absorbs the held batch
    assert log.flushed(ticket)
    assert log.held_batch_size() == 0


def test_hold_timer_flushes_short_batch():
    obj, system = durable_bank(GroupCommitPolicy(batch_size=4, max_hold=2))
    log = obj.wal.log
    log.append(record_maker("T0"))
    ticket = log.request_force()
    assert log.due == 3  # opened at clock 0: due after max_hold + 1 ticks
    system.tick()  # hold tick 1
    system.tick()  # hold tick 2 (== max_hold: still held)
    assert not log.flushed(ticket)
    system.tick()  # due: the system forces it
    assert log.flushed(ticket)
    assert log.forces == 1 and log.due is None
    # An idle log has nothing due.
    system.tick(5)
    assert log.forces == 1


def test_batch_one_flushes_immediately():
    log = StableLog(policy=GroupCommitPolicy(batch_size=1))
    log.append(record_maker("T0"))
    ticket = log.request_force()
    assert log.flushed(ticket)
    assert log.forces == 1
    assert log.crash() == 0  # durable-on-append is preserved


def test_crash_drops_held_batch():
    log = StableLog(policy=GroupCommitPolicy(batch_size=4, max_hold=10))
    log.append(record_maker("T0"))
    flushed_ticket = log.request_force()
    log.force()
    log.append(record_maker("T1"))
    log.append(record_maker("T2"))
    held_ticket = log.request_force()
    assert log.flushed(flushed_ticket) and not log.flushed(held_ticket)
    lost = log.crash()
    assert lost == 2  # the held batch was the volatile tail
    assert [r.txn for r in log.records()] == ["T0"]
    assert log.held_batch_size() == 0
    assert not log.flushed(held_ticket)  # the dead batch never satisfies


# ---------------------------------------------------------------------------
# system level: acknowledgment ordering and crash resolution
# ---------------------------------------------------------------------------


def durable_bank(policy, recovery="DU"):
    adt = make_adt("bank")
    conflict = adt.nrbc_conflict() if recovery == "UIP" else adt.nfc_conflict()
    obj = ManagedObject(
        adt, conflict, recovery, log=StableLog(policy=policy)
    )
    return obj, TransactionSystem([obj])


@pytest.mark.parametrize("recovery", ["DU", "UIP"])
def test_commit_waits_for_batch_flush(recovery):
    """``commit`` stays pending until the hold timer flushes the batch,
    and the transaction is acknowledged only after that flush."""
    obj, system = durable_bank(GroupCommitPolicy(8, max_hold=2), recovery)
    rng = random.Random(0)
    assert system.invoke("T1", obj.name, inv("deposit", 5), rng).ok
    stalls = 0
    while not system.commit("T1"):
        assert system.status("T1") == "active"
        system.tick()
        stalls += 1
        assert stalls < 20, "commit never acknowledged"
    assert stalls > 0  # the batch was actually held across ticks
    assert system.status("T1") == "committed"
    assert obj.wal.has_durable_commit("T1")
    assert obj.wal.log.held_batch_size() == 0


@pytest.mark.parametrize("recovery", ["DU", "UIP"])
def test_crash_with_held_batch_aborts_transaction(recovery):
    """A crash while the commit's batch is still held resolves the
    transaction as aborted: nothing was acknowledged, nothing survives."""
    obj, system = durable_bank(GroupCommitPolicy(8, max_hold=50), recovery)
    rng = random.Random(0)
    assert system.invoke("T1", obj.name, inv("deposit", 5), rng).ok
    assert not system.commit("T1")  # pending on the held batch
    victims = system.crash()
    assert "T1" in victims
    assert system.status("T1") == "aborted"
    assert not obj.wal.has_durable_commit("T1")
    # Restart state shows no trace of the unacknowledged deposit.
    outcome = system.invoke("T2", obj.name, inv("balance"), rng)
    assert outcome.ok
    assert outcome.operation.response == 0


def test_durable_commit_survives_crash_after_flush():
    """Once the batch flushes and the commit is acknowledged, a crash
    must preserve it — the other half of the acknowledgment contract."""
    obj, system = durable_bank(GroupCommitPolicy(4, max_hold=1))
    rng = random.Random(0)
    assert system.invoke("T1", obj.name, inv("deposit", 7), rng).ok
    while not system.commit("T1"):
        system.tick()
    system.crash()
    assert system.status("T1") == "committed"
    outcome = system.invoke("T2", obj.name, inv("balance"), rng)
    assert outcome.ok
    assert outcome.operation.response == 7


def test_scheduler_counts_commit_stalls():
    """Done-but-unacknowledged transactions are progress, not deadlock:
    the run converges and the stall ticks are accounted."""
    adt = make_adt("bank")
    policy = GroupCommitPolicy(8, max_hold=3)
    obj = ManagedObject(
        adt, adt.nfc_conflict(), "DU",
        log=StableLog(policy=policy),
    )
    system = TransactionSystem([obj])
    scripts = [
        TransactionScript("T0", ((obj.name, inv("deposit", 1)),)),
    ]
    metrics = Scheduler(system, scripts, seed=0).run()
    assert metrics.committed == 1
    assert metrics.deadlocks == 0
    assert metrics.commit_stall_ticks > 0
    assert metrics.forces == 2  # prepare batch + commit batch, timer-flushed
    assert metrics.force_requests == 2


def test_batch_size_one_system_parity():
    """The regression gate: a batch-1 policy is byte-for-byte the
    unbatched engine — same records, forces, events and metrics."""
    def run(log):
        adt = make_adt("bank")
        obj = ManagedObject(adt, adt.nfc_conflict(), "DU", log=log)
        system = TransactionSystem([obj])
        rng = random.Random(5)
        scripts = [
            TransactionScript(
                "T%d" % t,
                tuple(
                    (adt.name, inv("deposit", rng.choice((1, 2, 3))))
                    for _ in range(2)
                ),
            )
            for t in range(6)
        ]
        return Scheduler(system, scripts, seed=5).run(), obj

    m_plain, o_plain = run(StableLog())  # the default policy
    m_gc1, o_gc1 = run(StableLog(policy=GroupCommitPolicy(1, 0)))
    assert o_plain.wal.log.records() == o_gc1.wal.log.records()
    assert o_plain.history().events == o_gc1.history().events
    assert m_gc1.forces == m_plain.forces
    assert m_gc1.force_requests == m_plain.forces  # one flush per request
    assert m_gc1.forced_records == m_plain.forced_records
    assert m_gc1.ticks == m_plain.ticks
    assert m_gc1.committed == m_plain.committed
    assert m_gc1.commit_stall_ticks == 0


def test_batched_run_coalesces_forces():
    """Concurrent commuting commits share flushes: fewer physical forces
    than force requests, and the metrics expose the amortization."""
    adt = make_adt("escrow")
    policy = GroupCommitPolicy(4, max_hold=3)
    obj = ManagedObject(
        adt, adt.nfc_conflict(), "DU",
        log=StableLog(policy=policy),
    )
    system = TransactionSystem([obj])
    rng = random.Random(2)
    scripts = [
        TransactionScript(
            "T%d" % t, ((adt.name, inv("credit", rng.choice((1, 2)))),)
        )
        for t in range(8)
    ]
    metrics = Scheduler(system, scripts, seed=2).run()
    assert metrics.committed == 8
    assert metrics.force_requests == 16  # prepare + commit per transaction
    assert metrics.forces < metrics.force_requests
    assert metrics.avg_batch_size > 1.0
    assert metrics.forces_per_commit < 2.0


# ---------------------------------------------------------------------------
# fault injection meets group commit: torn batched forces
# ---------------------------------------------------------------------------


def torn_batched_log(keep: int, batch: int = 3):
    """A faulty log whose first physical flush tears, keeping ``keep``
    records of the buffered tail."""
    plan = FaultPlan.crash_at(batch, "crash-during-force", keep=keep)
    counters = FaultCounters()
    log = FaultyStableLog(
        plan,
        counters=counters,
        policy=GroupCommitPolicy(batch_size=batch, max_hold=10),
    )
    tickets = []
    with pytest.raises(CrashPoint):
        for i in range(batch):
            log.append(record_maker("T%d" % i))
            tickets.append(log.request_force())  # batch fills on the last
    return log, counters, tickets


@pytest.mark.parametrize("keep", [0, 1, 2])
def test_torn_batched_force_loses_only_unflushed_suffix(keep):
    log, counters, tickets = torn_batched_log(keep)
    assert counters.torn_forces == 1  # one tear, however many riders
    # No ticket is satisfied: the flush never completed, so none of the
    # batched commits may be acknowledged.
    assert not any(log.flushed(t) for t in tickets)
    lost = log.crash()
    assert lost == 3 - keep  # only the suffix past the torn prefix dies
    assert [r.txn for r in log.records()] == ["T%d" % i for i in range(keep)]
    fates = dict((r.txn, fate) for r, fate in log.archive())
    for i in range(3):
        assert fates["T%d" % i] == ("durable" if i < keep else "lost")


def test_torn_batch_never_acknowledges_lost_commit():
    """System level: a tear mid-batch crashes the process before any
    rider is acknowledged; recovery resolves each strictly from the
    surviving records (commit-point-first, never retracted)."""
    adt = make_adt("escrow")
    counters = FaultCounters()
    # Interactions: prepare-batch flush is interaction 2 (two appends
    # first under DU); tear it keeping nothing.
    plan = FaultPlan.crash_at(2, "crash-during-force", keep=0)
    obj = ManagedObject(
        adt,
        adt.nfc_conflict(),
        "DU",
        log=FaultyStableLog(
            plan,
            counters=counters,
            policy=GroupCommitPolicy(batch_size=2, max_hold=10),
        ),
    )
    system = TransactionSystem([obj])
    rng = random.Random(0)
    assert system.invoke("T1", obj.name, inv("credit", 3), rng).ok
    assert system.invoke("T2", obj.name, inv("credit", 4), rng).ok
    assert not system.commit("T1")  # joins the held prepare batch
    with pytest.raises(CrashPoint):
        system.commit("T2")  # fills the batch; the flush tears
    assert counters.torn_forces == 1
    system.crash()
    # Neither rider was acknowledged, neither survives.
    assert system.status("T1") == "aborted"
    assert system.status("T2") == "aborted"
    assert not obj.wal.has_durable_commit("T1")
    assert not obj.wal.has_durable_commit("T2")


# ---------------------------------------------------------------------------
# FaultCounters.merge covers every field
# ---------------------------------------------------------------------------


def test_fault_counters_merge_every_field():
    """``merge`` must accumulate *every* declared counter — including
    any added after it was written (it introspects the dataclass)."""
    from dataclasses import fields

    a = FaultCounters()
    b = FaultCounters()
    for i, spec in enumerate(fields(FaultCounters), start=1):
        setattr(a, spec.name, i)
        setattr(b, spec.name, 10 * i)
    a.merge(b)
    for i, spec in enumerate(fields(FaultCounters), start=1):
        assert getattr(a, spec.name) == 11 * i, spec.name
    assert getattr(b, fields(FaultCounters)[0].name) == 10  # b untouched
