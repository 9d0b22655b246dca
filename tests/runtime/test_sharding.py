"""Tests for the sharded runtime (:mod:`repro.runtime.sharding`).

The load-bearing property: sharding is *routing metadata* — a sharded
system executes byte-identically to the flat crashable system over the
same objects — plus the genuinely new capability, partial failure
(`crash_shard`), whose in-doubt resolution must honor the commit-point
rule across crashed and healthy shards.
"""

import random

import pytest

from repro.core.events import inv
from repro.runtime.scheduler import Scheduler
from repro.runtime.sharding import (
    ShardedSystem,
    build_sharded_system,
    shard_of,
)
from repro.runtime.system import TransactionSystem
from repro.runtime.torture import audit_recovery
from repro.runtime.trace import TraceCollector
from repro.runtime.workloads import mixed_transfers

# A (shard 1) and D (shard 0) differ under shards=2 (CRC-32 placement).
TWO_SHARD_NAMES = ["A", "D"]


def _build(names, *, shards, group_commit=1, hold=4, recovery="DU"):
    return build_sharded_system(
        "bank",
        names,
        shards=shards,
        recovery=recovery,
        group_commit=group_commit,
        hold=hold,
    )


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------


def test_shard_of_is_stable_and_in_range():
    names = ["K%02d" % i for i in range(64)]
    for shards in (1, 2, 3, 8):
        placements = [shard_of(n, shards) for n in names]
        assert all(0 <= p < shards for p in placements)
        # deterministic: recomputing gives the same placement
        assert placements == [shard_of(n, shards) for n in names]
    # every object lands in shard 0 when there is only one shard
    assert {shard_of(n, 1) for n in names} == {0}


def test_shard_of_rejects_bad_counts():
    with pytest.raises(ValueError):
        shard_of("X", 0)


def test_shard_objects_partition_the_system():
    names = ["K%02d" % i for i in range(16)]
    system = _build(names, shards=4)
    seen = []
    for k in range(4):
        owned = system.domain_objects(k)
        assert owned == sorted(owned)
        assert all(system.domain_of[n] == k for n in owned)
        seen.extend(owned)
    assert sorted(seen) == sorted(names)


def test_sharded_system_validates_shard_arguments():
    system = _build(["D", "E"], shards=2)
    with pytest.raises(ValueError):
        system.crash_shard(2)
    with pytest.raises(ValueError):
        ShardedSystem(list(system.objects.values()), shards=0)


# ---------------------------------------------------------------------------
# sharded == flat (routing is metadata)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_execution_is_byte_identical_to_flat(shards):
    names = ["K%02d" % i for i in range(6)]
    scripts = mixed_transfers(
        random.Random(7), objs=names, transactions=6
    )

    def run(system):
        metrics = Scheduler(system, scripts, seed=7, label="eq").run()
        return metrics.row(), [repr(e) for e in system.history()]

    flat_system = _build(names, shards=1)
    flat = run(TransactionSystem(list(flat_system.objects.values())))
    sharded = run(_build(names, shards=shards))
    assert sharded == flat


def test_shard_count_does_not_change_execution():
    names = ["K%02d" % i for i in range(6)]
    scripts = mixed_transfers(random.Random(3), objs=names, transactions=6)
    rows = []
    for shards in (1, 2, 4):
        system = _build(names, shards=shards, group_commit=4, hold=3)
        rows.append(Scheduler(system, scripts, seed=3).run().row())
    assert rows[0] == rows[1] == rows[2]


# ---------------------------------------------------------------------------
# partial failure: crash_shard
# ---------------------------------------------------------------------------


def test_crash_shard_kills_unprepared_transaction_everywhere():
    system = _build(TWO_SHARD_NAMES, shards=2, group_commit=8, hold=100)
    assert system.domain_of["A"] != system.domain_of["D"]
    assert system.invoke("T1", "A", inv("deposit", 1)).ok
    assert system.invoke("T1", "D", inv("deposit", 1)).ok
    victims = system.crash_shard(system.domain_of["A"])
    assert victims == {"T1"}
    assert system.status("T1") == "aborted"
    # the healthy object performed a clean abort: locks released
    assert not system.objects["D"].locks.holders()
    assert system.domain_failures[system.domain_of["A"]] == 1


def test_crash_shard_mid_prepare_kills_transaction():
    # group_commit=8, hold=100: the prepare forces sit in held batches,
    # so no commit record is durable anywhere when the shard dies.
    system = _build(TWO_SHARD_NAMES, shards=2, group_commit=8, hold=100)
    assert system.invoke("T1", "A", inv("deposit", 1)).ok
    assert system.invoke("T1", "D", inv("deposit", 1)).ok
    assert system.commit("T1") is False  # parked on the prepare flush
    victims = system.crash_shard(system.domain_of["A"])
    assert victims == {"T1"}
    assert system.status("T1") == "aborted"
    for name in TWO_SHARD_NAMES:
        h = system.objects[name].history()
        assert "T1" in h.aborted()


def test_crash_shard_mid_commit_record_kills_without_surviving_record():
    # A and B both live in shard 1, so every commit record of T1 rides
    # that shard's held batches.  Drive 2PC past prepare (hold expiry
    # flushes the prepare batch), into submit: commit records appended
    # but parked in a fresh batch — then the shard dies.  No commit
    # record survives anywhere, so the transaction dies everywhere.
    system = _build(["A", "B", "D"], shards=2, group_commit=8, hold=2)
    assert system.domain_of["A"] == system.domain_of["B"]
    assert system.invoke("T1", "A", inv("deposit", 1)).ok
    assert system.invoke("T1", "B", inv("deposit", 1)).ok
    assert system.commit("T1") is False
    for _ in range(3):
        system.tick()  # hold expiry: prepare batch flushes
    assert system.commit("T1") is False  # submit: commit records parked
    assert "T1" in system._committing
    assert system._committing["T1"].phase == "committing"
    victims = system.crash_shard(system.domain_of["A"])
    assert victims == {"T1"}
    assert system.status("T1") == "aborted"


def test_crash_shard_mid_commit_completes_from_surviving_record():
    # Same schedule, but the transaction spans both shards: the commit
    # record parked at the *healthy* shard survives the crash (its
    # process is alive), so resolution completes the commit everywhere
    # rather than retracting it.
    system = _build(TWO_SHARD_NAMES, shards=2, group_commit=8, hold=2)
    assert system.invoke("T1", "A", inv("deposit", 1)).ok
    assert system.invoke("T1", "D", inv("deposit", 1)).ok
    assert system.commit("T1") is False
    for _ in range(3):
        system.tick()
    assert system.commit("T1") is False  # submit: commit records parked
    victims = system.crash_shard(system.domain_of["A"])
    assert victims == set()
    assert system.status("T1") == "committed"
    for name in TWO_SHARD_NAMES:
        obj = system.objects[name]
        assert obj.wal.has_durable_commit("T1")
        assert "T1" in obj.history().committed()


def test_crash_shard_completes_commit_past_the_commit_point():
    system = _build(TWO_SHARD_NAMES, shards=2, group_commit=8, hold=100)
    assert system.invoke("T1", "A", inv("deposit", 1)).ok
    assert system.invoke("T1", "D", inv("deposit", 1)).ok
    assert system.commit("T1") is False
    for obj in system.objects.values():
        obj.wal.log.force()  # prepare durability lands
    assert system.commit("T1") is False  # submit: commit records parked
    # the commit point: A's commit record reaches stable storage
    system.objects["A"].wal.log.force()
    victims = system.crash_shard(system.domain_of["D"])
    assert victims == set()
    assert system.status("T1") == "committed"
    for name in TWO_SHARD_NAMES:
        obj = system.objects[name]
        assert obj.wal.has_durable_commit("T1")
        assert "T1" in obj.history().committed()
    # the commit pipeline entry is gone; later transactions run normally
    assert "T1" not in system._committing
    assert system.invoke("T2", "D", inv("deposit", 1)).ok
    assert system.commit("T2") in (True, False)


def test_crash_shard_forces_a_healthy_shards_held_commit_record():
    # The cross-shard transaction's commit records sit in held batches
    # on both shards when A's shard crashes.  D's record is in its log,
    # so T1 commits, and D's batch must be flushed before the commit is
    # acknowledged: a crash of D's shard inside the hold window must
    # still find the record.
    system = _build(TWO_SHARD_NAMES, shards=2, group_commit=4, hold=4)
    assert system.invoke("T1", "A", inv("deposit", 1)).ok
    assert system.invoke("T1", "D", inv("deposit", 1)).ok
    assert system.commit("T1") is False  # prepare requests held
    for obj in system.objects.values():
        obj.wal.log.force()
    assert system.commit("T1") is False  # commit records held
    survivor = system.objects["D"]
    ticket = survivor.wal._tickets["T1"]
    assert not survivor.wal.log.flushed(ticket)
    assert system.crash_shard(system.domain_of["A"]) == set()
    assert system.status("T1") == "committed"
    assert survivor.wal.log.flushed(ticket)
    shard = system.domain_of["D"]
    system.crash_shard(shard)  # before the hold timer would have fired
    assert audit_recovery(system, "", "", names=system.domain_objects(shard)) == []


def test_crash_shard_spares_transactions_on_healthy_shards():
    system = _build(TWO_SHARD_NAMES, shards=2, group_commit=8, hold=100)
    assert system.invoke("T1", "A", inv("deposit", 1)).ok  # dies with its shard
    assert system.invoke("T2", "D", inv("deposit", 1)).ok  # untouched
    victims = system.crash_shard(system.domain_of["A"])
    assert victims == {"T1"}
    assert system.status("T2") == "active"
    assert "T2" in system.objects["D"].locks.holders()
    # the survivor can still commit (async under the held batch: force
    # the log to land its durability work, then the commit completes)
    assert system.commit("T2") is False
    system.objects["D"].wal.log.force()
    assert system.commit("T2") is False  # submit: commit record parked
    system.objects["D"].wal.log.force()
    assert system.commit("T2") is True


def test_crashed_shard_recovers_committed_state():
    system = _build(TWO_SHARD_NAMES, shards=2)
    for t in range(3):
        txn = "T%d" % t
        assert system.invoke(txn, "A", inv("deposit", 1)).ok
        assert system.commit(txn) is True
    shard = system.domain_of["A"]
    system.crash_shard(shard)
    violations = audit_recovery(system, "", "", names=system.domain_objects(shard))
    assert violations == []
    # recovered object keeps serving
    outcome = system.invoke("T9", "A", inv("deposit", 1))
    assert outcome.ok


# ---------------------------------------------------------------------------
# per-shard accounting and trace stamping
# ---------------------------------------------------------------------------


def test_force_accounting_by_shard_sums_to_global():
    names = ["K%02d" % i for i in range(8)]
    system = _build(names, shards=4, group_commit=2, hold=2)
    scripts = mixed_transfers(random.Random(5), objs=names, transactions=6)
    Scheduler(system, scripts, seed=5).run()
    rows = system.force_accounting_by_shard()
    assert [r["shard"] for r in rows] == [0, 1, 2, 3]
    forces, requests, records = system.force_accounting()
    assert sum(r["forces"] for r in rows) == forces
    assert sum(r["force_requests"] for r in rows) == requests
    assert sum(r["forced_records"] for r in rows) == records


@pytest.mark.parametrize("shards", [1, 2])
def test_trace_events_are_stamped_with_shard_ids(shards):
    """Even one shard stamps ``shard: 0``: the stamp comes from the
    system's kind, not from its shard count."""
    names = ["K%02d" % i for i in range(6)]
    system = _build(names, shards=shards, group_commit=2, hold=2)
    trace = TraceCollector()
    scripts = mixed_transfers(random.Random(2), objs=names, transactions=4)
    Scheduler(system, scripts, seed=2, trace=trace).run()
    stamped = [e for e in trace.events if "shard" in e]
    assert stamped, "object/log events must carry shard ids"
    for event in stamped:
        obj = event.get("obj")
        if obj in system.objects:
            assert event["shard"] == system.domain_of[obj]
    # system-level 2PC events span shards and stay unstamped
    for event in trace.events:
        if event["kind"].startswith("2pc-"):
            assert "shard" not in event


def test_a_flat_system_stamps_no_domain():
    names = ["K%02d" % i for i in range(6)]
    system = TransactionSystem(list(_build(names, shards=2).objects.values()))
    trace = TraceCollector()
    trace.bind_system(system)
    scripts = mixed_transfers(random.Random(2), objs=names, transactions=4)
    Scheduler(system, scripts, seed=2).run()
    assert {e["kind"] for e in trace.events} >= {"op-invoke", "force"}
    assert not [e for e in trace.events if "shard" in e or "site" in e]


def test_shard_crash_emits_trace_event():
    system = _build(TWO_SHARD_NAMES, shards=2)
    trace = TraceCollector()
    trace.bind_system(system)
    assert system.invoke("T1", "A", inv("deposit", 1)).ok
    shard = system.domain_of["A"]
    system.crash_shard(shard)
    crashes = [e for e in trace.events if e["kind"] == "shard-crash"]
    assert len(crashes) == 1
    assert crashes[0]["shard"] == shard
    assert crashes[0]["victims"] == ["T1"]
