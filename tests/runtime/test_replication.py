"""Tests for multi-site replication (:mod:`repro.runtime.replication`).

The load-bearing properties: at ``sites=1`` the replicated system is
byte-identical to the flat crashable system (replication is pure
routing metadata until a second copy exists); with real copies, the
available-copies protocol serves writes at every in-service copy and
reads at one read-qualified copy, resolves site crashes by the
surviving-commit-record rule, and — the recovery rule under test —
lets a recovered copy serve writes immediately but reads only after a
committed write re-qualifies it.
"""

import random

import pytest

from repro.core.events import inv
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.replication import (
    ReplicatedSystem,
    ReplicationError,
    build_replicated_system,
    copy_name,
)
from repro.runtime.scheduler import Scheduler
from repro.runtime.torture import (
    TortureConfig,
    audit_recovery,
    audit_replication,
    workload_for,
)
from repro.runtime.trace import TraceCollector
from repro.runtime.wal import GroupCommitPolicy, StableLog
from repro.adts.registry import make_adt


def _build(names=("X",), *, sites=2, recovery="DU", group_commit=1, hold=4):
    return build_replicated_system(
        "counter",
        list(names),
        sites=sites,
        recovery=recovery,
        group_commit=group_commit,
        hold=hold,
    )


def _commit_writes(system, txn, name, *amounts):
    for amount in amounts:
        assert system.invoke(txn, name, inv("increment", amount)).ok
    assert system.commit(txn) is True


# ---------------------------------------------------------------------------
# construction and naming
# ---------------------------------------------------------------------------


def test_copy_names_site_zero_keeps_logical_name():
    assert copy_name("X", 0) == "X"
    assert copy_name("X", 3) == "X@s3"


def test_builder_validates_sites():
    with pytest.raises(ValueError, match="sites"):
        build_replicated_system("counter", ["X"], sites=0)


def test_copies_partition_over_sites():
    system = _build(["X", "Y"], sites=3)
    assert system.copies_of("X") == ("X", "X@s1", "X@s2")
    assert system.logical_names() == ("X", "Y")
    assert system.domain_of["Y@s2"] == 2
    for site in range(3):
        assert system.site_up(site)


# ---------------------------------------------------------------------------
# sites=1 byte-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sites1_is_byte_identical_to_flat_system(seed):
    config = TortureConfig(
        "bank",
        "DU",
        transactions=6,
        ops_per_txn=3,
        group_commit=2,
        hold=3,
        sites=1,
    )

    def run(system, adt):
        scripts = workload_for(config, adt, random.Random(seed))
        metrics = Scheduler(system, scripts, seed=seed).run()
        events = {
            n: [str(e) for e in system.objects[n].history().events]
            for n in system.objects
        }
        return metrics, events

    adt = make_adt("bank", "X")
    policy = GroupCommitPolicy(2, 3)
    flat = TransactionSystem(
        [
            ManagedObject(
                adt,
                adt.nfc_conflict(),
                "DU",
                log=StableLog(policy=policy),
            )
        ]
    )
    replicated = build_replicated_system(
        "bank", ["X"], sites=1, recovery="DU", group_commit=2, hold=3
    )
    rep_adt = replicated.objects["X"].adt
    m_rep, h_rep = run(replicated, rep_adt)
    m_flat, h_flat = run(flat, adt)
    assert h_rep == h_flat
    assert m_rep == m_flat


# ---------------------------------------------------------------------------
# routing: write-all-available, read-one
# ---------------------------------------------------------------------------


def test_writes_mirror_to_every_copy_reads_touch_one():
    system = _build(sites=3)
    rng = random.Random(0)
    assert system.invoke("T1", "X", inv("increment", 1), rng).ok
    assert system._touched["T1"] == {"X", "X@s1", "X@s2"}
    assert system.commit("T1") is True
    assert system.invoke("T2", "X", inv("read"), rng).ok
    assert len(system._touched["T2"]) == 1
    assert system.commit("T2") is True
    # lockstep: every copy restored/holds the same committed state
    tips = {system.objects[c].committed_tip for c in system.copies_of("X")}
    assert len(tips) == 1


def test_unknown_logical_object_is_rejected():
    system = _build()
    from repro.runtime.errors import UnknownObjectError

    with pytest.raises(UnknownObjectError):
        system.invoke("T1", "Z", inv("read"), random.Random(0))


# ---------------------------------------------------------------------------
# site failure: the surviving-commit-record rule
# ---------------------------------------------------------------------------


def test_fail_site_kills_unprepared_transaction_everywhere():
    system = _build(group_commit=8, hold=100)
    assert system.invoke("T1", "X", inv("increment", 1), random.Random(0)).ok
    victims = system.fail_site(1)
    assert victims == {"T1"}
    assert system.status("T1") == "aborted"
    assert not system.objects["X"].locks.holders()
    assert system.domain_failures[1] == 1


def test_fail_site_during_prepare_held_batch_kills():
    # group_commit=8, hold=100: prepare forces sit in held batches, so
    # no commit record is durable anywhere when the site dies.
    system = _build(group_commit=8, hold=100)
    assert system.invoke("T1", "X", inv("increment", 1), random.Random(0)).ok
    assert system.commit("T1") is False  # parked on the prepare flush
    victims = system.fail_site(1)
    assert victims == {"T1"}
    assert system.status("T1") == "aborted"
    for name in system.copies_of("X"):
        assert "T1" in system.objects[name].history().aborted()


def test_fail_site_mid_commit_completes_from_surviving_record():
    # Drive 2PC past prepare (hold expiry flushes the batch) into
    # submit: commit records parked at both sites.  The failed site
    # loses its volatile tail, but the healthy site's record survives
    # (its process is alive), so resolution completes the commit.
    system = _build(group_commit=8, hold=2)
    assert system.invoke("T1", "X", inv("increment", 1), random.Random(0)).ok
    assert system.commit("T1") is False
    for _ in range(3):
        system.tick()  # hold expiry: prepare batch flushes
    assert system.commit("T1") is False  # submit: commit records parked
    victims = system.fail_site(1)
    assert victims == set()
    assert system.status("T1") == "committed"
    assert system.objects["X"].wal.has_durable_commit("T1")
    assert "T1" in system.objects["X"].history().committed()


def test_fail_site_completes_commit_past_the_commit_point():
    system = _build(group_commit=8, hold=100)
    assert system.invoke("T1", "X", inv("increment", 1), random.Random(0)).ok
    assert system.commit("T1") is False
    for name in system.copies_of("X"):
        system.objects[name].wal.log.force()  # prepare durability lands
    assert system.commit("T1") is False  # submit: records parked
    system.objects["X@s1"].wal.log.force()  # the commit point
    victims = system.fail_site(0)
    assert victims == set()
    assert system.status("T1") == "committed"
    assert "T1" in system.objects["X@s1"].history().committed()


@pytest.mark.parametrize("recovery", ["DU", "UIP"])
def test_resolution_forces_a_healthy_copys_held_commit_record(recovery):
    # group_commit=4, hold=4: T1's commit records sit in held batches at
    # both copies when site 0 fails.  The commit point is reached (the
    # healthy copy's record is in its log), so resolution commits T1 —
    # and must flush that record before acknowledging, or a crash of
    # site 1 inside the hold window loses an acknowledged commit.
    system = _build(recovery=recovery, group_commit=4, hold=4)
    assert system.invoke("T1", "X", inv("increment", 1), random.Random(0)).ok
    assert system.commit("T1") is False  # prepare requests held
    for name in system.copies_of("X"):
        system.objects[name].wal.log.force()
    assert system.commit("T1") is False  # commit records held
    survivor = system.objects["X@s1"]
    ticket = survivor.wal._tickets["T1"]
    assert not survivor.wal.log.flushed(ticket)
    assert system.fail_site(0) == set()
    assert system.status("T1") == "committed"
    assert survivor.wal.log.flushed(ticket)
    assert survivor.wal.log.held_batch_size() == 0
    system.fail_site(1)  # before the hold timer would have fired
    for site in range(system.sites):
        system.recover_site(site)
    system.poll_catchup()
    assert audit_replication(system, "gc4", "site0,site1") == []
    system.crash()
    assert audit_recovery(system, "gc4", "site0,site1") == []


def test_fail_site_refuses_a_copy_without_a_log_before_any_state_moves():
    """A copy with no stable log cannot restart, so failing its site is
    refused — and the site, its failure count and every membership set
    are as they were: the site can still serve and fail later."""
    logged, volatile = make_adt("counter", "X"), make_adt("counter", "X@s1")
    system = ReplicatedSystem(
        [[
            ManagedObject(logged, logged.nfc_conflict(), "DU", log=StableLog()),
            ManagedObject(volatile, volatile.nfc_conflict(), "DU"),
        ]],
        sites=2,
    )
    assert system.invoke("T1", "X", inv("increment", 1)).ok

    def state():
        return (
            [system.site_up(k) for k in range(system.sites)],
            list(system.domain_failures),
            set(system._current),
            set(system._qualified),
            set(system._pending_catchup),
            system._membership_epoch,
        )

    before = state()
    with pytest.raises(ValueError, match="X@s1"):
        system.fail_site(1)
    assert state() == before
    assert system.status("T1") == "active"
    with pytest.raises(ReplicationError, match="already up"):
        system.recover_site(1)
    assert system.commit("T1")


def test_fail_site_spares_read_only_traffic_elsewhere():
    system = _build()
    _commit_writes(system, "W", "X", 1)
    reader = "R1"
    system.begin_readonly(reader)
    out = system.snapshot_read(reader, "X", inv("read"))
    assert out.ok
    observed_site = system.domain_of[system._ro_observations[reader][0][0]]
    other = 1 - observed_site
    victims = system.fail_site(other)
    assert reader not in victims
    system.finish_readonly(reader)
    assert system.status(reader) == "committed"


def test_fail_site_kills_readers_that_observed_it():
    system = _build()
    _commit_writes(system, "W", "X", 1)
    system.begin_readonly("R1")
    assert system.snapshot_read("R1", "X", inv("read")).ok
    observed_site = system.domain_of[system._ro_observations["R1"][0][0]]
    victims = system.fail_site(observed_site)
    assert "R1" in victims


# ---------------------------------------------------------------------------
# recovery: writes immediately, reads only after a committed write
# ---------------------------------------------------------------------------


def test_recovered_copy_serves_writes_but_not_reads():
    system = _build()
    rng = random.Random(0)
    _commit_writes(system, "T1", "X", 1)
    system.fail_site(1)
    _commit_writes(system, "T2", "X", 2)  # the copy misses this commit
    system.recover_site(1)
    assert system.is_current("X@s1")  # caught up: in lockstep again
    assert not system.is_qualified("X@s1")  # but not serving reads
    # catch-up replayed the missed commit into the copy's own state
    assert (
        system.objects["X@s1"].committed_tip
        == system.objects["X"].committed_tip
    )
    # reads route around it
    assert system.invoke("T3", "X", inv("read"), rng).ok
    assert "X@s1" not in system._touched["T3"]
    assert system.commit("T3") is True
    # a write lands at the copy immediately...
    assert system.invoke("T4", "X", inv("increment", 3), rng).ok
    assert "X@s1" in system._touched["T4"]
    assert not system.is_qualified("X@s1")  # ...but only its *commit*
    assert system.commit("T4") is True
    assert system.is_qualified("X@s1")  # re-qualifies the copy
    assert system.requalifications[1] == 1


def test_aborted_write_does_not_requalify():
    system = _build()
    rng = random.Random(0)
    _commit_writes(system, "T1", "X", 1)
    system.fail_site(1)
    system.recover_site(1)
    assert system.invoke("T2", "X", inv("increment", 1), rng).ok
    system.abort("T2")
    assert not system.is_qualified("X@s1")


def test_write_then_read_round_trip_after_recovery():
    system = _build()
    rng = random.Random(0)
    _commit_writes(system, "T1", "X", 5)
    system.fail_site(1)
    _commit_writes(system, "T2", "X", 7)
    system.recover_site(1)
    _commit_writes(system, "T3", "X", 11)  # re-qualifies X@s1
    # force reads onto the recovered copy by failing the other site
    system.fail_site(0)
    out = system.invoke("T4", "X", inv("read"), rng)
    assert out.ok
    assert out.operation.response == 5 + 7 + 11  # nothing stale
    assert system._touched["T4"] == {"X@s1"}


# ---------------------------------------------------------------------------
# double failure: every copy down
# ---------------------------------------------------------------------------


def test_all_sites_down_blocks_cleanly():
    system = _build()
    rng = random.Random(0)
    _commit_writes(system, "T1", "X", 1)
    system.fail_site(0)
    system.fail_site(1)
    for invocation in (inv("read"), inv("increment", 1)):
        out = system.invoke("T2", "X", invocation, rng)
        assert out.status == "blocked"
        assert not out.blockers  # nothing to wait out but recovery
    system.abort("T2")  # the scheduler's aging victim path
    assert system.status("T2") == "aborted"


def test_no_qualified_copy_blocks_reads_until_a_commit():
    system = _build()
    rng = random.Random(0)
    _commit_writes(system, "T1", "X", 1)
    system.fail_site(0)
    system.fail_site(1)
    system.recover_site(0)
    system.recover_site(1)
    # both copies recovered, neither re-qualified: reads wait ...
    assert system.invoke("T2", "X", inv("read"), rng).status == "blocked"
    # ... writes proceed, and their commit re-opens the read path
    _commit_writes(system, "T3", "X", 2)
    out = system.invoke("T4", "X", inv("read"), rng)
    assert out.ok
    assert out.operation.response == 3


# ---------------------------------------------------------------------------
# snapshot reads route only to read-qualified copies at the CSN cut
# ---------------------------------------------------------------------------


def test_snapshot_reader_avoids_requalified_copy_with_older_snapshot():
    system = _build(["Y"])
    _commit_writes(system, "W1", "Y", 1)
    system.fail_site(1)
    _commit_writes(system, "W2", "Y", 1)  # missed by the down copy
    system.begin_readonly("R_old")  # snapshot before re-qualification
    system.recover_site(1)
    _commit_writes(system, "W3", "Y", 1)  # re-qualifies Y@s1
    out = system.snapshot_read("R_old", "Y", inv("read"))
    assert out.ok
    # the requalified copy's chain has a gap below its requalification
    # CSN; the old snapshot must be served by the never-failed copy
    assert system._ro_observations["R_old"][0][0] == "Y"
    system.finish_readonly("R_old")
    assert system.status("R_old") == "committed"


def test_snapshot_reader_uses_requalified_copy_for_fresh_snapshot():
    system = _build(["Y"])
    _commit_writes(system, "W1", "Y", 1)
    system.fail_site(1)
    _commit_writes(system, "W2", "Y", 1)
    system.recover_site(1)
    _commit_writes(system, "W3", "Y", 1)
    system.fail_site(0)  # only the requalified copy remains
    system.begin_readonly("R_new")
    out = system.snapshot_read("R_new", "Y", inv("read"))
    assert out.ok
    assert system._ro_observations["R_new"][0][0] == "Y@s1"
    system.finish_readonly("R_new")
    assert system.status("R_new") == "committed"


# ---------------------------------------------------------------------------
# administrative edges
# ---------------------------------------------------------------------------


def test_double_fail_and_double_recover_are_rejected():
    system = _build()
    system.fail_site(1)
    with pytest.raises(ReplicationError, match="already down"):
        system.fail_site(1)
    system.recover_site(1)
    with pytest.raises(ReplicationError, match="already up"):
        system.recover_site(1)


def test_whole_system_crash_requires_all_sites_up():
    system = _build()
    system.fail_site(1)
    with pytest.raises(ReplicationError, match="recover all sites"):
        system.crash()
    system.recover_site(1)
    system.crash()  # fine once every site is back


# ---------------------------------------------------------------------------
# trace events
# ---------------------------------------------------------------------------


def test_site_failure_and_requalification_emit_trace_events():
    system = _build()
    trace = TraceCollector()
    system.bind_trace(trace)
    _commit_writes(system, "T1", "X", 1)
    system.fail_site(1)
    system.recover_site(1)
    _commit_writes(system, "T2", "X", 2)
    kinds = [e["kind"] for e in trace.events]
    assert "site-failure" in kinds
    assert "site-recovery" in kinds
    assert "copy-requalified" in kinds
    requalified = next(
        e for e in trace.events if e["kind"] == "copy-requalified"
    )
    assert requalified["obj"] == "X"
    assert requalified["site"] == 1
