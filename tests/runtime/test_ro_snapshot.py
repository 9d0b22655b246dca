"""Tests for the multiversion snapshot read path (read-only transactions).

The load-bearing properties:

* read-only transactions acquire **zero locks** — no entry in any
  :class:`LockManager`, ever (every lock is taken by a response event,
  so the response events of each object's history are the audit surface);
* snapshot reads observe the committed state as of the transaction's
  start CSN, unmoved by later commits;
* version chains only ever hold **durably committed** states: every
  installed version's transaction has a durable commit record, and a
  crash can never surface a volatile-tail commit to a reader;
* whole-system crashes kill every active reader; shard crashes kill
  only the readers that actually read from the crashed shard;
* mixed RO/RW runs still pass the dynamic-atomicity audit (readers
  appear in no object history) and their traces reconcile.
"""

import random

import pytest

from repro.adts.registry import make_adt
from repro.core.atomicity import is_dynamic_atomic
from repro.core.events import inv
from repro.runtime.errors import InvalidTransactionState
from repro.runtime.metrics import RunMetrics
from repro.runtime.scheduler import Scheduler, TransactionScript
from repro.runtime.sharding import ShardedSystem, shard_of
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.torture import TortureConfig, configs_for, run_torture
from repro.runtime.trace import (
    TraceCollector,
    reconcile,
    validate_event,
)
from repro.runtime.wal import GroupCommitPolicy, StableLog
from repro.runtime.workloads import (
    hotspot_banking,
    readonly_snapshot_workload,
)


def counter_system():
    adt = make_adt("counter")
    obj = ManagedObject(adt, adt.nfc_conflict(), "DU")
    return TransactionSystem([obj]), adt, obj


def commit_increment(system, adt, txn, amount=1):
    outcome = system.invoke(txn, adt.name, inv("increment", amount))
    assert outcome.status == "ok"
    assert system.commit(txn)


# ---------------------------------------------------------------------------
# version chains
# ---------------------------------------------------------------------------


class TestVersionChain:
    def test_chain_starts_at_anchor_and_installs_in_commit_order(self):
        system, adt, obj = counter_system()
        assert obj.versions == ((0, None, adt.initial_macro_state()),)
        system.begin_readonly("PIN")  # hold the chain open
        commit_increment(system, adt, "T1")
        commit_increment(system, adt, "T2")
        csns = [csn for csn, _txn, _macro in obj.versions]
        txns = [txn for _csn, txn, _macro in obj.versions]
        assert csns == sorted(csns)
        assert "T1" in txns and "T2" in txns

    def test_install_rejects_non_monotone_csn(self):
        system, adt, obj = counter_system()
        commit_increment(system, adt, "T1")
        tip = obj.versions[-1][0]
        with pytest.raises(ValueError):
            obj.install_version(tip - 1, "bogus")

    def test_version_at_picks_newest_at_or_below(self):
        system, adt, obj = counter_system()
        # Hold a reader open at CSN 0 so nothing is pruned.
        system.begin_readonly("RO")
        commit_increment(system, adt, "T1")
        commit_increment(system, adt, "T2")
        assert obj.version_at(0) == adt.initial_macro_state()
        assert obj.version_at(1) == obj.versions[1][2]
        # A CSN past the tip resolves to the tip.
        assert obj.version_at(99) == obj.versions[-1][2]

    def test_prune_keeps_watermark_version_and_raises_past_it(self):
        system, adt, obj = counter_system()
        system.begin_readonly("RO")
        for t in range(4):
            commit_increment(system, adt, "T%d" % t)
        assert len(obj.versions) == 5
        obj.prune_versions(3)
        # The newest version at or below the watermark survives.
        assert obj.version_at(3) is not None
        with pytest.raises(InvalidTransactionState):
            obj.version_at(1)

    def test_chains_prune_to_tip_with_no_active_readers(self):
        system, adt, obj = counter_system()
        for t in range(4):
            commit_increment(system, adt, "T%d" % t)
        # No reader ever started: only the newest version is retained.
        assert len(obj.versions) == 1


# ---------------------------------------------------------------------------
# snapshot semantics
# ---------------------------------------------------------------------------


class TestSnapshotReads:
    def test_reads_pin_to_start_state_despite_later_commits(self):
        system, adt, obj = counter_system()
        commit_increment(system, adt, "T1")
        first = system.snapshot_read("RO", adt.name, inv("read"))
        assert first.status == "ok"
        commit_increment(system, adt, "T2")
        commit_increment(system, adt, "T3")
        second = system.snapshot_read("RO", adt.name, inv("read"))
        assert second.operation == first.operation
        # A fresh reader does observe the later commits.
        fresh = system.snapshot_read("RO2", adt.name, inv("read"))
        assert fresh.operation != first.operation

    def test_observations_match_the_snapshot_version(self):
        system, adt, obj = counter_system()
        commit_increment(system, adt, "T1")
        system.snapshot_read("RO", adt.name, inv("read"))
        commit_increment(system, adt, "T2")
        system.snapshot_read("RO", adt.name, inv("read"))
        snap = system.readonly_snapshot("RO")
        for obj_name, operation in system.readonly_observations("RO"):
            assert operation == system.object(obj_name).read_at(
                snap, operation.invocation
            )
        system.finish_readonly("RO")
        assert system.status("RO") == "committed"

    def test_readonly_cannot_mix_with_update_path(self):
        system, adt, _obj = counter_system()
        system.invoke("T1", adt.name, inv("increment", 1))
        with pytest.raises(InvalidTransactionState):
            system.begin_readonly("T1")

    def test_readonly_abort_drops_the_snapshot(self):
        system, adt, _obj = counter_system()
        system.snapshot_read("RO", adt.name, inv("read"))
        system.abort("RO")
        assert system.status("RO") == "aborted"


# ---------------------------------------------------------------------------
# zero locks
# ---------------------------------------------------------------------------


class TestZeroLocks:
    def _mixed_run(self, seed=3):
        rng = random.Random(seed)
        adt = make_adt("bank")
        scripts = hotspot_banking(
            rng, obj=adt.name, transactions=6, ops_per_txn=3
        )
        readers = readonly_snapshot_workload(
            adt, rng, objs=[adt.name], readers=4, reads_per_txn=3
        )
        system = TransactionSystem(
            [ManagedObject(adt, adt.nfc_conflict(), "DU")]
        )
        metrics = Scheduler(
            system, scripts + readers, seed=seed, label="ro-mixed"
        ).run()
        return system, adt, metrics, readers

    def test_readers_never_touch_any_lock_manager(self):
        system, adt, metrics, readers = self._mixed_run()
        reader_names = {s.name for s in readers}
        assert metrics.ro_committed == len(readers)
        assert metrics.ro_snapshot_reads == sum(
            len(s.steps) for s in readers
        )
        for obj in system.objects.values():
            held_ever = {e.txn for e in obj.history() if e.is_response}
            assert not any(
                name.split("~")[0] in reader_names for name in held_ever
            )
            assert held_ever  # the writers did lock

    def test_readers_stay_out_of_the_audited_history(self):
        system, adt, metrics, readers = self._mixed_run()
        history = system.history()
        reader_names = {s.name for s in readers}
        assert not reader_names & {
            e.txn for e in history.events
        }
        assert is_dynamic_atomic(history, {adt.name: adt})

    def test_locked_baseline_does_lock(self):
        rng = random.Random(3)
        adt = make_adt("bank")
        readers = readonly_snapshot_workload(
            adt, rng, objs=[adt.name], readers=2, reads_per_txn=2,
            snapshot=False,
        )
        system = TransactionSystem(
            [ManagedObject(adt, adt.nfc_conflict(), "DU")]
        )
        metrics = Scheduler(system, readers, seed=3, label="ro-locked").run()
        assert metrics.ro_committed == 0
        assert metrics.committed == 2
        obj = system.object(adt.name)
        held_ever = {e.txn for e in obj.history() if e.is_response}
        assert held_ever


# ---------------------------------------------------------------------------
# crashes: durable visibility
# ---------------------------------------------------------------------------


def durable_counter_system(policy=None):
    adt = make_adt("counter")
    obj = ManagedObject(adt, adt.nfc_conflict(), "DU", log=StableLog(policy=policy))
    return TransactionSystem([obj]), adt, obj


class TestCrashVisibility:
    def test_crash_kills_active_readers(self):
        system, adt, _obj = durable_counter_system()
        commit_increment(system, adt, "T1")
        system.snapshot_read("RO", adt.name, inv("read"))
        victims = system.crash()
        assert "RO" in victims
        assert system.status("RO") == "aborted"

    def test_installed_versions_all_have_durable_commit_records(self):
        system, adt, obj = durable_counter_system()
        system.begin_readonly("PIN")  # hold the chain open
        for t in range(3):
            commit_increment(system, adt, "T%d" % t)
        for _csn, txn, _macro in obj.versions:
            if txn is not None:
                assert obj.wal.commit_lsn(txn) is not None

    def test_volatile_tail_commit_never_reaches_readers(self):
        # Group commit holds the commit record in an unflushed batch: the
        # "commit" is volatile.  A crash must resolve the transaction as
        # killed, and no reader — before or after the crash — may ever
        # observe its effect.
        system, adt, obj = durable_counter_system(
            policy=GroupCommitPolicy(8, 100)
        )
        assert system.invoke("T1", adt.name, inv("increment", 1)).status == "ok"
        for _ in range(300):  # T1's batch flushes when the hold expires
            if system.commit("T1"):
                break
            system.tick()
        assert system.status("T1") == "committed"
        before = system.snapshot_read("RO1", adt.name, inv("read"))
        outcome = system.invoke("T2", adt.name, inv("increment", 1))
        assert outcome.status == "ok"
        assert not system.commit("T2")  # commit record held, not durable
        assert system.status("T2") == "active"
        tip_before = obj.versions[-1]
        victims = system.crash()
        assert "T2" in victims
        assert system.status("T2") == "aborted"
        # The chain tip is unchanged: T2 was never installed.
        assert obj.versions[-1] == tip_before
        assert "T2" not in [txn for _c, txn, _m in obj.versions]
        after = system.snapshot_read("RO2", adt.name, inv("read"))
        assert after.operation == before.operation

    def test_crash_resolved_commit_is_installed_for_readers(self):
        # The dual case: the commit record IS durable but the crash
        # interrupts completion.  Resolution must finish the commit and
        # install the version, so post-crash readers observe it.
        system, adt, obj = durable_counter_system()
        commit_increment(system, adt, "T1")
        tip = obj.versions[-1]
        assert tip[1] == "T1"
        system.crash()
        observed = system.snapshot_read("RO", adt.name, inv("read"))
        assert observed.status == "ok"
        assert observed.operation == obj.read_at(
            obj.versions[-1][0], inv("read")
        )


# ---------------------------------------------------------------------------
# shard crashes
# ---------------------------------------------------------------------------


def sharded_counter_system():
    # A4 hashes to shard 0, A0 to shard 1 (CRC-32 placement is stable).
    names = ["A4", "A0"]
    assert [shard_of(n, 2) for n in names] == [0, 1]
    objs = []
    for name in names:
        adt = make_adt("counter", name)
        objs.append(ManagedObject(adt, adt.nfc_conflict(), "DU", log=StableLog()))
    return ShardedSystem(objs, shards=2), names


class TestShardCrashVisibility:
    def test_shard_crash_kills_only_its_readers(self):
        system, (on0, on1) = sharded_counter_system()
        for name in (on0, on1):
            assert system.invoke("T1", name, inv("increment", 1)).status == "ok"
        assert system.commit("T1")
        system.snapshot_read("RO0", on0, inv("read"))
        system.snapshot_read("RO1", on1, inv("read"))
        victims = system.crash_shard(0)
        assert "RO0" in victims
        assert "RO1" not in victims
        assert system.status("RO0") == "aborted"
        # The surviving reader keeps reading its untouched snapshot and
        # commits cleanly: chains are never retracted.
        again = system.snapshot_read("RO1", on1, inv("read"))
        assert again.status == "ok"
        system.finish_readonly("RO1")
        assert system.status("RO1") == "committed"

    def test_cross_shard_snapshot_is_cut_at_one_csn(self):
        system, (on0, on1) = sharded_counter_system()
        for txn, amount in (("T1", 1), ("T2", 2)):
            for name in (on0, on1):
                assert (
                    system.invoke(txn, name, inv("increment", amount)).status
                    == "ok"
                )
            assert system.commit(txn)
        # Both objects were stamped under the same CSN per commit.
        csns0 = [c for c, t, _m in system.object(on0).versions if t]
        csns1 = [c for c, t, _m in system.object(on1).versions if t]
        assert csns0 == csns1
        # A reader started now sees *both* objects at the same cut.
        snap_reads = {
            name: system.snapshot_read("RO", name, inv("read")).operation
            for name in (on0, on1)
        }
        snap = system.readonly_snapshot("RO")
        for name, operation in snap_reads.items():
            assert operation == system.object(name).read_at(
                snap, inv("read")
            )


# ---------------------------------------------------------------------------
# trace reconciliation with readers
# ---------------------------------------------------------------------------


class TestTracedMixedRuns:
    def test_mixed_run_reconciles_and_emits_ro_kinds(self):
        rng = random.Random(5)
        adt = make_adt("bank")
        scripts = hotspot_banking(
            rng, obj=adt.name, transactions=5, ops_per_txn=2
        )
        readers = readonly_snapshot_workload(
            adt, rng, objs=[adt.name], readers=3, reads_per_txn=2
        )
        system = TransactionSystem(
            [ManagedObject(adt, adt.nfc_conflict(), "DU")]
        )
        trace = TraceCollector()
        metrics = Scheduler(
            system, scripts + readers, seed=5, label="ro-traced", trace=trace
        ).run()
        for event in trace.events:
            assert validate_event(event) is None
        results = reconcile(trace.events)
        assert results and all(r.ok for r in results)
        assert results[0].reported == metrics.counters()
        kinds = {e["kind"] for e in trace.events}
        assert "snapshot-read" in kinds
        assert "ro-commit" in kinds
        assert metrics.ro_committed == 3


# ---------------------------------------------------------------------------
# torture matrix with readers riding along
# ---------------------------------------------------------------------------


class TestTortureWithReaders:
    def test_label_carries_the_read_mix(self):
        assert TortureConfig("bank", read_mix=0.5).label().endswith("/ro0.5")
        assert "/ro" not in TortureConfig("bank").label()

    def test_crash_schedules_hold_invariants_with_readers(self):
        configs = configs_for(
            ["bank", "counter"],
            ("DU", "UIP"),
            transactions=4,
            ops_per_txn=2,
            read_mix=0.5,
        )
        report = run_torture(configs, schedules=len(configs) * 2, seed=1)
        assert report.ok, report.format()
        assert report.crashes > 0
        assert report.committed > 0

    def test_observerless_adts_just_get_no_readers(self):
        from repro.runtime.torture import workload_for

        config = TortureConfig("fifo", transactions=4, read_mix=0.5)
        adt = make_adt("fifo")
        scripts = workload_for(config, adt, random.Random(0))
        assert not any(s.read_only for s in scripts)

    def test_reader_scripts_ride_along_for_observer_adts(self):
        from repro.runtime.torture import workload_for

        config = TortureConfig("bank", transactions=4, read_mix=0.5)
        adt = make_adt("bank")
        scripts = workload_for(config, adt, random.Random(0))
        assert sum(1 for s in scripts if s.read_only) == 2
