"""The optimistic (commit-time-validated) protocol.

An optimistic object is a plain :class:`ManagedObject` built with an
:class:`~repro.core.conflict.AtCommit` relation, in a plain
:class:`TransactionSystem` under the plain :class:`Scheduler`; there is
no second object class, system or driver to test.  Given a stable log it
is durable: group commit, crashes and checkpoints as for any object.
"""

import random

import pytest

from repro.adts import BankAccount, SemiQueue, SetADT
from repro.core.atomicity import is_dynamic_atomic
from repro.core.conflict import AtCommit
from repro.core.events import inv
from repro.reference import walk_dead_ticks
from repro.runtime import (
    ManagedObject,
    TransactionSystem,
    hotspot_banking,
    mixed_transfers,
    run_scripts,
)
from repro.runtime.errors import InvalidTransactionState
from repro.runtime.scheduler import (
    CHECKPOINT,
    CRASH,
    Fault,
    Scheduler,
    TransactionScript,
)
from repro.runtime.torture import audit_recovery
from repro.runtime.trace import ABORT_REASONS, TraceCollector, reconcile
from repro.runtime.wal import GroupCommitPolicy, StableLog


def at_commit(adt, relation=None, **options):
    """``adt``'s object with ``relation`` (default NFC) enforced at commit."""
    relation = relation or adt.nfc_conflict()
    return ManagedObject(adt, AtCommit(relation), "DU", **options)


def make_system(adt=None):
    adt = adt or BankAccount("BA", opening=10)
    return adt, TransactionSystem([at_commit(adt)])


class TestExecution:
    def test_never_blocks(self):
        ba, system = make_system()
        assert system.invoke("A", "BA", inv("balance")).ok
        assert system.invoke("B", "BA", inv("deposit", 1)).ok  # no blocking

    def test_private_views(self):
        ba, system = make_system(BankAccount("BA"))
        system.invoke("A", "BA", inv("deposit", 5))
        outcome = system.invoke("B", "BA", inv("balance"))
        assert outcome.operation == ba.balance(0)

    def test_pending_invocation_protocol(self):
        ba, system = make_system()
        obj = system.objects["BA"]
        # An optimistic object never blocks on its own locks: a peer's
        # holder keeps the first attempt pending, invocation recorded.
        refused = obj.try_operation(
            "A", inv("deposit", 1), extra_blockers=lambda txn, operation: {"Z"}
        )
        assert (refused.status, refused.blockers) == ("blocked", {"Z"})
        with pytest.raises(InvalidTransactionState):
            obj.try_operation("A", inv("deposit", 2))


class TestValidation:
    def test_non_conflicting_both_commit(self):
        ba, system = make_system()
        system.invoke("A", "BA", inv("deposit", 1))
        system.invoke("B", "BA", inv("deposit", 2))
        assert system.commit("A")
        assert system.commit("B")  # deposits commute forward: validates

    def test_first_committer_wins(self):
        ba, system = make_system(BankAccount("BA", opening=2))
        system.invoke("A", "BA", inv("withdraw", 2))
        system.invoke("B", "BA", inv("withdraw", 2))
        assert system.commit("A")
        assert not system.commit("B")  # (w-ok, w-ok) ∈ NFC: validation fails
        assert system.status("B") == "aborted"

    def test_reader_invalidated_by_update(self):
        ba, system = make_system()
        system.invoke("A", "BA", inv("balance"))
        system.invoke("B", "BA", inv("deposit", 1))
        assert system.commit("B")
        assert not system.commit("A")  # stale read

    def test_commits_before_start_irrelevant(self):
        ba, system = make_system()
        system.invoke("B", "BA", inv("deposit", 1))
        assert system.commit("B")
        system.invoke("A", "BA", inv("balance"))  # starts after B committed
        assert system.commit("A")

    def test_validation_failures_counted(self):
        ba, system = make_system(BankAccount("BA", opening=2))
        system.invoke("A", "BA", inv("withdraw", 2))
        system.invoke("B", "BA", inv("withdraw", 2))
        system.commit("A")
        system.commit("B")
        assert system.objects["BA"].validation_failures == 1


class TestDynamicAtomicity:
    @pytest.mark.parametrize("seed", range(8))
    def test_histories_dynamic_atomic(self, seed):
        ba = BankAccount("BA", opening=5)
        system = TransactionSystem([at_commit(ba)])
        rng = random.Random(seed)
        scripts = []
        for i in range(4):
            steps = []
            for _ in range(2):
                kind = rng.choice(["deposit", "withdraw", "balance"])
                if kind == "balance":
                    steps.append(("BA", inv("balance")))
                else:
                    steps.append(("BA", inv(kind, rng.choice([1, 2]))))
            scripts.append(TransactionScript("T%d" % i, tuple(steps)))
        metrics = run_scripts(system, scripts, seed=seed)
        assert metrics.committed >= 1
        assert is_dynamic_atomic(system.history(), ba)

    @pytest.mark.parametrize("seed", range(4))
    def test_semiqueue_optimistic(self, seed):
        sq = SemiQueue("SQ", domain=("a", "b"))
        system = TransactionSystem([at_commit(sq)])
        rng = random.Random(seed)
        scripts = [
            TransactionScript(
                "T%d" % i,
                tuple(
                    (
                        "SQ",
                        inv("enq", rng.choice(["a", "b"]))
                        if rng.random() < 0.6
                        else inv("deq"),
                    )
                    for _ in range(2)
                ),
            )
            for i in range(4)
        ]
        run_scripts(system, scripts, seed=seed)
        assert is_dynamic_atomic(system.history(), sq)

    @pytest.mark.parametrize("seed", range(4))
    def test_under_constrained_validation_unsafe(self, seed):
        """Validating with NRBC (wrong for DU) admits anomalies."""
        ba = BankAccount("BA", opening=2)
        system = TransactionSystem([at_commit(ba, ba.nrbc_conflict())])
        system.invoke("B", "BA", inv("withdraw", 2))
        system.invoke("C", "BA", inv("withdraw", 2))
        assert system.commit("B")
        assert system.commit("C")  # (w-ok, w-ok) ∉ NRBC: validation passes!
        assert not is_dynamic_atomic(system.history(), ba)


class TestDriver:
    def test_all_scripts_finish(self):
        ba = BankAccount("BA", opening=50)
        system = TransactionSystem([at_commit(ba)])
        scripts = [
            TransactionScript("T%d" % i, (("BA", inv("deposit", 1)),))
            for i in range(5)
        ]
        metrics = run_scripts(system, scripts, seed=0)
        assert metrics.committed == 5
        assert metrics.aborted == 0

    def test_retries_after_validation_failure(self):
        ba = BankAccount("BA", opening=4)
        system = TransactionSystem([at_commit(ba)])
        scripts = [
            TransactionScript("T%d" % i, (("BA", inv("withdraw", 2)),))
            for i in range(2)
        ]
        metrics = run_scripts(system, scripts, seed=3)
        assert metrics.committed == 2  # retry succeeds (enough funds)


def traced_run(seed):
    ba = BankAccount("BA", opening=5)
    system = TransactionSystem([at_commit(ba)])
    trace = TraceCollector()
    scripts = hotspot_banking(random.Random(seed), transactions=6)
    metrics = Scheduler(system, scripts, seed=seed, trace=trace).run()
    return metrics, system, [dict(e) for e in trace.events]


class TestOnTheOneSystem:
    """What only running under the shared scheduler makes expressible."""

    @pytest.mark.parametrize("seed", range(4))
    def test_traced_run_reconciles(self, seed):
        metrics, system, events = traced_run(seed)
        (result,) = reconcile(events)
        assert result.ok, result.mismatches
        assert result.reconstructed["committed"] == metrics.committed == 6
        reasons = {e["reason"] for e in events if e["kind"] == "txn-abort"}
        assert reasons <= set(ABORT_REASONS)
        failures = system.objects["BA"].validation_failures
        assert failures == sum(
            e["kind"] == "txn-abort" and e["reason"] == "validation"
            for e in events
        )

    def test_enforces_conflict_without_making_anyone_wait(self):
        for seed in range(4):
            metrics, _, events = traced_run(seed)
            assert metrics.blocked_attempts == 0 and metrics.deadlocks == 0
            assert not {"op-blocked", "lock-wait", "deadlock"} & {
                e["kind"] for e in events
            }

    def test_no_vote_at_second_object_leaves_the_first_untouched(self):
        a, b = BankAccount("A", opening=2), BankAccount("B", opening=2)
        objs = [at_commit(x) for x in (a, b)]
        system = TransactionSystem(objs)
        system.invoke("T", "A", inv("deposit", 1))
        system.invoke("T", "B", inv("withdraw", 2))
        system.invoke("U", "B", inv("withdraw", 2))
        assert system.commit("U")
        versions = [obj.versions for obj in objs]
        logs = [list(obj._validation_log) for obj in objs]
        assert not system.commit("T")  # A validates, B refuses
        assert system.status("T") == "aborted"
        assert [obj.versions for obj in objs] == versions
        assert [obj._validation_log for obj in objs] == logs
        assert [obj.validation_failures for obj in objs] == [0, 1]
        for obj in objs:
            assert obj.history().aborted() >= {"T"}
            assert "T" not in obj._started and not obj.locks.held_by("T")

    @pytest.mark.parametrize("seed", range(8))
    def test_optimistic_and_locking_objects_in_one_system(self, seed):
        a, b = BankAccount("A", opening=5), BankAccount("B", opening=5)
        system = TransactionSystem(
            [
                at_commit(a),
                ManagedObject(b, b.nfc_conflict(), "DU"),
            ]
        )
        scripts = mixed_transfers(
            random.Random(seed), objs=("A", "B"), transactions=6
        )
        assert run_scripts(system, scripts, seed=seed).committed == 6
        assert is_dynamic_atomic(system.history(), {"A": a, "B": b})

    def test_jumped_equals_walked(self):
        jumped = traced_run(0)
        with walk_dead_ticks():
            walked = traced_run(0)
        assert jumped[0].counters() == walked[0].counters()
        # the run takes the refused-commit path and has ticks to jump
        assert jumped[1].objects["BA"].validation_failures > 0
        assert jumped[0].dead_ticks_elided > 0
        assert jumped[2] == walked[2]
        assert jumped[1].history().events == walked[1].history().events


class TestTheRelationSaysWhen:
    def test_only_deferred_update_is_validated(self):
        ba = BankAccount("BA")
        for recovery in ("UIP", "SUIP"):
            with pytest.raises(ValueError, match="DU"):
                ManagedObject(ba, AtCommit(ba.nfc_conflict()), recovery)

    def test_verdicts_are_the_inner_relations(self):
        ba = BankAccount("BA")
        nfc, wrapped = ba.nfc_conflict(), AtCommit(ba.nfc_conflict())
        ops = (ba.balance(0), ba.deposit(1), ba.withdraw_ok(1), ba.withdraw_no(1))
        assert all(
            wrapped.conflicts(p, q) == nfc.conflicts(p, q) for p in ops for q in ops
        )

    def test_a_locking_object_keeps_no_validation_state(self):
        ba = BankAccount("BA")
        obj = ManagedObject(ba, ba.nfc_conflict(), "DU")
        assert obj._started is obj._validation_log is None
        assert obj.automaton.conflict is obj.conflict


class TestTheValidationLogIsBounded:
    def test_sequential_commits_leave_it_empty(self):
        ba, system = make_system(BankAccount("BA"))
        obj = system.objects["BA"]
        for i in range(100):
            assert system.invoke("T%d" % i, "BA", inv("deposit", 1)).ok
            assert system.commit("T%d" % i)
        assert obj._validation_log == [] and obj._started == {}
        assert obj._validation_base == 100

    def test_a_live_start_keeps_what_it_may_read(self):
        ba, system = make_system(BankAccount("BA"))
        obj = system.objects["BA"]
        system.invoke("L", "BA", inv("balance"))
        for i in range(100):
            system.invoke("T%d" % i, "BA", inv("deposit", 1))
            assert system.commit("T%d" % i)
        assert len(obj._validation_log) == 100  # L may read all of it
        assert not system.commit("L")  # and must: a stale read
        system.invoke("U", "BA", inv("deposit", 1))
        assert system.commit("U")
        assert obj._validation_log == []


def commit_through_batches(system, txn, ticks=8):
    """Poll ``txn``'s commit across end-of-tick phases until it leaves
    the pipeline; its final status."""
    for _ in range(ticks):
        if system.commit(txn) or system.status(txn) != "active":
            break
        system.tick()
    return system.status(txn)


def durable_system(*adts, group_commit=4, hold=2):
    policy = GroupCommitPolicy(group_commit, hold)
    return TransactionSystem(
        [at_commit(adt, log=StableLog(policy=policy)) for adt in adts]
    )


class TestDurable:
    """An at-commit object with a stable log: group commit, crashes and
    checkpoints, audited like any durable object."""

    def test_a_held_yes_vote_is_validated_against(self):
        """Both withdrawals see the whole balance.  The first votes yes
        into a held batch; validating the second only against completed
        commits would let both commit (an overdraft)."""
        ba = BankAccount("BA", opening=2)
        system = durable_system(ba)
        system.invoke("A", "BA", inv("withdraw", 2))
        system.invoke("B", "BA", inv("withdraw", 2))
        assert not system.commit("A") and system.status("A") == "active"
        assert not system.commit("B") and system.status("B") == "aborted"
        assert commit_through_batches(system, "A") == "committed"
        assert system.objects["BA"].validation_failures == 1
        assert is_dynamic_atomic(system.history(), ba)

    def test_a_crash_victims_yes_vote_fails_no_later_validator(self):
        ba = BankAccount("BA", opening=2)
        system = durable_system(ba)
        obj = system.objects["BA"]
        system.invoke("T", "BA", inv("withdraw", 2))
        assert not system.commit("T")  # yes vote, prepare batch held
        assert system.crash() == {"T"}
        assert "T" not in obj._started
        system.invoke("U", "BA", inv("withdraw", 2))
        assert commit_through_batches(system, "U") == "committed"
        assert obj.validation_failures == 0
        assert is_dynamic_atomic(system.history(), ba)

    def test_a_commit_completed_by_recovery_leaves_no_vote(self):
        ba = BankAccount("BA", opening=4)
        system = durable_system(ba)
        obj = system.objects["BA"]
        system.invoke("T", "BA", inv("withdraw", 2))
        assert not system.commit("T")  # yes vote, prepare batch held
        while not obj.flushed("T"):
            system.tick()
        assert not system.commit("T")  # commit record written, batch held
        while not obj.flushed("T"):
            system.tick()
        # The commit point is durable and not yet acknowledged: the
        # crash completes T, and its vote goes with it.
        assert system.crash() == set()
        assert system.status("T") == "committed"
        system.invoke("U", "BA", inv("withdraw", 2))
        assert commit_through_batches(system, "U") == "committed"
        assert obj.validation_failures == 0
        assert is_dynamic_atomic(system.history(), ba)

    @pytest.mark.parametrize("group_commit", (1, 4))
    def test_crash_and_checkpoint_calendar(self, group_commit):
        crashes = 0
        for seed in range(40):
            rng = random.Random(seed)
            a, b = BankAccount("A", opening=100), BankAccount("B", opening=100)
            system = durable_system(a, b, group_commit=group_commit)
            scripts = [
                TransactionScript(
                    "T%d" % i,
                    tuple(
                        (
                            rng.choice("AB"),
                            inv("balance")
                            if rng.random() < 0.4
                            else inv(rng.choice(("deposit", "withdraw")), rng.choice((1, 2))),
                        )
                        for _ in range(3)
                    ),
                )
                for i in range(8)
            ]
            ticks = sorted(rng.sample(range(2, 16), 2))
            faults = [Fault(CRASH, tick) for tick in ticks]
            faults.append(Fault(CHECKPOINT, every=4))
            metrics = Scheduler(system, scripts, seed=seed, faults=faults).run()
            assert metrics.committed == len(scripts), seed
            crashes += system.crash_count
            system.crash()  # the end state restarts cleanly too
            schedule = "crash@%s" % ticks
            assert audit_recovery(system, "at-commit", schedule) == [], seed
        assert crashes >= 40  # the calendar's crashes land inside the runs
