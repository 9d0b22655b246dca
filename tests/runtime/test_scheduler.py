"""Unit and integration tests for the discrete-event scheduler.

The integration tests are the reproduction's keystone: every history the
concrete runtime produces — under either recovery method with its
matching conflict relation — must be dynamic atomic per the *abstract*
checker.
"""

import pytest

from repro.adts import BankAccount, FifoQueue, SemiQueue, SetADT
from repro.core.atomicity import is_dynamic_atomic
from repro.core.conflict import EmptyConflict
from repro.core.events import inv
from repro.runtime import (
    ManagedObject,
    TransactionSystem,
    hotspot_banking,
    producer_consumer,
    run_scripts,
    set_membership_workload,
)
from repro.runtime.scheduler import Scheduler, TransactionScript
from repro.runtime.trace import TraceCollector, reconcile


def single_object_system(adt, conflict, recovery):
    return TransactionSystem([ManagedObject(adt, conflict, recovery)])


class TestSchedulerBasics:
    def test_unique_names_required(self):
        ba = BankAccount("BA")
        system = single_object_system(ba, ba.nrbc_conflict(), "UIP")
        scripts = [
            TransactionScript("T", ((("BA"), inv("deposit", 1)),)),
            TransactionScript("T", ((("BA"), inv("deposit", 1)),)),
        ]
        with pytest.raises(ValueError):
            Scheduler(system, scripts)

    def test_all_commit_when_compatible(self):
        ba = BankAccount("BA")
        system = single_object_system(ba, ba.nrbc_conflict(), "UIP")
        scripts = [
            TransactionScript("T%d" % i, (("BA", inv("deposit", 1)),))
            for i in range(5)
        ]
        metrics = run_scripts(system, scripts, seed=1)
        assert metrics.committed == 5
        assert metrics.aborted == 0

    def test_metrics_count_operations(self):
        ba = BankAccount("BA")
        system = single_object_system(ba, ba.nrbc_conflict(), "UIP")
        scripts = [
            TransactionScript("T0", (("BA", inv("deposit", 1)), ("BA", inv("deposit", 2))))
        ]
        metrics = run_scripts(system, scripts, seed=0)
        assert metrics.operations == 2
        assert metrics.throughput > 0

    def test_blocking_recorded(self):
        ba = BankAccount("BA")
        system = single_object_system(ba, ba.nrbc_conflict(), "UIP")
        scripts = [
            TransactionScript("T0", (("BA", inv("balance")), ("BA", inv("balance")))),
            TransactionScript("T1", (("BA", inv("deposit", 1)),)),
        ]
        metrics = run_scripts(system, scripts, seed=3)
        assert metrics.committed == 2
        assert metrics.blocked_attempts >= 1

    def test_deadlock_broken_and_restarted(self):
        """Two transactions that each read then write force an upgrade
        deadlock; the scheduler must abort one and still finish."""
        ba = BankAccount("BA")
        system = single_object_system(ba, ba.nrbc_conflict(), "UIP")
        scripts = [
            TransactionScript("T0", (("BA", inv("balance")), ("BA", inv("deposit", 1)))),
            TransactionScript("T1", (("BA", inv("balance")), ("BA", inv("deposit", 2)))),
        ]
        metrics = run_scripts(system, scripts, seed=5)
        assert metrics.committed == 2
        assert metrics.deadlocks >= 1
        assert metrics.restarts >= 1

    def test_stuck_du_transaction_aborted(self):
        """Under-constrained DU (empty conflicts): the double withdrawal
        leaves the later committer with a poisoned view, which the
        scheduler aborts as 'stuck' rather than hanging."""
        ba = BankAccount("BA")
        system = single_object_system(ba, EmptyConflict(), "DU")
        scripts = [
            TransactionScript("A", (("BA", inv("deposit", 2)),)),
            TransactionScript("B", (("BA", inv("withdraw", 2)), ("BA", inv("balance")))),
            TransactionScript("C", (("BA", inv("withdraw", 2)), ("BA", inv("balance")))),
        ]
        # Run several seeds; at least one interleaving poisons a view.
        saw_stuck = False
        for seed in range(12):
            system = single_object_system(BankAccount("BA"), EmptyConflict(), "DU")
            metrics = run_scripts(system, scripts, seed=seed)
            saw_stuck = saw_stuck or metrics.stuck_aborts > 0
        assert saw_stuck

    def test_restart_budget_respected(self):
        ba = BankAccount("BA")
        system = single_object_system(ba, ba.nrbc_conflict(), "UIP")
        scripts = [
            TransactionScript("T0", (("BA", inv("balance")), ("BA", inv("deposit", 1)))),
            TransactionScript("T1", (("BA", inv("balance")), ("BA", inv("deposit", 2)))),
        ]
        metrics = run_scripts(system, scripts, seed=5, max_restarts=0)
        # With no restarts allowed, a deadlock victim is simply lost.
        assert metrics.committed + metrics.aborted >= 2

    def test_refused_commit_is_an_abort_and_restart(self):
        """``system.commit`` aborts a transaction some object votes no
        on and returns False; the scheduler restarts the script (it used
        to poll the dead transaction again and let
        ``InvalidTransactionState`` escape ``run``)."""

        class RefusesOnce(ManagedObject):
            refused = False

            def prepare(self, txn):
                if not self.refused:
                    self.refused = True
                    return False
                return super().prepare(txn)

        ba = BankAccount("BA")
        system = TransactionSystem([RefusesOnce(ba, ba.nrbc_conflict(), "UIP")])
        trace = TraceCollector()
        metrics = Scheduler(
            system,
            [TransactionScript("T0", (("BA", inv("deposit", 1)),))],
            trace=trace,
        ).run()
        assert (metrics.committed, metrics.aborted, metrics.restarts) == (1, 1, 1)
        assert system.status("T0") == "aborted"
        assert system.status("T0~r1") == "committed"
        aborts = [e for e in trace.events if e["kind"] == "txn-abort"]
        assert [(e["txn"], e["reason"]) for e in aborts] == [("T0", "validation")]
        assert all(r.ok for r in reconcile(trace.events))
        assert system.objects["BA"].committed_tip == frozenset({1})


WORKLOAD_CASES = [
    pytest.param(
        lambda: BankAccount("BA", opening=20),
        lambda rng: hotspot_banking(rng, transactions=6, ops_per_txn=2),
        id="banking",
    ),
    pytest.param(
        lambda: SemiQueue("Q"),
        lambda rng: producer_consumer(rng, obj="Q", producers=3, consumers=3, ops_per_txn=2),
        id="semiqueue",
    ),
    pytest.param(
        lambda: FifoQueue("Q"),
        lambda rng: producer_consumer(rng, obj="Q", producers=3, consumers=3, ops_per_txn=2),
        id="fifo",
    ),
    pytest.param(
        lambda: SetADT("SET"),
        lambda rng: set_membership_workload(rng, transactions=6, ops_per_txn=2),
        id="set",
    ),
]


class TestEndToEndDynamicAtomicity:
    """The runtime's histories pass the paper's correctness criterion."""

    @pytest.mark.parametrize("adt_factory, workload", WORKLOAD_CASES)
    @pytest.mark.parametrize("seed", range(4))
    def test_uip_nrbc_histories_dynamic_atomic(self, adt_factory, workload, seed):
        import random

        adt = adt_factory()
        system = single_object_system(adt, adt.nrbc_conflict(), "UIP")
        scripts = workload(random.Random(seed))
        run_scripts(system, scripts, seed=seed)
        assert is_dynamic_atomic(system.history(), adt)

    @pytest.mark.parametrize("adt_factory, workload", WORKLOAD_CASES)
    @pytest.mark.parametrize("seed", range(4))
    def test_du_nfc_histories_dynamic_atomic(self, adt_factory, workload, seed):
        import random

        adt = adt_factory()
        system = single_object_system(adt, adt.nfc_conflict(), "DU")
        scripts = workload(random.Random(seed))
        run_scripts(system, scripts, seed=seed)
        assert is_dynamic_atomic(system.history(), adt)

    def test_multi_object_transfers_atomic(self):
        import random

        from repro.core.atomicity import is_atomic
        from repro.runtime import mixed_transfers

        adts = [BankAccount("ACC%d" % i, opening=10) for i in range(1, 4)]
        system = TransactionSystem(
            [ManagedObject(a, a.nrbc_conflict(), "UIP") for a in adts]
        )
        scripts = mixed_transfers(
            random.Random(2), objs=("ACC1", "ACC2", "ACC3"), transactions=6
        )
        metrics = run_scripts(system, scripts, seed=2)
        assert metrics.committed >= 1
        h = system.history()
        assert is_dynamic_atomic(h, {a.name: a for a in adts})
