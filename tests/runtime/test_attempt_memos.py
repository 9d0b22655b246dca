"""An attempt looks up what an earlier one worked out — unobservably.

``ManagedObject.try_operation`` reads two memos on its way to an
answer: the interned ground operations (``SerialSpec.operation``) and
the ordered candidates per ``(invocation, enabled responses)``;
``RecoveryManager.enabled_responses`` remembers ``(macro-state,
invocation) -> responses`` besides, and ``LockManager.blockers`` reads
the table's probe row per operation (``ClassifierConflict.probe``: the
``(class, key)`` slots the operation's row asks).  (The manager's
``(class, key)`` index itself is no memo:
``tests/property/test_lock_answer_memo.py`` checks it against one
rebuilt from the holds.)  These tests run seeded closed-loop,
open-loop and crash schedules twice, plainly and under
``repro.reference.recompute_every_answer`` (every remembered answer also
worked out from scratch, ``StaleMemo`` on a difference, the fresh value
handed on), and require the same rows, histories and trace events; then
show the oracle is not vacuous: the memos are hit, and a validity rule
broken on purpose is caught.
"""

import random

import pytest

from repro.adts import BankAccount, KVStore
from repro.core.conflict import ClassifierConflict
from repro.core.events import inv
from repro.core.lock_manager import LockManager
from repro.core.object_automaton import ObjectAutomaton
from repro.core.recovery import RecoveryManager
from repro.core.serial_spec import SerialSpec
from repro.experiments.comparisons import comparison_case, standard_configurations
from repro.reference import StaleMemo, recompute_every_answer
from repro.runtime import ManagedObject, TransactionSystem
from repro.runtime.openloop import OpenLoopConfig
from repro.runtime.scheduler import Scheduler
from repro.runtime.torture import TortureConfig
from repro.runtime.trace import TraceCollector

from ..drive_harness import FLASH_CROWD
from .test_event_scheduler import (
    DRIVE_CASES,
    _drive_cell,
    _site_cells,
    _torture_cells,
)

#: keyed relations (kv, set: a slot per key) and an order comparison
#: (pqueue: the per-pair loop).
KEYED_DRIVES = {
    "kv_hotspot": OpenLoopConfig(
        adt_kind="kv", objects=3, transactions=40, arrival_rate=2.0, zipf_s=1.1
    ),
    "set_sharded": OpenLoopConfig(
        adt_kind="set", objects=4, shards=2, transactions=40,
        arrival_rate=2.0, zipf_s=1.1, cross_shard=0.2,
    ),
    "pqueue_du": OpenLoopConfig(
        adt_kind="pqueue", recovery="DU", objects=2, transactions=40,
        arrival_rate=2.0,
    ),
}


def _plain_and_checked(fn):
    plain = fn()
    with recompute_every_answer():
        checked = fn()
    return plain, checked


def _closed_loop_cell(configuration, seed, transactions=12):
    adt_factory, workload = comparison_case(
        "hotspot", transactions=transactions, ops_per_txn=3
    )
    adt = adt_factory()
    obj = ManagedObject(
        adt, configuration.conflict_factory(adt), configuration.recovery
    )
    system = TransactionSystem([obj])
    trace = TraceCollector()
    metrics = Scheduler(
        system, workload(random.Random(seed)), seed=seed, trace=trace
    ).run()
    return (
        metrics.counters(),
        [repr(e) for e in system.history()],
        [dict(e) for e in trace.events],
    )


class TestRememberedVsRecomputed:
    @pytest.mark.parametrize(
        "configuration", standard_configurations(), ids=lambda c: c.label
    )
    @pytest.mark.parametrize("seed", [0, 4])
    def test_closed_loop_on_one_object(self, configuration, seed):
        """The paper's experiment: one object, every waiter woken by
        every grant — where most attempts repeat an earlier question."""
        plain, checked = _plain_and_checked(
            lambda: _closed_loop_cell(configuration, seed)
        )
        assert plain == checked
        assert plain[0]["blocked_attempts"] > plain[0]["operations"] // 2

    @pytest.mark.parametrize(
        "case", ["shards", "sites", "flash_crowd"] + sorted(KEYED_DRIVES)
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_open_loop_drives(self, case, seed):
        """Sharded, replicated through a site failure (``extra_blockers``
        asks the peer copies' managers), a flash crowd, keyed ADTs."""
        config = {**DRIVE_CASES, **KEYED_DRIVES, "flash_crowd": FLASH_CROWD}[case]
        plain, checked = _plain_and_checked(lambda: _drive_cell(config, seed))
        assert plain == checked

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize(
        "config",
        [
            TortureConfig("counter", "DU", group_commit=2, hold=4),
            TortureConfig(
                "bank", "UIP", transactions=4, ops_per_txn=3,
                group_commit=4, hold=4,
            ),
            TortureConfig("set", "UIP", transactions=4, ops_per_txn=3),
        ],
        ids=["counter-du-gc2", "bank-uip-gc4", "set-uip"],
    )
    def test_crash_torture_schedules(self, config, seed):
        """A restart replaces the lock manager and rebases the view; the
        per-object memos that are pure functions of the ADT live on."""
        plain, checked = _plain_and_checked(
            lambda: _torture_cells(config, 8, seed)
        )
        assert plain == checked
        assert sum(crashes for _, _, crashes, _ in plain[0]) > 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_site_crash_torture(self, seed):
        config = TortureConfig("counter", "DU", sites=2, group_commit=2, hold=3)
        plain, checked = _plain_and_checked(lambda: _site_cells(config, seed))
        assert plain == checked


def _count_calls(monkeypatch, owner, name):
    calls = []
    method = getattr(owner, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestTheOracleIsNotVacuous:
    def test_most_questions_are_answered_from_memory(self, monkeypatch):
        """Counted on the paper's experiment: every attempt asks for its
        enabled responses and its blockers, and few of them step the spec."""
        asked = _count_calls(monkeypatch, LockManager, "blockers")
        stepped = _count_calls(monkeypatch, BankAccount, "transitions")
        queried = _count_calls(monkeypatch, RecoveryManager, "enabled_responses")
        (configuration,) = [
            c for c in standard_configurations() if c.label == "UIP+NRBC"
        ]
        counters, _history, _events = _closed_loop_cell(
            configuration, 0, transactions=24
        )
        attempts = counters["operations"] + counters["blocked_attempts"]
        assert len(queried) == attempts and len(asked) >= attempts
        # one spec step per response query it could not remember, and
        # one per executed operation (UIP steps the current state)
        assert len(stepped) - counters["operations"] < attempts // 2

    def test_an_operation_is_built_once(self):
        ba = BankAccount("BA")
        first = ba.operation(inv("withdraw", 3), "ok")
        assert ba.operation(inv("withdraw", 3), "ok") is first
        assert ba.operation(inv("withdraw", 3), "no") is not first
        assert first == BankAccount("BA").operation(inv("withdraw", 3), "ok")
        # a response still to be frozen is built, not remembered
        assert ba.operation(inv("audit"), [1, 2]).response == (1, 2)
        with recompute_every_answer():
            assert ba.operation(inv("withdraw", 3), "ok") is not first
            assert ba.operation(inv("withdraw", 3), "ok") == first

    def test_it_puts_the_methods_back(self):
        before = (
            SerialSpec.operation, ObjectAutomaton._candidates,
            RecoveryManager.enabled_responses, ClassifierConflict.probe,
        )
        with pytest.raises(RuntimeError):
            with recompute_every_answer():
                assert RecoveryManager.enabled_responses is not before[2]
                assert ClassifierConflict.probe is not before[3]
                raise RuntimeError
        assert before == (
            SerialSpec.operation, ObjectAutomaton._candidates,
            RecoveryManager.enabled_responses, ClassifierConflict.probe,
        )

    @pytest.mark.parametrize("keyed", [False, True], ids=["bank", "kv"])
    def test_a_stale_probe_row_is_caught(self, keyed):
        """A probe row is the slots an operation's row asks; one that
        forgot a slot would grant a conflicting operation."""
        adt = KVStore("KV") if keyed else BankAccount("BA")
        held, asked = (
            (inv("put", "k1", "u"), inv("put", "k1", "v"))
            if keyed
            else (inv("deposit", 2), inv("withdraw", 1))
        )

        def attempt(stale):
            obj = ManagedObject(adt, adt.nrbc_conflict(), "UIP")
            assert obj.try_operation("A", held).ok
            table = obj.locks.table
            responses = obj.recovery.enabled_responses("B", asked)
            for _response, operation in obj.automaton._candidates(asked, responses):
                assert table.probe(operation)
                if stale:
                    table._probes[operation] = ()
            return obj.try_operation("B", asked)

        assert attempt(stale=False).blockers == {"A"}
        assert attempt(stale=True).ok  # what the stale row would do
        with recompute_every_answer():
            assert attempt(stale=False).blockers == {"A"}
            with pytest.raises(StaleMemo, match="probe row"):
                attempt(stale=True)

    def test_a_candidate_tuple_out_of_order_is_caught(self):
        """Candidates are tried, tie-broken and drawn from in ``repr``
        order of the response; a memo filled in any other order would
        move the RNG's choice."""
        from repro.adts import SemiQueue

        queue = SemiQueue("Q")
        obj = ManagedObject(queue, queue.nrbc_conflict(), "UIP")
        for item in ("b", "a"):
            assert obj.try_operation("T" + item, inv("enq", item)).ok
            obj.commit("T" + item)
        responses = obj.recovery.enabled_responses("D", inv("deq"))
        assert len(responses) == 2
        candidates = obj.automaton._candidates(inv("deq"), responses)
        assert [r for r, _ in candidates] == sorted(responses, key=repr)
        obj.automaton._candidate_memo[inv("deq"), responses] = candidates[::-1]
        with pytest.raises(StaleMemo):
            with recompute_every_answer():
                obj.try_operation("D", inv("deq"))
