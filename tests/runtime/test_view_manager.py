"""Tests for the generic view-driven recovery manager and SUIP in the runtime."""

import random

import pytest

from repro.adts import BankAccount
from repro.core.atomicity import is_dynamic_atomic
from repro.core.events import inv
from repro.core.object_automaton import (
    ObjectAutomaton,
    TransactionProgram,
    generate_trace,
)
from repro.core.views import DU, UIP
from repro.runtime import ManagedObject, TransactionSystem, run_scripts
from repro.runtime.recovery import (
    DeferredUpdateManager,
    StrictUpdateInPlaceManager,
    UpdateInPlaceManager,
    ViewRecoveryManager,
    make_recovery_manager,
)
from repro.runtime.scheduler import TransactionScript

from ..view_harness import drive_and_compare


@pytest.fixture
def ba():
    return BankAccount("BA", domain=(1, 2))


class TestEquivalenceWithSpecialized:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_uip_manager(self, ba, seed):
        rng = random.Random(seed)
        programs = [
            TransactionProgram(
                "T%d" % i, (inv("deposit", 1), inv("withdraw", 1))
            )
            for i in range(3)
        ]
        trace = generate_trace(
            ba, UIP, ba.nrbc_conflict(), programs, rng, abort_probability=0.3
        )
        generic = drive_and_compare(ViewRecoveryManager(ba, UIP), UIP, ba, trace)
        specialized = drive_and_compare(UpdateInPlaceManager(ba), UIP, ba, trace)
        for txn in sorted(trace.active() | {"PROBE"}):
            assert generic.macro(txn) == specialized.macro(txn)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_du_manager(self, ba, seed):
        rng = random.Random(seed + 50)
        programs = [
            TransactionProgram("T%d" % i, (inv("deposit", 2), inv("balance")))
            for i in range(3)
        ]
        trace = generate_trace(
            ba, DU, ba.nfc_conflict(), programs, rng, abort_probability=0.3
        )
        generic = drive_and_compare(ViewRecoveryManager(ba, DU), DU, ba, trace)
        specialized = drive_and_compare(DeferredUpdateManager(ba), DU, ba, trace)
        for txn in sorted(trace.active() | {"PROBE"}):
            assert generic.macro(txn) == specialized.macro(txn)


class TestFactory:
    def test_suip_factory(self, ba):
        manager = make_recovery_manager(ba, "suip")
        assert type(manager) is StrictUpdateInPlaceManager
        assert manager.name == "SUIP/merge"


class TestSUIPRuntime:
    """The runtime executes the paper's open-question view."""

    @pytest.mark.parametrize("seed", range(5))
    def test_suip_with_nfc_dynamic_atomic(self, seed):
        """EXP-V1 synthesized NFC as SUIP's requirement; the runtime
        bears it out: SUIP + NFC yields dynamic atomic histories."""
        ba = BankAccount("BA", domain=(1, 2), opening=4)
        system = TransactionSystem([ManagedObject(ba, ba.nfc_conflict(), "SUIP")])
        rng = random.Random(seed)
        scripts = []
        for i in range(4):
            steps = []
            for _ in range(2):
                kind = rng.choice(["deposit", "withdraw", "balance"])
                steps.append(
                    ("BA", inv("balance") if kind == "balance" else inv(kind, rng.choice([1, 2])))
                )
            scripts.append(TransactionScript("T%d" % i, tuple(steps)))
        metrics = run_scripts(system, scripts, seed=seed)
        assert metrics.committed >= 1
        assert is_dynamic_atomic(system.history(), ba)

    def test_suip_semantics_no_dirty_reads(self):
        from repro.core.conflict import EmptyConflict

        ba = BankAccount("BA")
        obj = ManagedObject(ba, EmptyConflict(), "SUIP")
        obj.try_operation("A", inv("deposit", 5))
        outcome = obj.try_operation("B", inv("balance"))
        assert outcome.operation == ba.balance(0)  # A's active deposit hidden

    def test_suip_poisoned_without_nfc_conflicts(self):
        """Why SUIP needs (withdraw/NO, deposit) ∈ Conflict: without it,
        B's failed withdrawal (validated against a view hiding A's
        active deposit) lands *after* the deposit in execution order,
        where it is illegal — the committed view goes empty and later
        transactions are stuck."""
        from repro.core.conflict import EmptyConflict

        ba = BankAccount("BA")
        obj = ManagedObject(ba, EmptyConflict(), "SUIP")
        obj.try_operation("A", inv("deposit", 5))
        obj.try_operation("B", inv("withdraw", 3))  # sees balance 0: "no"
        assert obj.history().operations_of("B")[-1] == ba.withdraw_no(3)
        obj.commit("B")
        obj.commit("A")
        outcome = obj.try_operation("C", inv("balance"))
        assert outcome.status == "stuck"

    def test_suip_with_nfc_blocks_the_poisoning(self):
        """With NFC the dangerous withdrawal is blocked, not executed."""
        ba = BankAccount("BA")
        obj = ManagedObject(ba, ba.nfc_conflict(), "SUIP")
        obj.try_operation("A", inv("deposit", 5))
        outcome = obj.try_operation("B", inv("withdraw", 3))
        assert outcome.status == "blocked"
        assert outcome.blockers == {"A"}

    def test_suip_answers_without_replaying_the_history(self, monkeypatch):
        """Counted, as the tick-cost tests count RNG draws: over a
        400-operation run with every transaction active and queried
        before each operation, the incremental manager steps the spec
        once per executed operation; the from-scratch manager replays
        the view for every query."""
        from repro.core.conflict import EmptyConflict
        from repro.core.views import SUIP

        steps = []
        transitions = BankAccount.transitions

        def counting(self, state, invocation):
            steps.append(invocation)
            return transitions(self, state, invocation)

        monkeypatch.setattr(BankAccount, "transitions", counting)

        def run(scratch):
            ba = BankAccount("BA")
            obj = ManagedObject(ba, EmptyConflict(), "SUIP")
            if scratch:
                obj.automaton = ObjectAutomaton(
                    ba, SUIP, EmptyConflict(), ViewRecoveryManager(ba, SUIP)
                )
            del steps[:]
            for i in range(400):
                txn = "T%d" % (i % 4)
                assert obj.try_operation(txn, inv("deposit", 1)).ok
            for txn in ("T0", "T1", "T2", "T3"):
                assert obj.recovery.enabled_responses(txn, inv("balance")) == {100}
            return len(steps), obj.history()

        incremental, history = run(scratch=False)
        recomputed, same_history = run(scratch=True)
        assert history == same_history
        # at most one response query and one step per operation, plus
        # the probes (a query repeated on an unchanged view is remembered)
        assert incremental <= 2 * 400 + 4
        assert recomputed > 20 * incremental  # ~50 replayed steps per query
