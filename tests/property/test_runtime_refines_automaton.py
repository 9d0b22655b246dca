"""Refinement: every history the runtime produces is a schedule of the
abstract automaton ``I(X, Spec, View, Conflict)`` it was configured with.

A :class:`~repro.runtime.system.ManagedObject` *holds* that automaton:
every event goes through its ``HistoryBuilder`` and its execute step, so
well-formedness and the lock and view updates hold by construction.
What is left to check here:

(a) the runtime never steps the automaton around its precondition:
    every response it appends is one the shared candidate loop
    (``ObjectAutomaton.free_candidates``) returned as free, on the
    automaton's current state — over every registered ADT and the three
    (view, relation) pairings; one crash-torture and one replicated
    site-crash schedule are replayed through
    :meth:`ObjectAutomaton.explain_rejection` end to end;
(b) the negative control, produced *by the runtime*: drop one pair from
    NRBC (UIP) or NFC (DU) and the object still runs inside the language
    of the relation it was given, while some seed yields a history the
    *full* relation's automaton rejects as a ``conflict`` and that is
    not dynamic atomic — Theorem 9/10's counterexample;
(c) the one edge: logical undo is the abstract UIP view only when
    ``Conflict ⊇ NRBC``.  Under a dropped pair a logical-undo object may
    keep answering where the abstract view is already illegal
    (``not-legal``); with NRBC in force it never does.
"""

import random

import pytest

from repro.adts import BankAccount
from repro.adts.registry import make_adt, registered_kinds
from repro.core.atomicity import is_dynamic_atomic
from repro.core.conflict import WithoutPairs, union
from repro.core.object_automaton import ObjectAutomaton
from repro.core.recovery import (
    DeferredUpdateManager,
    StrictUpdateInPlaceManager,
    UpdateInPlaceManager,
)
from repro.core.views import DU, SUIP, UIP
from repro.runtime import ManagedObject, TransactionSystem, run_scripts
from repro.runtime import torture
from repro.runtime.durability import SiteCrash
from repro.runtime.torture import (
    TortureConfig,
    configs_for,
    plan_campaign,
    run_schedule,
    workload_for,
)
from repro.runtime.workloads import generic_workload

#: the abstract view each manager class claims to maintain
VIEW_OF = {
    UpdateInPlaceManager: UIP,
    DeferredUpdateManager: DU,
    StrictUpdateInPlaceManager: SUIP,
}


def relation_for(adt, method):
    """The relation each view needs: Theorem 9, Theorem 10, and — for
    SUIP — both (EXP-V1: execution order must agree with every possible
    commit order)."""
    if method == "UIP":
        return adt.nrbc_conflict()
    if method == "DU":
        return adt.nfc_conflict()
    return union(adt.nfc_conflict(), adt.nrbc_conflict())


def rejection(obj, conflict=None, history=None):
    """Why the automaton ``obj`` was configured as (or the one under
    ``conflict`` instead) rejects its history; None when it accepts."""
    return ObjectAutomaton.explain_rejection(
        obj.adt,
        VIEW_OF[type(obj.recovery)],
        obj.conflict if conflict is None else conflict,
        obj.history() if history is None else history,
    )


# ---------------------------------------------------------------------------
# (a) the runtime stays inside the automaton's language
# ---------------------------------------------------------------------------


@pytest.fixture
def candidate_guard(monkeypatch):
    """Every response the runtime executes must be one the candidate
    loop returned as free for that transaction, with no event appended
    at the object since.  (``step`` checks its own responses: the
    audits' replays through ``explain_rejection`` go that way.)  Returns
    the responses checked."""
    free_candidates = ObjectAutomaton.free_candidates
    execute = ObjectAutomaton._execute
    step = ObjectAutomaton.step
    offered = {}
    checked = []
    stepping = []

    def stepped(self, event):
        stepping.append(event)
        try:
            return step(self, event)
        finally:
            stepping.pop()

    def recording(self, txn, invocation, responses, extra_blockers=None):
        free, blocked = free_candidates(self, txn, invocation, responses, extra_blockers)
        offered[id(self), txn] = (len(self.builder.events), list(free))
        return free, blocked

    def guarded(self, event, operation=None):
        if operation is not None and not stepping:
            at, free = offered.pop((id(self), event.txn))
            assert at == len(self.builder.events), (event, "stale candidates")
            assert (event.response, operation) in free, (event, free)
            checked.append(event)
        return execute(self, event, operation)

    monkeypatch.setattr(ObjectAutomaton, "free_candidates", recording)
    monkeypatch.setattr(ObjectAutomaton, "_execute", guarded)
    monkeypatch.setattr(ObjectAutomaton, "step", stepped)
    return checked


@pytest.mark.parametrize("method", ["DU", "SUIP", "UIP"])
@pytest.mark.parametrize("kind", registered_kinds())
def test_volatile_runs_refine_the_automaton(kind, method, candidate_guard):
    for seed in range(4):
        adt = make_adt(kind)
        obj = ManagedObject(adt, relation_for(adt, method), method)
        scripts = workload_for(
            TortureConfig(kind, transactions=5), adt, random.Random(seed)
        )
        metrics = run_scripts(TransactionSystem([obj]), scripts, seed=seed)
        assert metrics.committed
        responses = sum(e.is_response for e in obj.history())
        assert responses == len(candidate_guard), (kind, method, seed)
        del candidate_guard[:]


@pytest.fixture
def refinement_audit(monkeypatch):
    """Every ``audit_recovery`` call of a torture schedule — one per
    crash restart, one after the final clean crash — also checks each
    object's history against the automaton.  Returns the audit count."""
    audits = []
    audit_recovery = torture.audit_recovery

    def audit(system, label, schedule, **kwargs):
        for name in sorted(system.objects):
            why = rejection(system.objects[name])
            assert why is None, (label, schedule, name, why)
        audits.append(label)
        return audit_recovery(system, label, schedule, **kwargs)

    monkeypatch.setattr(torture, "audit_recovery", audit)
    return audits


def test_crash_schedules_refine_the_automaton(refinement_audit, candidate_guard):
    """One crash-torture schedule, end to end: logical-undo UIP under
    group commit, snapshot readers and a mid-run crash."""
    (config,) = [
        c for c in configs_for(("bank",), group_commit=4, hold=4, read_mix=0.2)
        if c.recovery == "UIP" and c.restart_policy == "replay-winners"
    ]
    ((config, plan, run_seed),) = plan_campaign([config], schedules=1, seed=0)
    result = run_schedule(config, plan, seed=run_seed)
    assert not result.violations, result.violations
    # one audit per crash, the final clean one included
    assert len(refinement_audit) == result.crashes > 1
    assert candidate_guard


def test_replicated_runs_refine_the_automaton(
    refinement_audit, candidate_guard, monkeypatch
):
    """One replicated schedule, end to end: a site fails, recovers and
    catches up; each copy's history and the logical history refine."""
    logical_audits = []
    audit_replication = torture.audit_replication

    def audit(system, label, schedule):
        merged = system.logical_history()
        for logical in system.logical_names():
            why = rejection(
                system.objects[logical], history=merged.project_objects([logical])
            )
            assert why is None, (label, schedule, logical, why)
            logical_audits.append(logical)
        return audit_replication(system, label, schedule)

    monkeypatch.setattr(torture, "audit_replication", audit)
    (config,) = [
        c for c in configs_for(("bank",), sites=2)
        if c.recovery == "UIP" and c.restart_policy == "replay-winners"
    ]
    result = run_schedule(config, (SiteCrash(1, 3, 12),), seed=0)
    assert not result.violations, result.violations
    assert len(logical_audits) == len(refinement_audit) == 1
    assert candidate_guard


# ---------------------------------------------------------------------------
# (b), (c) one pair removed
# ---------------------------------------------------------------------------

SEEDS = range(6)


def bank():
    return BankAccount("BA", domain=(1, 2), opening=2)


def run_bank(conflict, recovery, seed, **options):
    ba = bank()
    obj = ManagedObject(ba, conflict, recovery, **options)
    scripts = generic_workload(
        ba, random.Random(seed), transactions=5, ops_per_txn=2
    )
    run_scripts(TransactionSystem([obj]), scripts, seed=seed)
    return obj


def conflicting_pairs(relation):
    alphabet = bank().ground_alphabet()
    return [(p, q) for p in alphabet for q in alphabet if relation.conflicts(p, q)]


@pytest.mark.parametrize(
    "recovery, options",
    [("UIP", {"uip_strategy": "replay"}), ("DU", {})],
    ids=["UIP-replay", "DU"],
)
def test_a_removed_pair_yields_the_theorem_counterexample(recovery, options):
    full = relation_for(bank(), recovery)
    pairs = conflicting_pairs(full)
    assert len(pairs) == 60
    counterexamples = 0
    for pair in pairs:
        weakened = WithoutPairs(full, [pair])
        for seed in SEEDS:
            obj = run_bank(weakened, recovery, seed, **options)
            # still a schedule of the automaton it was configured as ...
            assert rejection(obj) is None, (pair, seed)
            # ... and the full relation's automaton admits only dynamic
            # atomic histories (the "if" direction), so a runtime
            # history that is not dynamic atomic used the missing pair.
            why = rejection(obj, full)
            if not is_dynamic_atomic(obj.history(), obj.adt):
                assert why is not None and "not enabled (conflict)" in why
                counterexamples += 1
    assert counterexamples  # the "only if" direction, from the runtime


def test_logical_undo_is_the_uip_view_only_above_nrbc():
    ba = bank()
    nrbc = ba.nrbc_conflict()
    assert ba.supports_logical_undo
    # Conflict ⊇ NRBC: the default (logical) object never leaves the language.
    for relation in (nrbc, union(nrbc, ba.nfc_conflict())):
        for seed in SEEDS:
            obj = run_bank(relation, "UIP", seed)
            assert obj.recovery.strategy == "logical"
            assert rejection(obj) is None, (relation.name, seed)
    # One pair short: it may, and when it does it is the view that went
    # illegal, never a conflict it failed to enforce.
    reasons = [
        rejection(run_bank(WithoutPairs(nrbc, [pair]), "UIP", seed))
        for pair in conflicting_pairs(nrbc)
        for seed in SEEDS
    ]
    left_the_language = [why for why in reasons if why is not None]
    assert left_the_language
    assert all("not enabled (not-legal)" in why for why in left_the_language)
