"""EXP-C4: the recovery managers realize the abstract views.

Invariant (``tests/view_harness.py``): after any prefix of events, the
manager's macro-state for an active transaction equals
``spec.states_after(View(H, txn))`` where ``View`` is the corresponding
abstract view, and its response sets are the spec's.  Checked by
replaying randomized abstract-automaton traces into the managers, event
by event, across views, ADTs and undo strategies.
"""

import random

import pytest

from repro.adts import BankAccount, SemiQueue, SetADT
from repro.core.conflict import union
from repro.core.events import inv
from repro.core.object_automaton import TransactionProgram, generate_trace
from repro.core.views import DU, SUIP, UIP
from repro.runtime.recovery import (
    DeferredUpdateManager,
    StrictUpdateInPlaceManager,
    UpdateInPlaceManager,
)

from ..view_harness import drive_and_compare


def bank_programs(rng):
    programs = []
    for i in range(3):
        steps = []
        for _ in range(2):
            kind = rng.choice(["deposit", "withdraw", "balance"])
            steps.append(
                inv(kind, rng.choice([1, 2])) if kind != "balance" else inv("balance")
            )
        programs.append(TransactionProgram("T%d" % i, tuple(steps)))
    return programs


def semiqueue_programs(rng):
    programs = []
    for i in range(3):
        steps = [
            rng.choice([inv("enq", rng.choice(["a", "b"])), inv("deq")])
            for _ in range(2)
        ]
        programs.append(TransactionProgram("T%d" % i, tuple(steps)))
    return programs


def set_programs(rng):
    programs = []
    for i in range(3):
        steps = [
            inv(rng.choice(["insert", "delete", "member"]), rng.choice(["a", "b"]))
            for _ in range(2)
        ]
        programs.append(TransactionProgram("T%d" % i, tuple(steps)))
    return programs


CASES = [
    pytest.param(
        lambda: BankAccount(domain=(1, 2)),
        bank_programs,
        id="bank",
    ),
    pytest.param(
        lambda: SemiQueue(domain=("a", "b")),
        semiqueue_programs,
        id="semiqueue",
    ),
    pytest.param(
        lambda: SetADT(domain=("a", "b")),
        set_programs,
        id="set",
    ),
]


@pytest.mark.parametrize("adt_factory, program_factory", CASES)
@pytest.mark.parametrize("seed", range(6))
def test_uip_manager_realizes_uip_view(adt_factory, program_factory, seed):
    adt = adt_factory()
    rng = random.Random(seed)
    trace = generate_trace(
        adt,
        UIP,
        adt.nrbc_conflict(),
        program_factory(rng),
        rng,
        abort_probability=0.3,
    )
    strategies = ["replay"]
    if adt.supports_logical_undo:
        strategies.append("logical")
    for strategy in strategies:
        drive_and_compare(
            UpdateInPlaceManager(adt, strategy=strategy), UIP, adt, trace
        )


@pytest.mark.parametrize("adt_factory, program_factory", CASES)
@pytest.mark.parametrize("seed", range(6))
def test_du_manager_realizes_du_view(adt_factory, program_factory, seed):
    adt = adt_factory()
    rng = random.Random(seed + 100)
    trace = generate_trace(
        adt,
        DU,
        adt.nfc_conflict(),
        program_factory(rng),
        rng,
        abort_probability=0.3,
    )
    drive_and_compare(DeferredUpdateManager(adt), DU, adt, trace)


@pytest.mark.parametrize("adt_factory, program_factory", CASES)
@pytest.mark.parametrize("seed", range(6))
def test_suip_manager_realizes_suip_view(adt_factory, program_factory, seed):
    adt = adt_factory()
    rng = random.Random(seed + 200)
    trace = generate_trace(
        adt,
        SUIP,
        union(adt.nfc_conflict(), adt.nrbc_conflict()),
        program_factory(rng),
        rng,
        abort_probability=0.3,
    )
    drive_and_compare(StrictUpdateInPlaceManager(adt), SUIP, adt, trace)


def test_strategies_agree_with_each_other():
    """Logical and replay undo land in identical states on shared traces."""
    ba = BankAccount(domain=(1, 2))
    rng = random.Random(7)
    trace = generate_trace(
        ba, UIP, ba.nrbc_conflict(), bank_programs(rng), rng, abort_probability=0.4
    )
    logical = UpdateInPlaceManager(ba, strategy="logical")
    replay = UpdateInPlaceManager(ba, strategy="replay")
    for event in trace:
        logical.apply(event)
        replay.apply(event)
        assert logical.current_macro == replay.current_macro
