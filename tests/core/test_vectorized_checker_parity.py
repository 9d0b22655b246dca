"""Regression: the checker's fast path and its oracles are verdict-identical.

``ObjectAutomaton.accepts`` / ``explain_rejection`` answer conflicts from
the compiled bitmask table and legality from the delta cursors.  Hiding
the relation behind ``repro.reference.opaque_conflict`` and/or the view
behind ``opaque_view`` makes the same checker take the per-pair loop and
the recompute-from-history cursor; every combination must return
*byte-identical* results — same booleans, same rejection strings, holder
attribution included — on:

* the paper's worked examples (Sections 3.3, 3.4 and 5) under both
  views and both relations;
* abort-heavy torture histories sampled from the automaton's language;
* perturbed torture histories (adjacent events swapped) that the
  automaton rejects;
* ill-formed input (a response with no pending invocation).

(The file keeps the name it had when the compared paths were the
scalar/vectorized pairwise passes.)
"""

import random

import pytest

from repro.adts import BankAccount
from repro.core import DU, UIP, ObjectAutomaton
from repro.core.events import inv, respond
from repro.core.history import History
from repro.core.object_automaton import TransactionProgram, generate_trace
from repro.experiments.examples import (
    section_3_3_history,
    section_3_4_perturbed_history,
    section_5_history,
)
from repro.reference import opaque_conflict, opaque_view

VIEWS = (("UIP", UIP), ("DU", DU))
RELATIONS = ("nfc_conflict", "nrbc_conflict")


def same(x):
    return x


#: (label, wrap the view, wrap the relation) — the oracle combinations.
MODES = (
    ("per-pair", same, opaque_conflict),
    ("recompute", opaque_view, same),
    ("both", opaque_view, opaque_conflict),
)


def oracle_verdicts(spec, view, conflict, history):
    for label, wrap_view, wrap_conflict in MODES:
        yield label, ObjectAutomaton.explain_rejection(
            spec, wrap_view(view), wrap_conflict(conflict), history
        )


def worked_histories():
    return [
        ("3.3", section_3_3_history()),
        ("3.4", section_3_4_perturbed_history()),
        ("5", section_5_history()),
    ]


def torture_histories():
    spec = BankAccount("BA")
    conflict = spec.nfc_conflict()
    programs = [
        TransactionProgram(
            "T%d" % i,
            tuple(
                inv("deposit", 1 + (i + j) % 3)
                if (i + j) % 2
                else inv("withdraw", 1 + j % 3)
                for j in range(5)
            ),
        )
        for i in range(4)
    ]
    out = []
    for seed in range(6):
        trace = generate_trace(
            spec,
            UIP,
            conflict,
            programs,
            random.Random(seed),
            abort_probability=0.35,
        )
        out.append(("seed%d" % seed, trace))
        # a perturbed sibling: swap the middle pair of events, which
        # typically breaks a precondition and must be rejected the same
        # way on every path
        events = list(trace)
        if len(events) >= 4:
            mid = len(events) // 2
            events[mid - 1], events[mid] = events[mid], events[mid - 1]
            out.append(
                ("seed%d-perturbed" % seed, History(events, validate=False))
            )
    return out


@pytest.mark.parametrize("view_name,view", VIEWS, ids=[n for n, _ in VIEWS])
@pytest.mark.parametrize("relation", RELATIONS)
def test_worked_examples_verdicts_byte_identical(view_name, view, relation):
    spec = BankAccount("BA")
    conflict = getattr(spec, relation)()
    for label, history in worked_histories():
        baseline = ObjectAutomaton.explain_rejection(spec, view, conflict, history)
        for mode, got in oracle_verdicts(spec, view, conflict, history):
            assert got == baseline, (label, mode)
        assert ObjectAutomaton.accepts(spec, view, conflict, history) == (
            baseline is None
        )


@pytest.mark.parametrize("view_name,view", VIEWS, ids=[n for n, _ in VIEWS])
def test_torture_histories_verdicts_byte_identical(view_name, view):
    spec = BankAccount("BA")
    verdicts = []
    for relation in RELATIONS:
        conflict = getattr(spec, relation)()
        for label, history in torture_histories():
            baseline = ObjectAutomaton.explain_rejection(
                spec, view, conflict, history
            )
            verdicts.append(baseline)
            for mode, got in oracle_verdicts(spec, view, conflict, history):
                assert got == baseline, (relation, label, mode)
    # the sample covers both outcomes, so the byte-identity is not vacuous
    assert any(v is None for v in verdicts)
    assert any(v is not None for v in verdicts)


def test_ill_formed_history_identical_across_modes():
    """A response with no pending invocation is reported the same way."""
    spec = BankAccount("BA")
    conflict = spec.nrbc_conflict()
    bad = History([respond("ok", "BA", "T1")], validate=False)
    baseline = ObjectAutomaton.explain_rejection(spec, UIP, conflict, bad)
    assert baseline is not None
    for mode, got in oracle_verdicts(spec, UIP, conflict, bad):
        assert got == baseline, mode
