"""Property tests: the pruned, memoized order search of
``repro.core.atomicity`` returns the *same witness* as the enumerating
oracle of ``repro.reference`` — same ``DynamicAtomicityViolation``, same
serialization order — not merely the same verdict.

Random histories over random finite specifications (``LanguageSpec``:
the carry-the-prefix simulator) and over the bank account (a
``StateMachineSpec``: macro-states) — the adversarial regime for pruning
and memoization.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomicity import (
    find_dynamic_atomicity_violation,
    find_online_violation,
    find_serialization_order,
    serializable_in_order,
)
from repro.core.conflict import EmptyConflict
from repro.core.events import inv
from repro.core.object_automaton import TransactionProgram, generate_trace
from repro.core.views import DU, UIP
from repro.reference import (
    enumerate_find_dynamic_atomicity_violation,
    enumerate_find_online_violation,
    enumerate_find_serialization_order,
)

from .strategies import BA
from .test_random_spec_theorems import INVOCATIONS, random_programs, random_specs

SETTINGS = settings(max_examples=30, deadline=None)


@SETTINGS
@given(random_specs(), st.integers(min_value=0, max_value=5))
def test_dynamic_atomicity_agrees_on_random_specs(spec, seed):
    rng = random.Random(seed)
    trace = generate_trace(
        spec, UIP, EmptyConflict(), random_programs(rng), rng,
        abort_probability=0.2,
    )
    product = find_dynamic_atomicity_violation(trace, spec)
    assert product == enumerate_find_dynamic_atomicity_violation(trace, spec)
    if product is not None:
        # The witness must be a genuine precedes-consistent failure.
        assert not serializable_in_order(trace.permanent(), product.order, spec)
    assert find_online_violation(trace, spec) == enumerate_find_online_violation(
        trace, spec
    )


@SETTINGS
@given(random_specs(), st.integers(min_value=0, max_value=5))
def test_serializability_agrees_on_random_specs(spec, seed):
    rng = random.Random(seed)
    trace = generate_trace(
        spec, DU, EmptyConflict(), random_programs(rng), rng,
        abort_probability=0.2,
    )
    perm = trace.permanent()
    assert find_serialization_order(
        perm, spec
    ) == enumerate_find_serialization_order(perm, spec)


@SETTINGS
@given(random_specs(), st.integers(min_value=0, max_value=5))
def test_found_orders_are_legal(spec, seed):
    rng = random.Random(seed)
    trace = generate_trace(
        spec, UIP, EmptyConflict(), random_programs(rng), rng,
    )
    perm = trace.permanent()
    order = find_serialization_order(perm, spec)
    if order is not None:
        assert serializable_in_order(perm, order, spec)


@SETTINGS
@given(st.integers(min_value=0, max_value=40))
def test_bank_account_traces_agree(seed):
    rng = random.Random(seed)
    programs = random_programs(rng)
    programs = [
        TransactionProgram(
            p.txn,
            tuple(
                rng.choice(
                    [inv("deposit", 1), inv("withdraw", 1), inv("balance")]
                )
                for _ in range(2)
            ),
        )
        for p in programs
    ]
    trace = generate_trace(BA, UIP, EmptyConflict(), programs, rng)
    assert find_dynamic_atomicity_violation(
        trace, BA
    ) == enumerate_find_dynamic_atomicity_violation(trace, BA)
    perm = trace.permanent()
    assert find_serialization_order(
        perm, BA
    ) == enumerate_find_serialization_order(perm, BA)
