"""EXP-S1: checker scaling — the order search vs its enumerating oracle.

``repro.core.atomicity`` prunes dead prefixes and memoizes
configurations; the oracle ``repro.reference.enumerate_*`` walks every
linear extension.  On histories of commuting transactions the gap is
factorial-vs-linear; this bench pins the crossover shape and keeps the
two honest against each other.
"""

import pytest

from repro.adts import BankAccount
from repro.core.atomicity import find_dynamic_atomicity_violation, is_dynamic_atomic
from repro.core.events import commit, inv, invoke, respond
from repro.core.history import History
from repro.reference import enumerate_find_dynamic_atomicity_violation

BA = BankAccount(domain=(1, 2))


def commuting_history(n: int) -> History:
    """n concurrent deposits — n! orders, one outcome."""
    events = []
    for i in range(n):
        txn = "T%02d" % i
        events.append(invoke(inv("deposit", 1), "BA", txn))
        events.append(respond("ok", "BA", txn))
    for i in range(n):
        events.append(commit("BA", "T%02d" % i))
    return History(events)


def contending_history(n: int) -> History:
    """Deposits and withdrawals, serialized by commits (richer states)."""
    events = []
    for i in range(n):
        txn = "T%02d" % i
        kind = "deposit" if i % 2 == 0 else "withdraw"
        events.append(invoke(inv(kind, 1), "BA", txn))
        events.append(
            respond("ok" if kind == "deposit" or i else "no", "BA", txn)
        )
    for i in range(n):
        events.append(commit("BA", "T%02d" % i))
    return History(events)


@pytest.mark.experiment("EXP-S1")
def test_reference_checker_small(benchmark):
    h = commuting_history(6)
    assert benchmark(
        lambda: enumerate_find_dynamic_atomicity_violation(h, BA) is None
    )


@pytest.mark.experiment("EXP-S1")
def test_fast_checker_small(benchmark):
    h = commuting_history(6)
    assert benchmark(lambda: is_dynamic_atomic(h, BA))


@pytest.mark.experiment("EXP-S1")
def test_fast_checker_large(benchmark):
    """14 concurrent transactions: 87 billion orders, 2**14 configurations."""
    h = commuting_history(14)
    assert benchmark(lambda: is_dynamic_atomic(h, BA))


@pytest.mark.experiment("EXP-S1")
def test_fast_checker_mixed_large(benchmark):
    h = contending_history(10)
    result = benchmark(lambda: is_dynamic_atomic(h, BA))
    assert isinstance(result, bool)


@pytest.mark.experiment("EXP-S1")
def test_checkers_agree(benchmark):
    def agree():
        for n in (2, 4, 6):
            for history in (commuting_history(n), contending_history(n)):
                assert find_dynamic_atomicity_violation(
                    history, BA
                ) == enumerate_find_dynamic_atomicity_violation(history, BA)
        return True

    assert benchmark.pedantic(agree, rounds=1, iterations=1)
