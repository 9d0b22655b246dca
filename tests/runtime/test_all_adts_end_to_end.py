"""End-to-end sweep: every ADT × both recovery methods × seeds.

Random transaction scripts are drawn from each ADT's own invocation
alphabet and run through the concrete scheduler under the matching
conflict relation; every resulting history must be dynamic atomic.
This is the library's broadest safety net: any ADT whose analytic
conflict relation under-approximates its true NFC/NRBC would be caught
here as a concrete serializability anomaly.
"""

import random

import pytest

from repro.adts import (
    BankAccount,
    Counter,
    EscrowAccount,
    FifoQueue,
    KVStore,
    PriorityQueue,
    Register,
    SemiQueue,
    SetADT,
    Stack,
)
from repro.core.atomicity import is_dynamic_atomic
from repro.runtime import ManagedObject, TransactionSystem, run_scripts
from repro.runtime.scheduler import TransactionScript

FACTORIES = [
    pytest.param(lambda: BankAccount("X", domain=(1, 2), opening=5), id="bank"),
    pytest.param(lambda: Counter("X", domain=(1, 2)), id="counter"),
    pytest.param(lambda: EscrowAccount("X", domain=(1, 2), opening=3), id="escrow"),
    pytest.param(lambda: FifoQueue("X", domain=("a", "b")), id="fifo"),
    pytest.param(lambda: KVStore("X", keys=("k1", "k2"), values=("u", "v")), id="kv"),
    pytest.param(lambda: PriorityQueue("X", domain=(1, 2)), id="pqueue"),
    pytest.param(lambda: Register("X", domain=("u", "v"), initial="u"), id="register"),
    pytest.param(lambda: SemiQueue("X", domain=("a", "b")), id="semiqueue"),
    pytest.param(lambda: SetADT("X", domain=("a", "b")), id="set"),
    pytest.param(lambda: Stack("X", domain=("a", "b")), id="stack"),
]


def random_scripts(adt, rng: random.Random, n_txns: int = 4, n_ops: int = 2):
    invocations = adt.invocation_alphabet()
    return [
        TransactionScript(
            "T%d" % i,
            tuple(("X", rng.choice(invocations)) for _ in range(n_ops)),
        )
        for i in range(n_txns)
    ]


@pytest.mark.parametrize("factory", FACTORIES)
@pytest.mark.parametrize("seed", range(3))
def test_uip_nrbc_end_to_end(factory, seed):
    adt = factory()
    system = TransactionSystem([ManagedObject(adt, adt.nrbc_conflict(), "UIP")])
    scripts = random_scripts(adt, random.Random(seed))
    metrics = run_scripts(system, scripts, seed=seed)
    assert metrics.committed >= 1
    assert is_dynamic_atomic(system.history(), adt)


@pytest.mark.parametrize("factory", FACTORIES)
@pytest.mark.parametrize("seed", range(3))
def test_du_nfc_end_to_end(factory, seed):
    adt = factory()
    system = TransactionSystem([ManagedObject(adt, adt.nfc_conflict(), "DU")])
    scripts = random_scripts(adt, random.Random(seed + 77))
    metrics = run_scripts(system, scripts, seed=seed)
    assert metrics.committed >= 1
    assert is_dynamic_atomic(system.history(), adt)


@pytest.mark.parametrize("factory", FACTORIES)
def test_rw_baseline_end_to_end(factory):
    """Strict 2PL is safe with either recovery method on every ADT."""
    from repro.runtime import read_write_conflict

    for recovery in ("UIP", "DU"):
        adt = factory()
        system = TransactionSystem(
            [ManagedObject(adt, read_write_conflict(adt), recovery)]
        )
        scripts = random_scripts(adt, random.Random(5))
        run_scripts(system, scripts, seed=5)
        assert is_dynamic_atomic(system.history(), adt)