"""Differential fuzz: table vs set-lookup lock-manager conflict checks.

Seeded random workloads run through the full runtime (scheduler, lock
manager, waits-for deadlock detection, recovery) twice — once on the
relation's table (the manager's ``(class, key)`` index), once with every
ADT relation read through ``repro.reference.matrix_conflict`` so the
lock manager sees no table and answers with per-pair set lookups — and
every observable must be identical: the event-for-event object
histories (so every grant/wait/abort/deadlock decision matched) and the
complete :class:`~repro.runtime.metrics.RunMetrics` counters.

The sweep covers unkeyed matrices (bank, escrow, fifo) and the keyed
relations (KV by key, set by element), both recovery pairings (UIP+NRBC,
DU+NFC), the two closures the experiments lock with (``sym(NRBC)`` under
UIP, ``NFC ∪ NRBC`` under either), and the multi-object two-phase commit
path; a guard asserts the workloads actually contend, so the comparison
is not vacuous.  (The priority queue's relations are predicates, on the
per-pair loop either way; ``tests/property/test_compiled_table_parity.py``
holds its rows.)
"""

import random

import pytest

from repro.adts import (
    BankAccount,
    EscrowAccount,
    FifoQueue,
    KVStore,
    SetADT,
)
from repro.core.conflict import symmetric_closure, union
from repro.reference import matrix_conflict
from repro.runtime import ManagedObject, TransactionSystem, run_scripts
from repro.runtime.workloads import (
    escrow_workload,
    generic_workload,
    hotspot_banking,
    mixed_transfers,
    producer_consumer,
    set_membership_workload,
)

SEEDS = (0, 1, 2, 3)


# A case names its relation as a function of the ADT and of how a leaf
# (one of the ADT's own tables) is read: as it is, or through the oracle
# — so a closure's twin is the closure of the twins.
def nrbc(adt, leaf):
    return leaf(adt.nrbc_conflict())


def nfc(adt, leaf):
    return leaf(adt.nfc_conflict())


def sym_nrbc(adt, leaf):
    return symmetric_closure(leaf(adt.nrbc_conflict()))


def nfc_or_nrbc(adt, leaf):
    return union(leaf(adt.nfc_conflict()), leaf(adt.nrbc_conflict()))


CASES = [
    pytest.param(
        lambda: BankAccount("BA", opening=6),
        nrbc,
        "UIP",
        lambda rng: hotspot_banking(rng, obj="BA"),
        id="bank-uip",
    ),
    pytest.param(
        lambda: BankAccount("BA", opening=6),
        nfc,
        "DU",
        lambda rng: hotspot_banking(rng, obj="BA"),
        id="bank-du",
    ),
    pytest.param(
        lambda: EscrowAccount("ESC", opening=8),
        nrbc,
        "UIP",
        lambda rng: escrow_workload(rng, obj="ESC"),
        id="escrow-uip",
    ),
    pytest.param(
        lambda: SetADT("SET"),
        nfc,
        "DU",
        lambda rng: set_membership_workload(rng, obj="SET"),
        id="set-du",
    ),
    pytest.param(
        lambda: FifoQueue("Q"),
        nrbc,
        "UIP",
        lambda rng: producer_consumer(rng, obj="Q"),
        id="fifo-uip",
    ),
    pytest.param(
        lambda: KVStore("KV"),
        nrbc,
        "UIP",
        lambda rng: generic_workload(KVStore("KV"), rng, obj="KV"),
        id="kv-refine-uip",
    ),
    pytest.param(
        lambda: BankAccount("BA", opening=6),
        sym_nrbc,
        "UIP",
        lambda rng: hotspot_banking(rng, obj="BA"),
        id="bank-sym-uip",
    ),
    pytest.param(
        lambda: BankAccount("BA", opening=6),
        nfc_or_nrbc,
        "DU",
        lambda rng: hotspot_banking(rng, obj="BA"),
        id="bank-union-du",
    ),
    pytest.param(
        lambda: KVStore("KV"),
        sym_nrbc,
        "UIP",
        lambda rng: generic_workload(KVStore("KV"), rng, obj="KV"),
        id="kv-refine-sym-uip",
    ),
    pytest.param(
        lambda: SetADT("SET"),
        nfc_or_nrbc,
        "UIP",
        lambda rng: set_membership_workload(rng, obj="SET"),
        id="set-refine-union-uip",
    ),
]


def run_once(factory, relation, recovery, scripts_fn, seed, leaf=lambda c: c):
    adt = factory()
    obj = ManagedObject(adt, relation(adt, leaf), recovery)
    system = TransactionSystem([obj])
    metrics = run_scripts(system, scripts_fn(random.Random(seed)), seed=seed)
    on_table = obj.locks.table is not None
    return on_table, tuple(system.history()), metrics.counters()


@pytest.mark.parametrize("factory,relation,recovery,scripts_fn", CASES)
def test_compiled_and_interpreted_runs_identical(
    factory, relation, recovery, scripts_fn
):
    contended = 0
    for seed in SEEDS:
        fast_on_table, fast_history, fast_counters = run_once(
            factory, relation, recovery, scripts_fn, seed
        )
        slow_on_table, slow_history, slow_counters = run_once(
            factory, relation, recovery, scripts_fn, seed, matrix_conflict
        )
        assert fast_on_table and not slow_on_table
        assert fast_history == slow_history, seed
        assert fast_counters == slow_counters, seed
        contended += fast_counters.get("blocked_attempts", 0)
    # the sweep must exercise real lock conflicts, not empty tables
    assert contended > 0


def test_multi_object_transfers_identical():
    """Two-phase commit + cross-object waits-for graph, both paths."""

    def run(seed, wrap=lambda c: c):
        objs = [
            ManagedObject(
                BankAccount(name, opening=6),
                wrap(BankAccount(name).nrbc_conflict()),
                "UIP",
            )
            for name in ("ACC1", "ACC2", "ACC3")
        ]
        system = TransactionSystem(objs)
        metrics = run_scripts(
            system, mixed_transfers(random.Random(seed)), seed=seed
        )
        return tuple(system.history()), metrics.counters()

    for seed in SEEDS:
        assert run(seed) == run(seed, matrix_conflict), seed
