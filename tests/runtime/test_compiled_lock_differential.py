"""Differential fuzz: compiled vs interpreted lock-manager conflict checks.

Seeded random workloads run through the full runtime (scheduler, lock
manager, waits-for deadlock detection, recovery) twice — once with the
compiled bitmask tables, once with the relation hidden behind
``repro.reference.opaque_conflict`` so the lock manager has nothing to
compile and answers with per-pair verdicts — and every observable must be identical: the event-for-event object
histories (so every grant/wait/abort/deadlock decision matched) and the
complete :class:`~repro.runtime.metrics.RunMetrics` counters.

The sweep covers refine-free matrices (bank, escrow, set, fifo) and both
refine-carrying relations (key-indexed KV, priority-ordered PQ), both
recovery pairings (UIP+NRBC, DU+NFC), and the multi-object two-phase
commit path; a guard asserts the workloads actually contend, so the
comparison is not vacuous.
"""

import random

import pytest

from repro.adts import (
    BankAccount,
    EscrowAccount,
    FifoQueue,
    KVStore,
    PriorityQueue,
    SetADT,
)
from repro.reference import opaque_conflict
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

CASES = [
    pytest.param(
        lambda: BankAccount("BA", opening=6),
        "nrbc_conflict",
        "UIP",
        lambda rng: hotspot_banking(rng, obj="BA"),
        id="bank-uip",
    ),
    pytest.param(
        lambda: BankAccount("BA", opening=6),
        "nfc_conflict",
        "DU",
        lambda rng: hotspot_banking(rng, obj="BA"),
        id="bank-du",
    ),
    pytest.param(
        lambda: EscrowAccount("ESC", opening=8),
        "nrbc_conflict",
        "UIP",
        lambda rng: escrow_workload(rng, obj="ESC"),
        id="escrow-uip",
    ),
    pytest.param(
        lambda: SetADT("SET"),
        "nfc_conflict",
        "DU",
        lambda rng: set_membership_workload(rng, obj="SET"),
        id="set-du",
    ),
    pytest.param(
        lambda: FifoQueue("Q"),
        "nrbc_conflict",
        "UIP",
        lambda rng: producer_consumer(rng, obj="Q"),
        id="fifo-uip",
    ),
    pytest.param(
        lambda: KVStore("KV"),
        "nrbc_conflict",
        "UIP",
        lambda rng: generic_workload(KVStore("KV"), rng, obj="KV"),
        id="kv-refine-uip",
    ),
    pytest.param(
        lambda: PriorityQueue("PQ"),
        "nfc_conflict",
        "DU",
        lambda rng: generic_workload(PriorityQueue("PQ"), rng, obj="PQ"),
        id="pqueue-refine-du",
    ),
]


def run_once(factory, relation, recovery, scripts_fn, seed, wrap=lambda c: c):
    adt = factory()
    conflict = wrap(getattr(adt, relation)())
    obj = ManagedObject(adt, conflict, recovery)
    system = TransactionSystem([obj])
    metrics = run_scripts(system, scripts_fn(random.Random(seed)), seed=seed)
    compiled = obj.locks.compiled is not None
    return compiled, tuple(system.history()), metrics.counters()


@pytest.mark.parametrize("factory,relation,recovery,scripts_fn", CASES)
def test_compiled_and_interpreted_runs_identical(
    factory, relation, recovery, scripts_fn
):
    contended = 0
    for seed in SEEDS:
        fast_compiled, fast_history, fast_counters = run_once(
            factory, relation, recovery, scripts_fn, seed
        )
        slow_compiled, slow_history, slow_counters = run_once(
            factory, relation, recovery, scripts_fn, seed, opaque_conflict
        )
        assert fast_compiled and not slow_compiled
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
        assert run(seed) == run(seed, opaque_conflict), seed
