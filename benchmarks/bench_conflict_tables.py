"""EXP-C14: conflict tables — the lock manager's ``(class, key)`` index.

Conflict checks sit on every lock acquisition and every dynamic-atomicity
checker step.  The per-pair loop (what a relation with no table gets —
here the same class matrix read through
``repro.reference.matrix_conflict``, the "set-lookup" side below) answers
each query by classifying both operations and probing a pair set per
held operation per holder; a table
(:class:`~repro.core.conflict.ClassifierConflict`) answers with one
cached slot ``(class, key)`` and one dictionary lookup per class of the
operation's row, in the manager's index of holds by slot.  This bench
pins down two claims:

1. **Exact equivalence** — for every probe over a contended lock table
   the table's and the set lookup's :meth:`LockManager.blockers` return
   identical blocker sets (the keyed KV and set relations included).
2. **Measured speedup** — blockers/sec on both paths with ``HOLDERS``
   active transactions each holding ``OPS_PER_HOLDER`` operations.  The
   >= 10x floor, on the unkeyed bank case and on both keyed cases, is
   asserted only on real timing runs (``REPRO_BENCH_EQUALITY_ONLY=1`` —
   the CI smoke job — records equality without holding a shared runner
   to a wall-clock bar).

``BENCH_conflict_tables.json`` records the cases, their query counts and
the floor; the timings themselves are 15–300 ms runs that
``check_trend.py`` can never compare, so they are printed, not stored.
"""

import itertools
import json
import os
import pathlib
import time

import pytest

from repro.adts import BankAccount, KVStore, SetADT
from repro.reference import matrix_conflict
from repro.runtime.lock_manager import LockManager

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_conflict_tables.json"
)

HOLDERS = 16
OPS_PER_HOLDER = 8
TIMING_REPEATS = 200
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 10.0
EQUALITY_ONLY = os.environ.get("REPRO_BENCH_EQUALITY_ONLY") == "1"

#: the contended-table ADTs: the unkeyed hot path plus both keyed
#: relations (KV by key, set by element).
LOCK_CASES = (
    ("bank-nrbc", lambda: BankAccount("BA"), "nrbc_conflict"),
    ("bank-nfc", lambda: BankAccount("BA"), "nfc_conflict"),
    ("kv-nrbc", lambda: KVStore("KV"), "nrbc_conflict"),
    ("set-nrbc", lambda: SetADT("SET"), "nrbc_conflict"),
)
FLOOR_CASES = ("bank-nrbc", "kv-nrbc", "set-nrbc")


def twin_managers(adt, relation):
    """The loaded manager on the table, and on its set-lookup twin."""
    table = getattr(adt, relation)()
    fast = loaded_manager(adt, table)
    slow = loaded_manager(adt, matrix_conflict(table))
    assert fast.table is not None and slow.table is None
    return fast, slow


def cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def timed(thunk):
    """Min-of-N wall time (min is the noise-robust statistic here)."""
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def loaded_manager(adt, conflict):
    """A manager with ``HOLDERS`` transactions holding ground operations.

    Holdings cycle the ground alphabet with per-holder offsets, so each
    holder's list mixes conflicting and non-conflicting classes — the
    set-lookup path pays a verdict walk per holder while the table
    answers from the slots of the operation's row.
    """
    ops = adt.ground_alphabet()
    manager = LockManager(conflict)
    cycle = itertools.cycle(ops)
    for i in range(HOLDERS):
        for _ in range(i % len(ops)):  # stagger the per-holder offsets
            next(cycle)
        for _ in range(OPS_PER_HOLDER):
            manager.acquire("T%d" % i, next(cycle))
    return manager


def probe_all(manager, probes):
    out = []
    for op in probes:
        out.append(manager.blockers("P", op))
        out.append(manager.blockers("T0", op))  # self-exclusion path
    return out


@pytest.mark.experiment("EXP-C14")
@pytest.mark.parametrize("case_id,factory,relation", LOCK_CASES, ids=[c[0] for c in LOCK_CASES])
def test_lock_manager_blockers_identical(benchmark, case_id, factory, relation):
    """Table and set-lookup blockers agree on every probe, non-vacuously."""
    adt = factory()
    fast, slow = twin_managers(adt, relation)
    probes = adt.ground_alphabet()
    fast_sets = benchmark.pedantic(
        lambda: probe_all(fast, probes), rounds=1, iterations=1
    )
    slow_sets = probe_all(slow, probes)
    assert fast_sets == slow_sets, case_id
    # the comparison must exercise real conflicts, not an empty table
    assert any(fast_sets), "%s: no probe produced blockers" % case_id


@pytest.mark.experiment("EXP-C14")
def test_conflict_table_speedup(benchmark, capsys):
    """Time both paths on every case; assert the floor when timing."""
    cpus = cpus_available()
    curve = {}
    timings = {}
    for case_id, factory, relation in LOCK_CASES:
        adt = factory()
        fast, slow = twin_managers(adt, relation)
        probes = adt.ground_alphabet()
        assert probe_all(fast, probes) == probe_all(slow, probes)
        queries = len(probes) * 2 * TIMING_REPEATS

        def drive(manager):
            for _ in range(TIMING_REPEATS):
                probe_all(manager, probes)

        fast_s = timed(lambda: drive(fast))
        slow_s = timed(lambda: drive(slow))
        curve[case_id] = {"queries": queries}
        timings[case_id] = (
            slow_s / max(fast_s, 1e-9),
            queries / max(fast_s, 1e-9),
            queries / max(slow_s, 1e-9),
        )
    benchmark.pedantic(
        lambda: probe_all(
            loaded_manager(BankAccount("BA"), BankAccount("BA").nrbc_conflict()),
            BankAccount("BA").ground_alphabet(),
        ),
        rounds=1,
        iterations=1,
    )
    record = {
        "experiment": "EXP-C14",
        "holders": HOLDERS,
        "ops_per_holder": OPS_PER_HOLDER,
        "timing_repeats": TIMING_REPEATS,
        "cpus": cpus,
        "equality_only": EQUALITY_ONLY,
        "floor": SPEEDUP_FLOOR,
        "floor_asserted": not EQUALITY_ONLY,
        "floor_cases": list(FLOOR_CASES),
        "curve": curve,
    }
    ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    with capsys.disabled():
        print(
            "\n-- EXP-C14 conflict tables (%d holders x %d ops): %s --"
            % (
                HOLDERS,
                OPS_PER_HOLDER,
                ", ".join(
                    "%s %.1fx (%.0f vs %.0f blockers/s)" % ((case_id,) + timings[case_id])
                    for case_id, _, _ in LOCK_CASES
                ),
            )
        )
    # Equality-only runs (CI smoke) hold a shared runner to no wall-clock
    # bar; real runs assert the floor on the unkeyed and the keyed cases.
    if not EQUALITY_ONLY:
        for case_id in FLOOR_CASES:
            assert timings[case_id][0] >= SPEEDUP_FLOOR, (case_id, timings[case_id])
