"""EXP-C13: incremental automaton scaling — O(Δ) cursors vs O(n) recompute.

The object automaton's response precondition needs ``View(H, A)`` and a
spec-legality check for every enabled-response query.  A view without
a delta cursor (here the same view behind
``repro.reference.opaque_view``, "recompute" below) is recomputed from
the raw history and replayed through the spec NFA — O(n) per event —
while the cursor path maintains each view opseq and its macro-state
under event deltas — O(Δ) amortized.  This bench pins down two claims:

1. **Exact equivalence** — for every view in {UIP, DU, SUIP} the two
   paths agree event-for-event: identical enabled-response sets along a
   deterministic drive, byte-identical ``generate_trace`` histories for
   fixed seeds (abort-heavy included), and identical ``accepts``
   verdicts on the sampled histories.
2. **Measured speedup** — steps/sec for both paths at history lengths
   100/200/400.  The >= 5x floor at n=400 is asserted only on real
   timing runs (``REPRO_BENCH_EQUALITY_ONLY=1`` — the CI smoke job —
   records equality without holding a shared runner to a wall-clock
   bar).

Results land in ``BENCH_automaton_scaling.json`` for the CI artifact
trail.
"""

import json
import os
import pathlib
import random
import time

import pytest

from repro.adts.bank_account import BankAccount
from repro.core import DU, SUIP, UIP, EmptyConflict, ObjectAutomaton
from repro.core.events import inv
from repro.core.object_automaton import TransactionProgram, generate_trace
from repro.reference import opaque_view

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "BENCH_automaton_scaling.json"
)

VIEWS = (("UIP", UIP), ("DU", DU), ("SUIP", SUIP))
HISTORY_LENGTHS = (100, 200, 400)
TXNS = 4
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 5.0
EQUALITY_ONLY = os.environ.get("REPRO_BENCH_EQUALITY_ONLY") == "1"


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


def drive(view, n_events, *, probe_enabled=False):
    """A deterministic drive producing an ``n_events``-long history.

    ``TXNS`` transactions stay concurrently active, invoking and
    responding to deposits round-robin (EmptyConflict: the implicit-lock
    precondition never blocks, so every event exercises the view/spec
    legality path), then commit in order.  With ``probe_enabled`` each
    step also queries ``enabled_responses`` for every live transaction —
    the automaton's real read pattern — and the per-txn sets are
    returned for cross-path comparison.
    """
    spec = BankAccount()
    automaton = ObjectAutomaton(spec, view, EmptyConflict())
    txns = ["T%d" % i for i in range(TXNS)]
    # invoke+respond per op, plus one commit per txn
    ops_per_txn = max(1, (n_events - TXNS) // (2 * TXNS))
    probes = []
    for round_no in range(ops_per_txn):
        for txn in txns:
            automaton.invoke(txn, inv("deposit", 1 + round_no % 3))
            if probe_enabled:
                probes.append(
                    {t: automaton.enabled_responses(t) for t in txns}
                )
            automaton.respond(txn, "ok")
    for txn in txns:
        automaton.commit(txn)
    return automaton.history, probes


def sample_programs():
    amounts = (1, 2, 3)
    programs = []
    for i in range(TXNS):
        invocations = []
        for j in range(6):
            kind = (i + j) % 3
            if kind == 0:
                invocations.append(inv("deposit", amounts[j % 3]))
            elif kind == 1:
                invocations.append(inv("withdraw", amounts[(i + j) % 3]))
            else:
                invocations.append(inv("balance"))
        programs.append(TransactionProgram("T%d" % i, tuple(invocations)))
    return programs


@pytest.mark.experiment("EXP-C13")
@pytest.mark.parametrize("view_name,view", VIEWS, ids=[n for n, _ in VIEWS])
def test_incremental_matches_recompute_lockstep(benchmark, view_name, view):
    """Both paths see identical enabled sets and histories, step for step."""
    fast_history, fast_probes = benchmark.pedantic(
        lambda: drive(view, 160, probe_enabled=True),
        rounds=1,
        iterations=1,
    )
    slow_history, slow_probes = drive(
        opaque_view(view), 160, probe_enabled=True
    )
    assert tuple(fast_history) == tuple(slow_history)
    assert fast_probes == slow_probes, "%s enabled sets diverged" % view_name


@pytest.mark.experiment("EXP-C13")
@pytest.mark.parametrize("view_name,view", VIEWS, ids=[n for n, _ in VIEWS])
def test_generate_trace_byte_identical(benchmark, view_name, view):
    """Sampled traces are byte-identical across paths, aborts included."""
    spec = BankAccount()
    conflict = spec.nfc_conflict()

    def sample(view, seed):
        return generate_trace(
            spec,
            view,
            conflict,
            sample_programs(),
            random.Random(seed),
            abort_probability=0.15,
        )

    benchmark.pedantic(lambda: sample(view, 0), rounds=1, iterations=1)
    for seed in range(4):
        fast = sample(view, seed)
        slow = sample(opaque_view(view), seed)
        assert tuple(fast) == tuple(slow), (
            "%s seed=%d diverged" % (view_name, seed)
        )
        # and both membership paths agree the sample is in the language
        assert ObjectAutomaton.accepts(spec, view, conflict, fast)
        assert ObjectAutomaton.accepts(spec, opaque_view(view), conflict, fast)


@pytest.mark.experiment("EXP-C13")
def test_automaton_scaling_speedup(benchmark, capsys):
    """Record steps/sec vs history length; assert the floor when timing."""
    cpus = cpus_available()
    curve = {}
    for n in HISTORY_LENGTHS:
        per_view = {}
        for view_name, view in VIEWS:
            fast_s = timed(lambda v=view, k=n: drive(v, k))
            slow_s = timed(lambda v=opaque_view(view), k=n: drive(v, k))
            events = len(drive(view, n)[0])
            per_view[view_name] = {
                "events": events,
                "incremental_s": fast_s,
                "recompute_s": slow_s,
                "incremental_steps_per_s": events / max(fast_s, 1e-9),
                "recompute_steps_per_s": events / max(slow_s, 1e-9),
                "speedup": slow_s / max(fast_s, 1e-9),
            }
        curve[str(n)] = per_view
    benchmark.pedantic(
        lambda: drive(UIP, HISTORY_LENGTHS[-1]),
        rounds=1,
        iterations=1,
    )
    record = {
        "experiment": "EXP-C13",
        "adt": "BankAccount",
        "transactions": TXNS,
        "history_lengths": list(HISTORY_LENGTHS),
        "cpus": cpus,
        "equality_only": EQUALITY_ONLY,
        "floor": SPEEDUP_FLOOR,
        "floor_asserted": not EQUALITY_ONLY,
        "curve": curve,
    }
    ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    top = curve[str(HISTORY_LENGTHS[-1])]
    with capsys.disabled():
        print(
            "\n-- EXP-C13 automaton scaling (n=%d): %s --"
            % (
                HISTORY_LENGTHS[-1],
                ", ".join(
                    "%s %.1fx (%.0f vs %.0f steps/s)"
                    % (
                        name,
                        top[name]["speedup"],
                        top[name]["incremental_steps_per_s"],
                        top[name]["recompute_steps_per_s"],
                    )
                    for name, _ in VIEWS
                ),
            )
        )
    # Equality-only runs (CI smoke) record the curve without holding a
    # shared runner to a wall-clock bar; real runs assert the floor.
    if not EQUALITY_ONLY:
        for name, _ in VIEWS:
            assert top[name]["speedup"] >= SPEEDUP_FLOOR, (name, top[name])
