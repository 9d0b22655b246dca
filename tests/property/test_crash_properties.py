"""Property-based crash-recovery tests: durability at arbitrary crash points.

Random workloads run against a crashable system; a crash is injected at
a random event index.  Invariants:

* committed transactions' effects survive (restart state equals the
  abstract view of the post-crash history);
* the history spanning the crash remains dynamic atomic;
* a second crash immediately after restart changes nothing
  (idempotence).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adts import BankAccount, SemiQueue
from repro.core.atomicity import is_dynamic_atomic
from repro.core.events import inv
from repro.core.views import DU, UIP
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.wal import StableLog

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def ba_op_schedule(draw):
    """A random legal sequence of system calls plus a crash position."""
    n = draw(st.integers(min_value=1, max_value=12))
    calls = []
    active = set()
    counter = 0
    for _ in range(n):
        choices = ["begin"]
        if active:
            choices += ["op", "commit", "abort"]
        kind = draw(st.sampled_from(choices))
        if kind == "begin":
            counter += 1
            txn = "T%d" % counter
            active.add(txn)
            calls.append(("op", txn))
        else:
            txn = draw(st.sampled_from(sorted(active)))
            calls.append((kind, txn))
            if kind in ("commit", "abort"):
                active.discard(txn)
    crash_at = draw(st.integers(min_value=0, max_value=len(calls)))
    return calls, crash_at


def _apply_calls(system, calls, crash_at, draw_amount):
    killed = set()
    for i, (kind, txn) in enumerate(calls):
        if i == crash_at:
            killed |= system.crash()
        if system.status(txn) != "active" or txn in killed:
            continue
        if kind == "op":
            system.invoke(txn, "BA", inv("deposit", draw_amount(i)))
        elif kind == "commit":
            system.commit(txn)
        elif kind == "abort":
            system.abort(txn)
    if crash_at >= len(calls):
        system.crash()


@SETTINGS
@given(ba_op_schedule(), st.sampled_from(["UIP", "DU"]))
def test_restart_state_matches_abstract_view(schedule, recovery):
    calls, crash_at = schedule
    ba = BankAccount("BA")
    conflict = ba.nrbc_conflict() if recovery == "UIP" else ba.nfc_conflict()
    view = UIP if recovery == "UIP" else DU
    system = TransactionSystem([ManagedObject(ba, conflict, recovery, log=StableLog())])
    _apply_calls(system, calls, crash_at, lambda i: (i % 2) + 1)
    system.crash()  # final crash: all volatile state gone
    obj = system.objects["BA"]
    h = system.history()
    assert obj.recovery.macro("PROBE") == ba.states_after(view(h, "PROBE"))


@SETTINGS
@given(ba_op_schedule(), st.sampled_from(["UIP", "DU"]))
def test_history_across_crashes_dynamic_atomic(schedule, recovery):
    calls, crash_at = schedule
    ba = BankAccount("BA")
    conflict = ba.nrbc_conflict() if recovery == "UIP" else ba.nfc_conflict()
    system = TransactionSystem([ManagedObject(ba, conflict, recovery, log=StableLog())])
    _apply_calls(system, calls, crash_at, lambda i: (i % 2) + 1)
    assert is_dynamic_atomic(system.history(), ba)


@SETTINGS
@given(ba_op_schedule())
def test_double_crash_idempotent(schedule):
    calls, crash_at = schedule
    ba = BankAccount("BA")
    system = TransactionSystem([ManagedObject(ba, ba.nrbc_conflict(), "UIP", log=StableLog())])
    _apply_calls(system, calls, crash_at, lambda i: (i % 2) + 1)
    system.crash()
    obj = system.objects["BA"]
    state_once = obj.recovery.macro("PROBE")
    system.crash()
    assert obj.recovery.macro("PROBE") == state_once


@SETTINGS
@given(st.integers(min_value=0, max_value=6), st.sampled_from(["UIP", "DU"]))
def test_semiqueue_survives_crash(crash_at, recovery):
    sq = SemiQueue("SQ", domain=("a", "b"))
    conflict = sq.nrbc_conflict() if recovery == "UIP" else sq.nfc_conflict()
    system = TransactionSystem([ManagedObject(sq, conflict, recovery, log=StableLog())])
    steps = [("A", "a"), ("A", "b"), ("B", "a")]
    for i, (txn, item) in enumerate(steps):
        if i == crash_at:
            system.crash()
        if system.status(txn) == "active":
            system.invoke(txn, "SQ", inv("enq", item))
    for txn in ("A", "B"):
        if system.status(txn) == "active":
            system.commit(txn)
    system.crash()
    obj = system.objects["SQ"]
    h = system.history()
    view = UIP if recovery == "UIP" else DU
    assert obj.recovery.macro("PROBE") == sq.states_after(view(h, "PROBE"))
