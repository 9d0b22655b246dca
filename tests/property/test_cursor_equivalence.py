"""Property tests: incremental view cursors agree with from-scratch views.

Randomized schedules are driven through two object automata in lockstep:

* the *checked* automaton (over ``repro.reference.checked_view``) — the
  incremental path, with every cursor answer cross-validated against the
  from-scratch ``View`` (a divergence raises
  :class:`~repro.reference.ViewCursorMismatch` immediately), and
* the *oracle* automaton (over ``repro.reference.opaque_view``) — the
  recompute-from-history path.

At every step, for every live transaction, both automata must report the
same enabled-response set; at the end both histories must be identical
and ``accepts`` must admit them under both the plain and the opaque view.  Schedules are abort-heavy
and include crash-style moves that mass-abort every live transaction,
because aborts are exactly where the cursors rebuild instead of append.

The matrix covers four ADTs (bank account, counter, FIFO queue, set) ×
the three recovery views × both conflict relations (NFC and NRBC).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adts import BankAccount, Counter, FifoQueue, SetADT
from repro.core.object_automaton import ObjectAutomaton
from repro.core.views import DU, SUIP, UIP
from repro.reference import checked_view, opaque_view

SETTINGS = settings(max_examples=25, deadline=None)

ADTS = {
    "bank": lambda: BankAccount(domain=(1, 2)),
    "counter": lambda: Counter(domain=(1, 2)),
    "queue": lambda: FifoQueue(domain=("a", "b")),
    "set": lambda: SetADT(domain=("a", "b")),
}
VIEWS = {"UIP": UIP, "DU": DU, "SUIP": SUIP}
CONFLICTS = ("NFC", "NRBC")
TXNS = ("A", "B", "C")

MATRIX = [
    (adt, view, conflict)
    for adt in sorted(ADTS)
    for view in sorted(VIEWS)
    for conflict in CONFLICTS
]


def build_pair(adt_name, view_name, conflict_name):
    spec = ADTS[adt_name]()
    view = VIEWS[view_name]
    conflict = (
        spec.nfc_conflict() if conflict_name == "NFC" else spec.nrbc_conflict()
    )
    checked = ObjectAutomaton(spec, checked_view(view), conflict)
    oracle = ObjectAutomaton(spec, opaque_view(view), conflict)
    return spec, view, conflict, checked, oracle


def lockstep_drive(draw, spec, checked, oracle, *, max_steps=18):
    """Drive both automata through one drawn schedule, comparing each step."""
    alphabet = spec.invocation_alphabet()
    live = set(TXNS)
    pending = {}

    for _ in range(draw(st.integers(min_value=0, max_value=max_steps))):
        if not live:
            break
        for txn in sorted(live):
            assert checked.enabled_responses(txn) == oracle.enabled_responses(
                txn
            ), "enabled sets diverged for %s" % txn
        moves = []
        for txn in sorted(live):
            if txn in pending:
                for response in sorted(
                    checked.enabled_responses(txn), key=repr
                ):
                    moves.append(("respond", txn, response))
            else:
                for invocation in alphabet:
                    moves.append(("invoke", txn, invocation))
                moves.append(("commit", txn, None))
            # Abort-heavy on purpose: aborts are the cursor rebuild path.
            moves.append(("abort", txn, None))
        if len(live) > 1:
            moves.append(("crash", None, None))  # mass-abort every live txn
        if not moves:
            break
        kind, txn, payload = draw(st.sampled_from(moves))
        if kind == "invoke":
            checked.invoke(txn, payload)
            oracle.invoke(txn, payload)
            pending[txn] = payload
        elif kind == "respond":
            op_fast = checked.respond(txn, payload)
            op_slow = oracle.respond(txn, payload)
            assert op_fast == op_slow
            del pending[txn]
        elif kind == "commit":
            checked.commit(txn)
            oracle.commit(txn)
            live.discard(txn)
        elif kind == "abort":
            checked.abort(txn)
            oracle.abort(txn)
            pending.pop(txn, None)
            live.discard(txn)
        elif kind == "crash":
            for victim in sorted(live):
                checked.abort(victim)
                oracle.abort(victim)
            pending.clear()
            live.clear()


@pytest.mark.parametrize(
    "adt_name,view_name,conflict_name",
    MATRIX,
    ids=["-".join(combo) for combo in MATRIX],
)
@SETTINGS
@given(data=st.data())
def test_cursor_agrees_with_recompute(data, adt_name, view_name, conflict_name):
    spec, view, conflict, checked, oracle = build_pair(
        adt_name, view_name, conflict_name
    )
    lockstep_drive(data.draw, spec, checked, oracle)
    history = checked.history
    assert tuple(history) == tuple(oracle.history)
    assert ObjectAutomaton.accepts(spec, view, conflict, history)
    assert ObjectAutomaton.accepts(spec, opaque_view(view), conflict, history)


@pytest.mark.parametrize("view_name", sorted(VIEWS))
@SETTINGS
@given(data=st.data())
def test_clone_fork_is_independent(data, view_name):
    """Mutating an original after clone() never leaks into the twin.

    The twin's cursors must keep answering from the branch point: its
    enabled sets must equal those of a fresh recompute-path automaton
    replaying the twin's own history.
    """
    spec, view, conflict, checked, oracle = build_pair(
        "bank", view_name, "NFC"
    )
    lockstep_drive(data.draw, spec, checked, oracle, max_steps=10)
    twin = checked.clone()
    # Mutate the original: abort every live transaction (rebuild path).
    for txn in sorted(checked.active_transactions()):
        checked.abort(txn)
    # The twin still answers from the branch point, validated per query
    # by check mode and compared against a fresh recompute automaton.
    replay = ObjectAutomaton(spec, opaque_view(view), conflict)
    for event in twin.history:
        replay.step(event)
    for txn in TXNS:
        assert twin.enabled_responses(txn) == replay.enabled_responses(txn)
