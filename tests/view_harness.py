"""The one harness for "the incremental view equals the from-scratch view".

Every recovery manager — whichever view it maintains, whichever undo
strategy, fed by the automaton or by the runtime — must satisfy, after
every event of any history,

    manager.macro(txn) == spec.states_after(View(H, txn))

for every active transaction (and a probe transaction with no events,
which sees each view's shared part), and its response and legality
answers over the invocation alphabet must be the spec's replaying ones.
``tests/core/test_view_cursors.py``, ``tests/runtime/test_recovery_equivalence.py``
and ``tests/runtime/test_view_manager.py`` all drive it.
"""

from repro.core.history import HistoryBuilder

PROBE = "PROBE"


def drive_and_compare(manager, view, spec, events):
    """Feed ``events`` to a fresh ``manager`` one by one through
    ``apply``, checking the invariant after each; returns the manager."""
    builder = HistoryBuilder()
    alphabet = spec.invocation_alphabet()
    for event in events:
        manager.apply(event)
        builder.append(event)
        check_against_scratch(manager, view, spec, builder.snapshot(), alphabet)
    return manager


def check_against_scratch(manager, view, spec, history, alphabet):
    """The invariant at one point of a history."""
    for txn in sorted(history.active() | {PROBE}):
        opseq = tuple(view(history, txn))
        where = "%s for %s after %d events" % (manager.name, txn, len(history))
        assert manager.macro(txn) == spec.states_after(opseq), where
        for invocation in alphabet:
            responses = manager.enabled_responses(txn, invocation)
            assert responses == spec.responses(opseq, invocation), where
            for response in responses:
                operation = spec.operation(invocation, response)
                assert manager.accepts(txn, operation), where
