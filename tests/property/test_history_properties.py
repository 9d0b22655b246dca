"""Property-based tests of history invariants (paper Sections 2–3).

Includes the structural facts the paper's proofs lean on: precedes is a
strict partial order, Lemma 1 (``precedes(H|X) ⊆ precedes(H)``), and the
equivalence of a history with its serializations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reference import linear_extensions
from repro.core.history import History, equivalent, serial_history

from .strategies import OBJECTS, TXNS, well_formed_histories

SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(well_formed_histories())
def test_validation_accepts_generated_histories(h):
    History(h.events)  # re-validate from scratch


@SETTINGS
@given(well_formed_histories())
def test_opseq_counts_response_events(h):
    assert len(h.opseq()) == sum(1 for e in h if e.is_response)


@SETTINGS
@given(well_formed_histories())
def test_status_partition(h):
    assert not (h.committed() & h.aborted())
    assert h.active() == h.transactions() - h.committed() - h.aborted()


@SETTINGS
@given(well_formed_histories())
def test_projection_composition_commutes(h):
    for obj in OBJECTS:
        for txn in TXNS:
            a = h.project_objects(obj).project_transactions(txn)
            b = h.project_transactions(txn).project_objects(obj)
            assert a.events == b.events


@SETTINGS
@given(well_formed_histories())
def test_projection_is_subsequence(h):
    for txn in TXNS:
        proj = h.project_transactions(txn)
        it = iter(h.events)
        assert all(any(e == p for e in it) for p in proj.events)


@SETTINGS
@given(well_formed_histories())
def test_precedes_is_strict_partial_order(h):
    precedes = h.precedes()
    assert all(a != b for a, b in precedes)  # irreflexive
    for a, b in precedes:
        for c, d in precedes:
            if b == c:
                assert (a, d) in precedes  # transitive


@SETTINGS
@given(well_formed_histories())
def test_lemma_1_precedes_projection(h):
    """Lemma 1: precedes(H|X) ⊆ precedes(H)."""
    for obj in OBJECTS:
        assert h.project_objects(obj).precedes() <= h.precedes()


@SETTINGS
@given(well_formed_histories())
def test_permanent_only_committed(h):
    perm = h.permanent()
    assert perm.transactions() <= h.committed()
    assert perm.failure_free()


@SETTINGS
@given(well_formed_histories())
def test_serial_history_is_equivalent_and_serial(h):
    perm = h.permanent()
    txns = sorted(perm.transactions())
    s = serial_history(perm, txns)
    assert s.is_serial()
    assert equivalent(perm, s)


@SETTINGS
@given(well_formed_histories())
def test_commit_order_consistent_with_event_order(h):
    order = h.commit_order()
    assert set(order) == set(h.committed())
    positions = {}
    for i, e in enumerate(h):
        if e.is_commit and e.txn not in positions:
            positions[e.txn] = i
    assert list(order) == sorted(order, key=positions.__getitem__)


@SETTINGS
@given(well_formed_histories())
def test_linear_extensions_respect_precedes(h):
    txns = sorted(h.committed())
    precedes = {(a, b) for (a, b) in h.precedes() if a in txns and b in txns}
    count = 0
    for ext in linear_extensions(txns, precedes):
        count += 1
        pos = {t: i for i, t in enumerate(ext)}
        assert all(pos[a] < pos[b] for a, b in precedes)
        if count > 50:
            break
    if txns:
        assert count >= 1


@SETTINGS
@given(well_formed_histories(), st.randoms(use_true_random=False))
def test_equivalence_is_event_multiset_preserving(h, rnd):
    """Any serialization permutes whole-transaction blocks only."""
    perm = h.permanent()
    txns = sorted(perm.transactions())
    rnd.shuffle(txns)
    s = serial_history(perm, txns)
    assert sorted(map(str, s.events)) == sorted(map(str, perm.events))
