"""Unit tests for the lock manager and the waits-for graph."""

import random

import pytest

from repro.adts import BankAccount
from repro.core.conflict import EmptyConflict, TotalConflict
from repro.core.events import op
from repro.runtime.lock_manager import LockManager, WaitsForGraph

A = op("X", "a")
B = op("X", "b")


class TestLockManager:
    def test_no_conflicts_all_free(self):
        lm = LockManager(EmptyConflict())
        lm.acquire("T1", A)
        assert not lm.blockers("T2", A)

    def test_conflict_blocks(self):
        lm = LockManager(TotalConflict())
        lm.acquire("T1", A)
        assert lm.blockers("T2", B) == {"T1"}

    def test_own_locks_never_block(self):
        lm = LockManager(TotalConflict())
        lm.acquire("T1", A)
        assert not lm.blockers("T1", B)

    def test_release_frees(self):
        lm = LockManager(TotalConflict())
        lm.acquire("T1", A)
        released = lm.release_all("T1")
        assert released == (A,)
        assert not lm.blockers("T2", B)

    def test_release_unknown_is_noop(self):
        lm = LockManager(TotalConflict())
        assert lm.release_all("T9") == ()

    def test_held_by(self):
        lm = LockManager(EmptyConflict())
        lm.acquire("T1", A)
        lm.acquire("T1", B)
        assert lm.held_by("T1") == (A, B)
        assert lm.held_by("T2") == ()

    def test_holders(self):
        lm = LockManager(EmptyConflict())
        lm.acquire("T1", A)
        lm.acquire("T2", B)
        assert lm.holders() == {"T1", "T2"}

    def test_asymmetric_conflicts_respected(self):
        ba = BankAccount()
        lm = LockManager(ba.nrbc_conflict())
        lm.acquire("T1", ba.deposit(1))
        # withdraw-OK conflicts with held deposit...
        assert lm.blockers("T2", ba.withdraw_ok(1)) == {"T1"}
        lm2 = LockManager(ba.nrbc_conflict())
        lm2.acquire("T1", ba.withdraw_ok(1))
        # ...but deposit does not conflict with held withdraw-OK.
        assert lm2.blockers("T2", ba.deposit(1)) == frozenset()


class TestWaitsForGraph:
    def test_no_cycle_in_chain(self):
        g = WaitsForGraph()
        assert g.wait("A", ["B"]) is None
        assert g.wait("B", ["C"]) is None
        assert all(g.find_cycle(t) is None for t in "ABC")

    def test_two_cycle(self):
        g = WaitsForGraph()
        assert g.wait("A", ["B"]) is None
        assert g.wait("B", ["A"]) == ("B", "A")
        assert g.find_cycle("A") == ("A", "B")

    def test_three_cycle(self):
        g = WaitsForGraph()
        g.wait("A", ["B"])
        g.wait("B", ["C"])
        assert g.wait("C", ["A"]) == ("C", "A", "B")
        assert set(g.find_cycle("B")) == {"A", "B", "C"}

    def test_self_edges_ignored(self):
        g = WaitsForGraph()
        assert g.wait("A", ["A"]) is None
        assert g.find_cycle("A") is None

    def test_wait_replaces_stale_edges(self):
        g = WaitsForGraph()
        g.wait("A", ["B"])
        g.wait("A", ["C"])  # B released meanwhile; only C blocks now
        assert g.edges() == {("A", "C")}
        assert g.wait("B", ["A"]) is None  # no A->B edge anymore
        assert g.find_cycle("A") is None

    def test_clear_waiter(self):
        g = WaitsForGraph()
        g.wait("A", ["B"])
        g.clear_waiter("A")
        assert g.edges() == frozenset()

    def test_remove_transaction_both_roles(self):
        g = WaitsForGraph()
        g.wait("A", ["B"])
        g.wait("B", ["A"])
        g.remove_transaction("A")
        assert g.find_cycle("B") is None
        assert g.edges() == frozenset()

    def test_empty_block_set_clears(self):
        g = WaitsForGraph()
        g.wait("A", ["B"])
        assert g.wait("A", []) is None
        assert g.edges() == frozenset()

    def test_deterministic_cycle(self):
        """Targets are searched in sorted order, whatever order (and
        whatever string hashing) the holders came in."""
        g = WaitsForGraph()
        g.wait("B", ["D", "C"])
        g.wait("C", ["A"])
        g.wait("D", ["A"])
        assert g.wait("A", {"B"}) == ("A", "B", "C")
        assert g.find_cycle("A") == g.find_cycle("A") == ("A", "B", "C")

    def test_a_cycle_off_the_start_is_not_reported(self):
        """The search answers for cycles through ``start`` only: a graph
        kept acyclic between waits has no other kind to find."""
        g = WaitsForGraph()
        g.wait("B", ["C"])
        g.wait("C", ["B"])
        g.wait("A", ["B"])
        assert g.find_cycle("A") is None
        assert g.find_cycle("B") == ("B", "C")


def _scratch_cycle(edges, start):
    """The first path from ``start`` back to it, every node's holders
    tried in sorted order, worked out from the bare edge sets."""
    seen = {start}

    def search(node, path):
        for nxt in sorted(edges.get(node, ())):
            if nxt == start:
                return tuple(path)
            if nxt not in seen:
                seen.add(nxt)
                found = search(nxt, path + [nxt])
                if found is not None:
                    return found
        return None

    return search(start, [start])


class TestWaitsForGraphAgainstAFromScratchSearch:
    """Seeded ``wait`` / ``clear_waiter`` / ``remove_transaction``
    sequences on the graph and on a plain ``waiter -> set(holders)``
    model: after every step the edges are equal, and so is every
    ``find_cycle`` answer (and ``wait``'s own) to a recursive sorted
    depth-first search over the model.  The graph is not kept acyclic
    here, so cycles off the start are in play too."""

    TXNS = "ABCDEFG"

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sequences(self, seed):
        rng = random.Random(seed)
        graph, model = WaitsForGraph(), {}
        for _step in range(80):
            txn = rng.choice(self.TXNS)
            roll = rng.random()
            if roll < 0.7:
                picked = rng.sample(self.TXNS, rng.randint(0, 3))
                holders = rng.choice([list, set, frozenset])(picked)
                new = set(picked) - {txn}
                changed = new != model.get(txn, set())
                if new:
                    model[txn] = new
                else:
                    model.pop(txn, None)
                expected = _scratch_cycle(model, txn) if changed else None
                assert graph.wait(txn, holders) == expected
            elif roll < 0.85:
                graph.clear_waiter(txn)
                model.pop(txn, None)
            else:
                graph.remove_transaction(txn)
                model.pop(txn, None)
                for waiter in list(model):
                    model[waiter].discard(txn)
                    if not model[waiter]:
                        del model[waiter]
            assert graph.edges() == {(w, h) for w, hs in model.items() for h in hs}
            for start in self.TXNS:
                assert graph.find_cycle(start) == _scratch_cycle(model, start)

    def test_an_unchanged_wait_keeps_the_edge_set_it_was_given(self):
        """The edges a refused attempt reports are stored as given, and
        the next report of the same set is one comparison."""
        graph = WaitsForGraph()
        holders = frozenset({"B", "C"})
        assert graph.wait("A", holders) is None
        assert graph._edges["A"] is holders
        assert graph.wait("A", frozenset({"C", "B"})) is None
        assert graph._edges["A"] is holders
