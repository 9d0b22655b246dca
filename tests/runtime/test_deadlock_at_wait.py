"""A waits-for cycle is broken on the wait that closes it.

``WaitsForGraph.wait`` records a waiter's edges and returns the cycle
they close through the waiter; the scheduler aborts a victim of it on
the spot.  Edges enter the graph nowhere else, so the graph is acyclic
between waits and one search from the waiter finds every cycle there is.
These tests hold that against a whole-graph search kept here, outside
the product: over random ``wait`` / ``clear_waiter`` /
``remove_transaction`` sequences, and after every scanned tick of seeded
closed-loop runs, flash-crowd drives and crash / site-crash torture,
whose histories stay dynamic atomic and whose audits stay green.  Then
progress: over fifty flash crowds no script runs out of restarts, and a
restart strictly lowers a transaction's claim to be the next victim.
"""

import pathlib
import random
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import repro
from repro.core.atomicity import is_dynamic_atomic
from repro.experiments.comparisons import comparison_case, standard_configurations
from repro.runtime import ManagedObject, TransactionSystem
from repro.runtime.lock_manager import WaitsForGraph
from repro.runtime.scheduler import Scheduler, TransactionScript, _LiveTxn
from repro.runtime.torture import TortureConfig
from repro.runtime.trace import TraceCollector

from ..drive_harness import FLASH_CROWD, flash_crowd_scheduler, scheduler_in_hand
from .test_event_scheduler import _site_cells, _torture_cells

SRC = pathlib.Path(repro.__file__).parent.parent
TXNS = ["T%d" % i for i in range(7)]


def whole_graph_cycle(graph):
    """Some cycle anywhere in ``graph`` (a tuple, each member waiting on
    the next and the last on the first), or None: a depth-first search
    from every node — the reference the product no longer runs."""
    succ = {}
    for waiter, holder in graph.edges():
        succ.setdefault(waiter, []).append(holder)
    done, path = set(), []

    def visit(node):
        if node in path:
            return tuple(path[path.index(node):])
        if node in done:
            return None
        path.append(node)
        for nxt in sorted(succ.get(node, ())):
            found = visit(nxt)
            if found is not None:
                return found
        path.pop()
        done.add(node)
        return None

    for start in sorted(succ):
        found = visit(start)
        if found is not None:
            return found
    return None


def _is_cycle_through(graph, cycle, waiter):
    edges = graph.edges()
    return (
        cycle[0] == waiter
        and len(set(cycle)) == len(cycle) >= 2
        and all(
            (a, b) in edges for a, b in zip(cycle, cycle[1:] + cycle[:1])
        )
    )


# ---------------------------------------------------------------------------
# the graph: random sequences against the whole-graph search
# ---------------------------------------------------------------------------


def _random_sequence(graph, rng, steps):
    """Drive ``graph`` like the scheduler does, checking every answer:
    each cycle ``wait`` (then ``find_cycle`` from the waiter) reports
    is broken by removing a member, any member; returns the cycles
    found, each with the number found on the same wait."""
    found = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.7:
            waiter = rng.choice(TXNS)
            holders = rng.sample(TXNS, rng.randint(0, 3))
            cycle = graph.wait(waiter, holders)
            closed = []
            while True:
                reference = whole_graph_cycle(graph)
                assert (cycle is None) == (reference is None), (cycle, reference)
                if cycle is None:
                    break
                assert _is_cycle_through(graph, cycle, waiter), cycle
                assert graph.find_cycle(waiter) == cycle
                closed.append(cycle)
                graph.remove_transaction(rng.choice(cycle))
                cycle = graph.find_cycle(waiter)
            found.extend((c, len(closed)) for c in closed)
        elif roll < 0.85:
            graph.clear_waiter(rng.choice(TXNS))
        else:
            graph.remove_transaction(rng.choice(TXNS))
        # acyclic between waits, whichever member the caller removed
        assert whole_graph_cycle(graph) is None
    return found


@pytest.mark.parametrize("seed", range(40))
def test_wait_reports_exactly_the_cycles_there_are(seed):
    _random_sequence(WaitsForGraph(), random.Random(seed), 80)


def test_the_sequences_are_not_vacuous():
    """They close many cycles, long ones, and waits that close more
    than one — where breaking the first alone would leave the graph
    cyclic unless the victim was the waiter."""
    found = [
        found
        for seed in range(40)
        for found in _random_sequence(WaitsForGraph(), random.Random(seed), 80)
    ]
    assert len(found) > 100
    assert max(len(c) for c, _ in found) >= 4
    assert max(n for _, n in found) >= 2


def test_one_wait_closing_two_cycles():
    g = WaitsForGraph()
    g.wait("A", ["W"])
    g.wait("B", ["W"])
    assert g.wait("W", ["A", "B"]) == ("W", "A")
    g.remove_transaction("A")  # the victim of the first is not the waiter
    assert whole_graph_cycle(g) == ("B", "W")
    assert g.find_cycle("W") == ("W", "B")
    g.remove_transaction("B")
    assert g.find_cycle("W") is None and whole_graph_cycle(g) is None


def test_the_answers_do_not_depend_on_string_hashing():
    """The benchmark's ledger run uses another hash seed than its plain
    runs and requires the same counters: the search order is sorted
    once, as the edges are recorded."""
    code = textwrap.dedent(
        """
        import random
        from repro.runtime.lock_manager import WaitsForGraph

        graph, rng, out = WaitsForGraph(), random.Random(5), []
        names = ["T%d" % i for i in range(9)]
        for _ in range(400):
            waiter = rng.choice(names)
            cycle = graph.wait(waiter, set(rng.sample(names, 4)))
            while cycle:
                out.append(cycle)
                graph.remove_transaction(cycle[-1])
                cycle = graph.find_cycle(waiter)
        print(out)
        """
    )

    def run(hash_seed):
        return subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout

    first = run("0")
    assert first.count("(") > 10
    assert run("1") == run("2") == first


# ---------------------------------------------------------------------------
# the scheduler: acyclic after every tick, atomic histories, green audits
# ---------------------------------------------------------------------------


@pytest.fixture
def checked_ticks(monkeypatch):
    """After every scanned tick — the only place edges are added — the
    scheduler's graph holds no cycle.  Counts the ticks checked, the
    deadlocks broken at a wait and the stall-breaker's aborts."""
    seen = {"ticks": 0, "deadlocks": 0, "stalls": 0}
    tick, break_cycle, abort = (
        Scheduler._tick, Scheduler._break_cycle, Scheduler._abort_and_restart
    )

    def checked_tick(self, *args):
        progressed = tick(self, *args)
        assert whole_graph_cycle(self._waits) is None
        seen["ticks"] += 1
        return progressed

    def counted_cycle(self, cycle, *args):
        assert _is_cycle_through(self._waits, tuple(cycle), cycle[0])
        seen["deadlocks"] += 1
        return break_cycle(self, cycle, *args)

    def counted_abort(self, entry, tick, reason, wait_for=frozenset()):
        if reason == "deadlock" and not wait_for:
            seen["stalls"] += 1
        return abort(self, entry, tick, reason, wait_for)

    monkeypatch.setattr(Scheduler, "_tick", checked_tick)
    monkeypatch.setattr(Scheduler, "_break_cycle", counted_cycle)
    monkeypatch.setattr(Scheduler, "_abort_and_restart", counted_abort)
    return seen


@pytest.mark.parametrize(
    "configuration", standard_configurations(), ids=lambda c: c.label
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_loop_on_one_object(checked_ticks, configuration, seed):
    adt_factory, workload = comparison_case("hotspot", transactions=12, ops_per_txn=3)
    adt = adt_factory()
    obj = ManagedObject(adt, configuration.conflict_factory(adt), configuration.recovery)
    system = TransactionSystem([obj])
    metrics = Scheduler(system, workload(random.Random(seed)), seed=seed).run()
    assert metrics.committed == 12
    assert metrics.deadlocks == checked_ticks["deadlocks"]
    assert checked_ticks["stalls"] == 0  # every stall was a cycle, broken at its wait
    assert is_dynamic_atomic(system.history(), adt)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_flash_crowd_drives(checked_ticks, seed):
    scheduler = flash_crowd_scheduler(seed)
    metrics = scheduler.run()
    assert metrics.committed + metrics.ro_committed == FLASH_CROWD.transactions
    assert metrics.deadlocks == checked_ticks["deadlocks"] > 0
    assert checked_ticks["stalls"] == 0
    for obj in scheduler.system.objects.values():
        assert is_dynamic_atomic(obj.history(), obj.adt), obj.name


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize(
    "config",
    [
        TortureConfig("bank", "UIP", transactions=6, ops_per_txn=3, group_commit=4, hold=4),
        TortureConfig("escrow", "DU", transactions=6, ops_per_txn=3),
        TortureConfig("set", "UIP", transactions=6, ops_per_txn=3),
    ],
    ids=["bank-uip-gc4", "escrow-du", "set-uip"],
)
def test_crash_torture(checked_ticks, config, seed):
    rows, _events = _torture_cells(config, 8, seed)
    assert all(not violations for *_, violations in rows), rows
    assert sum(crashes for _, _, crashes, _ in rows) > 0
    assert checked_ticks["ticks"] > 0


@pytest.mark.parametrize("seed", [0, 3])
def test_site_crash_torture(checked_ticks, seed):
    config = TortureConfig("bank", "UIP", sites=2, transactions=6, group_commit=2, hold=3)
    (_schedule, committed, crashes, violations), _events = _site_cells(config, seed)
    assert not violations and crashes > 0 and committed > 0


# ---------------------------------------------------------------------------
# progress
# ---------------------------------------------------------------------------


def test_no_flash_crowd_runs_out_of_restarts():
    """Fifty seeds of the ``overload_uip`` shape: every offered script
    commits inside its restart budget, and every deadlock victim had the
    fewest restarts of its cycle."""
    for seed in range(50):
        trace = TraceCollector()
        scheduler = scheduler_in_hand(FLASH_CROWD, seed, trace)
        chosen = []
        pick = scheduler._pick_victim

        def recording_pick(cycle, live, _pick=pick, _chosen=chosen):
            by_txn = {t.txn: t.restarts for t in live}
            victim = _pick(cycle, live)
            _chosen.append(victim.restarts == min(by_txn[t] for t in cycle))
            return victim

        scheduler._pick_victim = recording_pick
        metrics = scheduler.run()
        assert metrics.committed + metrics.ro_committed == FLASH_CROWD.transactions, seed
        # a script's restarts: one per abort of one of its incarnations
        restarts = Counter(
            e["txn"].split("~")[0]
            for e in trace.events
            if e["kind"] in ("txn-abort", "ro-abort")
        )
        assert max(restarts.values()) <= scheduler.max_restarts, seed
        assert chosen and all(chosen), seed


def test_a_restart_strictly_lowers_the_claim_to_be_the_victim():
    """``restarts`` leads the aging key: whatever the other fields say, a
    transaction restarted once more than another is never chosen before
    it — so each abort moves a script up the order, and none is the
    victim of every cycle it joins."""
    rng = random.Random(0)
    script = TransactionScript("S", (("X", None),) * 3)
    for _ in range(500):
        members = [
            _LiveTxn(
                script=TransactionScript("S%d" % i, script.steps),
                txn="S%d" % i,
                step=rng.randint(0, 3),
                restarts=rng.randint(0, 4),
                born_tick=rng.randint(0, 50),
            )
            for i in range(rng.randint(2, 5))
        ]
        victim = Scheduler._victim_key_min(members)
        assert victim.restarts == min(m.restarts for m in members)
        victim.restarts = max(m.restarts for m in members) + 1
        assert Scheduler._victim_key_min(members) is not victim
