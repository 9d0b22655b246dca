"""A refused invocation sleeps until its object changes — unobservably.

The scheduler parks a lock-blocked step on its object's *epoch* and
attempts it again only when the epoch has moved.  These tests pin the
claim that the sleep changes nothing but the number of attempts: against
the oracle that attempts every parked step on every tick
(``repro.reference.reattempt_every_tick``, which also raises if an
attempt the product would have skipped is *not* the refusal it parked
on), histories, ``RunMetrics`` but for ``blocked_attempts``, latencies
and the JSONL trace modulo ``op-blocked`` / ``lock-wait`` are equal, and
the parked run's refusals are a subsequence of the oracle's — across
crash schedules with group commit held, site failures and recoveries,
the open-loop drive cases of ``test_event_scheduler``, a flash crowd
shaped like the end-to-end benchmark's ``overload_uip``, and the paper's
closed-loop comparison on one object.
"""

import random

import pytest

from repro.adts import BankAccount
from repro.core.events import inv
from repro.experiments.comparisons import comparison_case, standard_configurations
from repro.reference import ParkedRefusalOverturned, reattempt_every_tick
from repro.runtime import ManagedObject, TransactionSystem
from repro.runtime.replication import build_replicated_system, copy_name
from repro.runtime.scheduler import CHECKPOINT, Fault, Scheduler, TransactionScript
from repro.runtime.torture import TortureConfig
from repro.runtime.trace import TraceCollector, reconcile
from repro.runtime.wal import StableLog

from ..drive_harness import FLASH_CROWD, count_invokes, flash_crowd_scheduler
from .test_event_scheduler import (
    DRIVE_CASES,
    _drive_cell,
    _site_cells,
    _torture_cells,
)

REFUSALS = ("op-blocked", "lock-wait")


def _parked_and_oracle(fn):
    parked = fn()
    with reattempt_every_tick():
        oracle = fn()
    return parked, oracle


def _split(events):
    """``(everything else, the refusals)`` with the one moved counter
    taken out of ``run-end``."""
    kept, refusals = [], []
    for event in events:
        if event["kind"] in REFUSALS:
            refusals.append(event)
            continue
        if event["kind"] == "run-end":
            event = dict(event, metrics=dict(event["metrics"]))
            del event["metrics"]["blocked_attempts"]
        kept.append(event)
    return kept, refusals


def _is_subsequence(small, big):
    rest = iter(big)
    return all(any(x == y for y in rest) for x in small)


def _assert_same_but_for_attempts(parked_events, oracle_events):
    """The trace half of the claim; returns the two refusal counts."""
    kept, refusals = _split(parked_events)
    oracle_kept, oracle_refusals = _split(oracle_events)
    assert kept == oracle_kept
    assert _is_subsequence(refusals, oracle_refusals)
    return len(refusals), len(oracle_refusals)


def _without_attempts(counters):
    return {k: v for k, v in counters.items() if k != "blocked_attempts"}


class TestParkedVsReattempted:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "config",
        [
            TortureConfig("counter", "DU", group_commit=2, hold=4),
            TortureConfig(
                "bank", "UIP", transactions=4, ops_per_txn=3,
                group_commit=4, hold=4,
            ),
        ],
        ids=["counter-du-gc2", "bank-uip-gc4"],
    )
    def test_torture_crash_schedules(self, config, seed):
        (rows, events), (oracle_rows, oracle_events) = _parked_and_oracle(
            lambda: _torture_cells(config, 8, seed)
        )
        assert rows == oracle_rows
        _assert_same_but_for_attempts(events, oracle_events)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_site_crash_torture(self, seed):
        config = TortureConfig(
            "counter", "DU", sites=2, group_commit=2, hold=3
        )
        (row, events), (oracle_row, oracle_events) = _parked_and_oracle(
            lambda: _site_cells(config, seed)
        )
        assert row == oracle_row
        _assert_same_but_for_attempts(events, oracle_events)

    @pytest.mark.parametrize(
        "case", sorted(DRIVE_CASES) + ["flash_crowd"]
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_open_loop_drives(self, case, seed):
        config = DRIVE_CASES.get(case, FLASH_CROWD)
        parked, oracle = _parked_and_oracle(lambda: _drive_cell(config, seed))
        counters, latencies, events = parked
        oracle_counters, oracle_latencies, oracle_events = oracle
        assert _without_attempts(counters) == _without_attempts(oracle_counters)
        assert latencies == oracle_latencies
        refused, oracle_refused = _assert_same_but_for_attempts(
            events, oracle_events
        )
        assert counters["blocked_attempts"] <= oracle_counters["blocked_attempts"]
        if case == "flash_crowd":
            # not vacuous: most of what the oracle attempts, the product skips
            assert 0 < refused < oracle_refused // 2
        # ... and what the parked run does emit still adds up to its counters
        drive = [e for e in events if not e["kind"].startswith("drive-")]
        assert all(r.ok for r in reconcile(drive)), [
            str(r) for r in reconcile(drive) if not r.ok
        ]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_flash_crowd_histories(self, seed):
        def cell():
            scheduler = flash_crowd_scheduler(seed)
            metrics = scheduler.run()
            system = scheduler.system
            return (
                metrics.counters(),
                [repr(e) for e in system.history()],
                {
                    name: [repr(e) for e in obj.history()]
                    for name, obj in system.objects.items()
                },
            )

        parked, oracle = _parked_and_oracle(cell)
        assert _without_attempts(parked[0]) == _without_attempts(oracle[0])
        assert parked[1:] == oracle[1:]
        assert parked[0]["blocked_attempts"] < oracle[0]["blocked_attempts"] // 2

    @pytest.mark.parametrize(
        "configuration", standard_configurations(), ids=lambda c: c.label
    )
    @pytest.mark.parametrize("seed", [0, 4])
    def test_closed_loop_on_one_object(self, configuration, seed):
        """The paper's experiment: every transaction on one object, so
        nearly every tick moves the epoch and wakes everyone."""
        adt_factory, workload = comparison_case(
            "hotspot", transactions=12, ops_per_txn=3
        )

        def cell():
            adt = adt_factory()
            obj = ManagedObject(
                adt, configuration.conflict_factory(adt), configuration.recovery
            )
            system = TransactionSystem([obj])
            trace = TraceCollector()
            scheduler = Scheduler(
                system, workload(random.Random(seed)), seed=seed, trace=trace
            )
            metrics = scheduler.run()
            return (
                metrics.counters(),
                [repr(e) for e in system.history()],
                [repr(e) for e in obj.history()],
                [dict(e) for e in trace.events],
            )

        parked, oracle = _parked_and_oracle(cell)
        assert _without_attempts(parked[0]) == _without_attempts(oracle[0])
        assert parked[1:3] == oracle[1:3]
        _assert_same_but_for_attempts(parked[3], oracle[3])
        assert all(r.ok for r in reconcile(parked[3]))


#: Calendar entries that make ticks 1, 2 and 3 due; :func:`_at_tick_3`
#: replaces what the fault method does on them.
_TICKS_1_TO_3 = [Fault(CHECKPOINT, tick) for tick in (1, 2, 3)]


def _at_tick_3(action):
    """A fault method for ``_TICKS_1_TO_3`` that runs ``action`` — an
    event no calendar entry offers, told to nobody — at tick 3, and
    reports progress on every due tick, which keeps the stall-breaker
    off the sleeper."""

    def inject(tick, due):
        if tick == 3:
            action()
        return True

    return inject


class TestTheOracleIsNotVacuous:
    def test_it_attempts_what_the_product_skips(self, monkeypatch):
        calls = count_invokes(monkeypatch)
        parked = flash_crowd_scheduler(0).run()
        product_calls, calls["invoke"] = calls["invoke"], 0
        with reattempt_every_tick():
            oracle = flash_crowd_scheduler(0).run()
        assert product_calls == parked.operations + parked.blocked_attempts
        assert calls["invoke"] == oracle.operations + oracle.blocked_attempts
        assert calls["invoke"] > 2 * product_calls

    def test_it_puts_back_the_invoke_it_borrowed(self):
        """The oracle checks one attempt by standing in for
        ``system.invoke`` once; a wrapper someone else hung on the
        instance is there again afterwards and saw every call."""
        scheduler = flash_crowd_scheduler(0)
        system, seen = scheduler.system, []
        invoke = system.invoke

        def listening(*args):
            seen.append(args[:2])
            return invoke(*args)

        system.invoke = listening
        with reattempt_every_tick():
            metrics = scheduler.run()
        assert system.invoke is listening
        assert len(seen) == metrics.operations + metrics.blocked_attempts

    @pytest.mark.parametrize(
        "forgets", ["try_operation", "complete_commit", "abort"]
    )
    def test_a_mutation_that_forgets_the_epoch_is_caught(
        self, monkeypatch, forgets
    ):
        """The failure mode of the design: a path that changes an
        object's locks or view without moving its epoch.  The oracle
        sees the refusal overturned on an object that says it is
        unchanged."""
        method = getattr(ManagedObject, forgets)

        def forgetful(self, *args, **kwargs):
            epoch = self.epoch
            try:
                return method(self, *args, **kwargs)
            finally:
                self.epoch = epoch

        monkeypatch.setattr(ManagedObject, forgets, forgetful)
        with pytest.raises(ParkedRefusalOverturned):
            with reattempt_every_tick():
                flash_crowd_scheduler(0).run()

    def test_a_restart_nobody_reported_wakes_the_sleeper(self):
        """``crash_and_restart`` moves the epoch itself.  Every driver
        follows a crash with ``handle_crash`` (which unparks everyone)
        or, for ``recover_site``, with the membership counter, so only a
        restart at the object alone shows this move: the holder's locks
        are gone, and the sleeper must find out without being told."""
        account = BankAccount("BA")
        obj = ManagedObject(account, account.nrbc_conflict(), "UIP", log=StableLog())
        system = TransactionSystem([obj])
        assert system.invoke("HOLDER", "BA", inv("withdraw", 1)).ok

        scheduler = Scheduler(
            system,
            [TransactionScript("T", (("BA", inv("deposit", 1)),))],
            faults=_TICKS_1_TO_3,
            trace=TraceCollector(),
        )
        scheduler.inject = _at_tick_3(obj.crash_and_restart)
        metrics = scheduler.run()
        assert (metrics.committed, metrics.aborted) == (1, 0)
        assert metrics.blocked_attempts == 1  # tick 1; asleep on 2 and 3
        ticks = {e["kind"]: e["tick"] for e in scheduler.trace.events}
        assert (ticks["op-blocked"], ticks["op-ok"]) == (1, 4)

    def test_a_site_failure_nobody_reported_wakes_the_sleeper(self):
        """The replicated epoch covers membership, not only the copies.
        W is refused at X by a reader whose only lock is at the *peer*
        copy; the peer's site fails, the reader dies there without an
        event at any copy W can see (``crash_kill`` undoes nothing), and
        W never touched that site, so no ``handle_crash`` is owed to
        it.  Only the membership counter says the refusal has fallen."""
        system = build_replicated_system("kv", ["X"], sites=2)
        system.fail_site(0)
        system.recover_site(0)  # X is in service, X@s1 serves the reads
        assert system.invoke("HOLDER", "X", inv("get", "k1")).ok
        assert system._touched["HOLDER"] == {copy_name("X", 1)}
        assert system.invoke("Q", "X", inv("put", "k2", "u")).ok
        assert system.commit("Q") and system.is_qualified("X")

        def fail_site_1():
            copies = [system.objects[c].epoch for c in system.copies_of("X")]
            assert system.fail_site(1) == {"HOLDER"}
            assert copies == [
                system.objects[c].epoch for c in system.copies_of("X")
            ]

        scheduler = Scheduler(
            system,
            [TransactionScript("W", (("X", inv("put", "k1", "v")),))],
            faults=_TICKS_1_TO_3,
            trace=TraceCollector(),
        )
        scheduler.inject = _at_tick_3(fail_site_1)
        metrics = scheduler.run()
        assert (metrics.committed, metrics.aborted) == (1, 0)
        assert metrics.blocked_attempts == 1
        ticks = {e["kind"]: e["tick"] for e in scheduler.trace.events}
        assert (ticks["op-blocked"], ticks["op-ok"]) == (1, 4)

    def test_every_membership_change_moves_the_replicated_epoch(self):
        """One logical object, so each step below makes exactly one of
        the four membership moves."""
        system = build_replicated_system("counter", ["X"], sites=2)
        remote = copy_name("X", 1)
        seen = [system._membership_epoch]

        def moved():
            seen.append(system._membership_epoch)
            return seen[-1] > seen[-2]

        system.fail_site(1)
        assert moved()
        assert system.invoke("T", "X", inv("increment", 1)).ok
        system.recover_site(1)  # the copy restarts; admission waits for T
        assert not system.is_current(remote) and moved()
        assert system.commit("T")
        system.poll_catchup()  # quiescent now: the copy is admitted
        assert system.is_current(remote) and moved()
        assert system.invoke("U", "X", inv("increment", 1)).ok
        assert not moved()
        assert system.commit("U")  # its first committed write re-qualifies it
        assert system.is_qualified(remote) and moved()
