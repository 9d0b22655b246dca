"""Fault-injection tests: the crash-point matrix and the fault primitives.

The heart of this module is the *matrix* test: every built-in ADT, under
both recovery methods (and both UndoRedoLog restart policies where the
ADT supports logical undo), crashed at **every** stable-log interaction
index the workload reaches, with the three recovery invariants audited
after every restart.  The remaining tests pin down the fault plumbing
itself: plan determinism, torn-force prefix semantics, IO-error
retry/backoff accounting, record fates, and the negative control.
"""

from __future__ import annotations

import random
import types

import pytest

from repro.adts.registry import ADT_REGISTRY, make_adt
from repro.core.events import commit, inv, invoke, respond
from repro.core.history import History
from repro.runtime import torture
from repro.runtime.faults import (
    CrashPoint,
    FaultEvent,
    FaultPlan,
    FaultyStableLog,
    RetryPolicy,
    enumerate_crash_plans,
)
from repro.runtime.metrics import FaultCounters
from repro.runtime.torture import (
    TortureConfig,
    audit_recovery,
    configs_for,
    profile_horizon,
    run_schedule,
    workload_on,
)
from repro.runtime.wal import CommitRecord, OperationRecord, StableLog, UndoRedoLog

SMALL = dict(transactions=3, ops_per_txn=2)


def small_configs():
    return configs_for(sorted(ADT_REGISTRY), **SMALL)


def config_id(config: TortureConfig) -> str:
    return config.label()


# ---------------------------------------------------------------------------
# the crash-point matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", small_configs(), ids=config_id)
def test_crash_at_every_append_index(config):
    """Crashing at every log interaction never violates an invariant."""
    horizon = profile_horizon(config)
    for plan in enumerate_crash_plans(horizon):
        result = run_schedule(config, plan, seed=0)
        assert not result.violations, "\n".join(
            v.format() for v in result.violations
        )
        assert result.crashes >= 1  # the injected crash plus the final audit


@pytest.mark.parametrize(
    "config",
    configs_for(["bank", "fifo"], **SMALL),
    ids=config_id,
)
def test_torn_force_prefixes(config):
    """Torn forces (every surviving-prefix length) never violate."""
    horizon = profile_horizon(config)
    for at in range(horizon):
        for keep in (0, 1, 2):
            plan = FaultPlan.crash_at(at, "crash-during-force", keep=keep)
            result = run_schedule(config, plan, seed=0)
            assert not result.violations, "\n".join(
                v.format() for v in result.violations
            )


@pytest.mark.parametrize(
    "config",
    configs_for(["counter", "escrow"], checkpoint_every=5, **SMALL),
    ids=config_id,
)
def test_crashes_with_checkpoints(config):
    """Crash placement stays sound when checkpoints truncate the log."""
    horizon = profile_horizon(config)
    kinds = (
        "crash-before-append",
        "crash-after-append",
        "crash-before-truncate",
    )
    for plan in enumerate_crash_plans(horizon, kinds):
        result = run_schedule(config, plan, seed=0)
        assert not result.violations, "\n".join(
            v.format() for v in result.violations
        )


# ---------------------------------------------------------------------------
# differential: both UndoRedoLog restart policies agree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind",
    sorted(k for k in ADT_REGISTRY if make_adt(k).supports_logical_undo),
)
def test_restart_policies_agree_at_every_crash_point(kind):
    """replay-winners and redo-undo reconstruct identical states.

    Drives the workload fault-free once to capture the full log record
    sequence, then — for every prefix of it (every prefix is a reachable
    durable log: torn forces persist arbitrary prefixes of the buffered
    tail) — restarts both policies from the same records and compares
    the restored macro-states.
    """
    config = TortureConfig(kind, "UIP", **SMALL)
    system = config.build_system(restart_policy=config.restart_policy)
    config.scheduler(system, workload_on(config, system, 0), seed=0).run()
    (obj,) = system.objects.values()
    records = obj.wal.log.records()
    assert records, "workload produced no log traffic"
    for cut in range(len(records) + 1):
        prefix = list(records[:cut])
        states = {}
        for policy in ("replay-winners", "redo-undo"):
            log = StableLog()
            log._records = list(prefix)
            log._next_lsn = (prefix[-1].lsn + 1) if prefix else 0
            states[policy] = UndoRedoLog(
                make_adt(kind), restart_policy=policy, log=log
            ).restart()
        assert states["replay-winners"] == states["redo-undo"], (
            "policies diverge at prefix %d/%d" % (cut, len(records))
        )


# ---------------------------------------------------------------------------
# fault primitives
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rejects_duplicate_indexes(self):
        with pytest.raises(ValueError):
            FaultPlan([FaultEvent(3), FaultEvent(3, "crash-before-append")])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultEvent(0, "power-surge")

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            FaultEvent(-1)

    def test_fires_once(self):
        plan = FaultPlan.crash_at(1)
        assert plan.draw("append") is None
        assert plan.draw("append") is not None
        assert plan.draw("append") is None  # already fired; clock moved on
        assert len(plan.fired) == 1

    def test_sample_is_deterministic(self):
        a = FaultPlan.sample(random.Random(9), 40, max_faults=3)
        b = FaultPlan.sample(random.Random(9), 40, max_faults=3)
        assert a.events == b.events
        assert a.seed == b.seed

    def test_enumerate_covers_horizon(self):
        plans = enumerate_crash_plans(5)
        assert len(plans) == 10  # 5 indexes x 2 kinds
        ats = {p.events[0].at for p in plans}
        assert ats == set(range(5))


class TestFaultyStableLog:
    @staticmethod
    def _rec(txn="T"):
        return lambda lsn: CommitRecord(lsn, txn=txn)

    def test_append_is_volatile_until_force(self):
        log = FaultyStableLog(FaultPlan())
        log.append(self._rec())
        assert log.durable_tail_length() == 0
        assert log.crash() == 1
        assert log.records() == ()

    def test_force_makes_durable(self):
        log = FaultyStableLog(FaultPlan())
        log.append(self._rec())
        log.force()
        assert log.durable_tail_length() == 1
        assert log.crash() == 0
        assert len(log.records()) == 1

    def test_crash_before_append_loses_record(self):
        log = FaultyStableLog(FaultPlan.crash_at(0, "crash-before-append"))
        with pytest.raises(CrashPoint):
            log.append(self._rec())
        assert len(log.records()) == 0

    def test_crash_after_append_keeps_volatile_record(self):
        log = FaultyStableLog(FaultPlan.crash_at(0, "crash-after-append"))
        with pytest.raises(CrashPoint):
            log.append(self._rec())
        assert len(log.records()) == 1
        log.crash()
        assert len(log.records()) == 0  # it was in the volatile tail

    def test_torn_force_keeps_prefix(self):
        plan = FaultPlan.crash_at(3, "crash-during-force", keep=2)
        log = FaultyStableLog(plan)
        for i in range(3):
            log.append(self._rec("T%d" % i))
        with pytest.raises(CrashPoint):
            log.force()
        log.crash()
        survivors = [r.txn for r in log.records()]
        assert survivors == ["T0", "T1"]  # a strict prefix, never a subset
        assert log.counters.torn_forces == 1

    def test_io_error_burst_absorbed_with_backoff(self):
        plan = FaultPlan(
            [FaultEvent(0, "io-error", burst=2)],
            retry=RetryPolicy(max_retries=3, backoff_base=1),
        )
        counters = FaultCounters()
        log = FaultyStableLog(plan, counters=counters)
        log.append(self._rec())  # burst absorbed; append succeeds
        assert counters.io_errors == 2
        assert counters.io_retries == 2
        assert counters.backoff_ticks == 1 + 2  # exponential: 1, then 2
        assert counters.crashes == 0

    def test_io_error_burst_exhausting_retries_escalates(self):
        plan = FaultPlan(
            [FaultEvent(0, "io-error", burst=5)],
            retry=RetryPolicy(max_retries=2),
        )
        log = FaultyStableLog(plan)
        with pytest.raises(CrashPoint) as exc:
            log.append(self._rec())
        assert exc.value.kind == "io-error-exhausted"

    def test_archive_tracks_fates_across_truncation(self):
        log = FaultyStableLog(FaultPlan())
        log.append(lambda lsn: OperationRecord(lsn, txn="T"))
        log.append(self._rec("T"))
        log.force()
        log.append(self._rec("U"))  # left volatile
        log.crash()
        fates = {r.txn: fate for r, fate in log.archive()}
        assert fates == {"T": "durable", "U": "lost"}

    def test_recovery_append_is_durable_and_not_injectable(self):
        log = FaultyStableLog(FaultPlan.crash_at(0))
        log.recovery_append(self._rec())  # plan index 0 must not fire
        assert log.durable_tail_length() == 1
        assert not log.plan.fired

    def test_skip_commit_force_never_flushes(self):
        log = FaultyStableLog(FaultPlan(), skip_commit_force=True)
        log.append(self._rec())
        log.force()
        assert log.forces == 1  # acknowledged...
        assert log.durable_tail_length() == 0  # ...but nothing durable
        assert log.crash() == 1


# ---------------------------------------------------------------------------
# the negative control
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("recovery", ["DU", "UIP"])
def test_negative_control_is_detected(recovery):
    """A planted skip-commit-force bug must be flagged by the audit."""
    config = TortureConfig(
        "bank", recovery, bug="skip-commit-force", **SMALL
    )
    flagged = []
    for plan in enumerate_crash_plans(profile_horizon(config))[:10]:
        flagged.extend(run_schedule(config, plan, seed=0).violations)
    assert flagged, "the audit failed to detect the planted bug"
    kinds = {v.invariant for v in flagged}
    assert "lost-commit" in kinds or "restart-state" in kinds


# ---------------------------------------------------------------------------
# an audit checks the invariant or raises; it never passes unchecked
# ---------------------------------------------------------------------------


def test_twelve_commuting_transactions_are_audited(monkeypatch):
    """Twelve concurrent counter transactions have 12! serialization
    orders.  The enumerating checker gave up on them and the audit
    swallowed the error, so this schedule used to pass with its
    dynamic-atomicity invariant never evaluated."""
    verdicts = []
    check = torture.is_dynamic_atomic

    def recording(history, specs):
        verdicts.append("raised")
        verdicts[-1] = check(history, specs)
        return verdicts[-1]

    monkeypatch.setattr(torture, "is_dynamic_atomic", recording)
    config = TortureConfig("counter", transactions=12)
    result = run_schedule(config, FaultPlan(seed=0), seed=0)
    assert result.committed == 12 and not result.violations
    assert verdicts and all(v is True for v in verdicts), verdicts


def test_audit_reports_a_violation_twelve_transactions_deep():
    """Eleven concurrent ``deposit(1)`` and a concurrent ``withdraw(4)``
    that answered ``ok``: not dynamic atomic (T11 among the first four
    fails), but the first failing linear extension is the 322 561st, past
    the enumerator's old 100 000-order budget."""
    ba = make_adt("bank")
    txns = ["T%02d" % i for i in range(12)]
    events = []
    for txn in txns[:11]:
        events.append(invoke(inv("deposit", 1), ba.name, txn))
        events.append(respond("ok", ba.name, txn))
    events.append(invoke(inv("withdraw", 4), ba.name, "T11"))
    events.append(respond("ok", ba.name, "T11"))
    events.extend(commit(ba.name, txn) for txn in txns)
    planted = History(events)
    system = types.SimpleNamespace(
        objects={ba.name: types.SimpleNamespace(adt=ba)},
        history=lambda: planted,
    )
    violations = audit_recovery(system, "planted", "none", names=())
    assert [v.invariant for v in violations] == ["dynamic-atomicity"]
