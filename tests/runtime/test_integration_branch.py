"""A larger integration scenario: a bank branch.

Several accounts plus a shared audit set, mixed single- and
multi-object transactions (transfers, audits), both recovery methods in
one system, crashes injected — every global history audited with the
fast dynamic-atomicity checker.
"""

import dataclasses
import random

import pytest

from repro.adts import BankAccount, SetADT
from repro.core.events import inv
from repro.core.atomicity import is_atomic, is_dynamic_atomic
from repro.runtime import (
    ManagedObject,
    StableLog,
    TransactionSystem,
    run_scripts,
)
from repro.runtime.scheduler import CRASH, Fault, Scheduler, TransactionScript

ACCOUNTS = ("ACC1", "ACC2", "ACC3")


def branch_specs():
    specs = {name: BankAccount(name, opening=20) for name in ACCOUNTS}
    specs["AUDITLOG"] = SetADT("AUDITLOG", domain=("t1", "t2", "t3", "t4"))
    return specs


def branch_system(durable: bool = False):
    objects = []
    for name in ACCOUNTS:
        ba = BankAccount(name, opening=20)
        log = StableLog() if durable else None
        objects.append(ManagedObject(ba, ba.nrbc_conflict(), "UIP", log=log))
    audit = SetADT("AUDITLOG", domain=("t1", "t2", "t3", "t4"))
    log = StableLog() if durable else None
    objects.append(ManagedObject(audit, audit.nfc_conflict(), "DU", log=log))
    return TransactionSystem(objects) if durable else TransactionSystem(objects)


def branch_scripts(rng: random.Random, n: int = 10):
    scripts = []
    for i in range(n):
        kind = rng.random()
        if kind < 0.5:  # transfer between two accounts + audit mark
            src, dst = rng.sample(ACCOUNTS, 2)
            amount = rng.choice([1, 2, 3])
            steps = [
                (src, inv("withdraw", amount)),
                (dst, inv("deposit", amount)),
                ("AUDITLOG", inv("insert", rng.choice(["t1", "t2", "t3", "t4"]))),
            ]
        elif kind < 0.8:  # deposit at one account
            steps = [(rng.choice(ACCOUNTS), inv("deposit", rng.choice([1, 2])))]
        else:  # audit: membership probes plus a balance read
            steps = [
                ("AUDITLOG", inv("member", rng.choice(["t1", "t2"]))),
                (rng.choice(ACCOUNTS), inv("balance")),
            ]
        scripts.append(TransactionScript("T%d" % i, tuple(steps)))
    return scripts


@pytest.mark.parametrize("seed", range(5))
def test_branch_runs_are_dynamic_atomic(seed):
    system = branch_system()
    scripts = branch_scripts(random.Random(seed))
    metrics = run_scripts(system, scripts, seed=seed)
    assert metrics.committed >= 5
    h = system.history()
    specs = branch_specs()
    assert is_dynamic_atomic(h, specs)
    assert is_atomic(h, specs)


@pytest.mark.parametrize("seed", range(3))
def test_branch_projections_locally_dynamic_atomic(seed):
    system = branch_system()
    run_scripts(system, branch_scripts(random.Random(seed)), seed=seed)
    h = system.history()
    specs = branch_specs()
    for obj in h.objects():
        assert is_dynamic_atomic(h.project_objects(obj), specs[obj])


@pytest.mark.parametrize("seed", range(5))
def test_a_log_adds_records_not_behaviour(seed):
    """The same scripts over the volatile and the log-backed branch give
    the same history and the same metrics, less the force accounting
    only a log has."""
    runs = []
    for durable in (False, True):
        system = branch_system(durable)
        metrics = run_scripts(system, branch_scripts(random.Random(seed), n=20), seed=seed)
        runs.append((system.history().events, dataclasses.asdict(metrics)))
    (volatile_events, volatile), (logged_events, logged) = runs
    assert logged_events == volatile_events
    for field in ("forces", "force_requests", "forced_records"):
        del volatile[field], logged[field]
    assert logged == volatile


@pytest.mark.parametrize("seed", range(3))
def test_branch_with_crashes(seed):
    system = branch_system(durable=True)
    scripts = branch_scripts(random.Random(seed), n=8)
    metrics = Scheduler(
        system, scripts, seed=seed, max_restarts=50,
        faults=[Fault(CRASH, every=7)],
    ).run()
    assert system.crash_count >= 1
    assert metrics.committed >= 1
    assert is_dynamic_atomic(system.history(), branch_specs())


def test_transfers_conserve_money():
    """Committed transfers move value; the branch total is conserved
    (modulo committed pure deposits, which we track)."""
    system = branch_system()
    rng = random.Random(11)
    scripts = branch_scripts(rng, n=12)
    run_scripts(system, scripts, seed=11)
    h = system.history()
    perm = h.permanent()
    deposited = withdrawn = 0
    for operation in perm.opseq():
        if operation.obj in ACCOUNTS:
            if operation.name == "deposit":
                deposited += operation.args[0]
            elif operation.name == "withdraw" and operation.response == "ok":
                withdrawn += operation.args[0]
    # Final balances must equal openings + deposits - successful withdrawals.
    total = 0
    for name in ACCOUNTS:
        spec = BankAccount(name, opening=20)
        states = spec.states_after(perm.project_objects(name).opseq())
        assert len(states) == 1
        total += next(iter(states))
    assert total == 3 * 20 + deposited - withdrawn
