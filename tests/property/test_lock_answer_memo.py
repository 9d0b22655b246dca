"""Property suite: the lock index a manager keeps ≡ the holds it indexes.

``LockManager`` files every hold of a table relation under its slot,
``(class index, key)``, as it is acquired, and takes it out at
``release_all``; ``blockers`` reads only that index and remembers no
answer.  Over random ``acquire`` / ``release_all`` / ``blockers`` /
``copy()`` sequences, for every registered ADT and every kind of
relation the manager can be handed — tables (NFC, NRBC, their symmetric
closure and union, keyed for KV and set) and relations with no table
(``WithoutPairs``, a predicate, a pair set, and every relation of the
priority queue: the per-pair loop) — the manager that has been kept up
all along must agree with a manager built this instant from the same
holds, and with one built over the set-lookup reading of the same matrix
(``repro.reference.matrix_conflict``).  An index lives and dies with its
manager: a ``copy()`` shares none, and a crash restart starts empty.

The ground alphabet the slots key on — ``Invocation``, ``Operation`` —
caches its hash; the second half pins that this changed nothing a value
shows, and that the cached hash does not travel between processes.
"""

import dataclasses
import pickle
import random
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.adts import BankAccount
from repro.adts.registry import analysis_instance, registered_kinds
from repro.core.conflict import (
    PairSetConflict,
    PredicateConflict,
    WithoutPairs,
    maybe_compile,
    symmetric_closure,
    union,
)
from repro.core.events import Invocation, Operation, inv, op
from repro.core.lock_manager import LockManager
from repro.reference import matrix_conflict, opaque_conflict
from repro.runtime.system import ManagedObject
from repro.runtime.wal import StableLog

KINDS = registered_kinds()
RELATIONS = ("nfc", "nrbc", "sym", "union", "without", "predicate", "pairs")


def _same_invocation(new, old):
    return new.invocation == old.invocation


def twins(adt, relation):
    """``(relation, the same relation over the set-lookup matrices)``."""
    alphabet = adt.ground_alphabet()

    def build(nfc, nrbc):
        if relation == "nfc":
            return nfc
        if relation == "nrbc":
            return nrbc
        if relation == "sym":
            return symmetric_closure(nrbc)
        if relation == "union":
            return union(nfc, nrbc)
        if relation == "without":
            return WithoutPairs(nrbc, sorted(nrbc.pairs(alphabet), key=repr)[::3])
        if relation == "predicate":
            return PredicateConflict(
                lambda new, old: nfc.conflicts(new, old) or _same_invocation(new, old)
            )
        return PairSetConflict(nrbc.pairs(alphabet), alphabet=alphabet)

    nfc, nrbc = adt.nfc_conflict(), adt.nrbc_conflict()
    leaf = matrix_conflict if maybe_compile(nfc) else opaque_conflict
    return build(nfc, nrbc), build(leaf(nfc), leaf(nrbc))


def rebuilt(relation, holds):
    manager = LockManager(relation)
    for txn, operations in holds.items():
        for operation in operations:
            manager.acquire(txn, operation)
    return manager


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_remembered_answer_is_the_answer(kind, relation):
    adt = analysis_instance(kind)
    fast, slow = twins(adt, relation)
    assert (LockManager(fast).table is not None) == (
        relation in ("nfc", "nrbc", "sym", "union") and kind != "pqueue"
    )
    assert LockManager(slow).table is None
    alphabet = adt.ground_alphabet()
    txns = ["T%d" % i for i in range(4)]
    for seed in range(6):
        rng = random.Random(seed)
        # each entry: a manager that lives through the whole sequence,
        # and the holds it should have (a copy takes a copy of both)
        managers = [(LockManager(fast), {})]
        for _ in range(80):
            manager, holds = rng.choice(managers)
            draw = rng.random()
            if draw < 0.25:
                txn, held = rng.choice(txns), rng.choice(alphabet)
                manager.acquire(txn, held)
                holds.setdefault(txn, []).append(held)
            elif draw < 0.35:
                txn = rng.choice(txns)
                assert manager.release_all(txn) == tuple(holds.pop(txn, ()))
            elif draw < 0.42 and len(managers) < 4:
                managers.append(
                    (manager.copy(), {t: list(ops) for t, ops in holds.items()})
                )
            else:
                txn, new = rng.choice(txns + ["T9"]), rng.choice(alphabet)
                answer = manager.blockers(txn, new)
                assert answer == rebuilt(fast, holds).blockers(txn, new), (
                    kind, relation, seed, txn, new,
                )
                assert answer == rebuilt(slow, holds).blockers(txn, new)
                assert txn not in answer and answer <= set(holds)
        for manager, holds in managers:
            assert manager._index == rebuilt(fast, holds)._index


def test_a_copy_starts_with_no_answers_and_shares_none():
    ba = BankAccount("BA")
    withdraw, deposit = ba.operation(inv("withdraw", 1), "ok"), ba.operation(
        inv("deposit", 1), "ok"
    )
    manager = LockManager(ba.nrbc_conflict())
    manager.acquire("A", deposit)
    assert manager.blockers("B", withdraw) == {"A"}
    twin = manager.copy()
    assert twin._index == manager._index
    assert not any(
        twin._index[slot] is holders for slot, holders in manager._index.items()
    )
    twin.release_all("A")
    assert twin.blockers("B", withdraw) == set()
    assert manager.blockers("B", withdraw) == {"A"}  # the original still holds
    manager.release_all("A")
    twin.acquire("C", deposit)
    assert manager.blockers("B", withdraw) == set()
    assert twin.blockers("B", withdraw) == {"C"}


def test_no_answer_survives_a_crash_restart():
    ba = BankAccount("BA")
    obj = ManagedObject(ba, ba.nrbc_conflict(), "UIP", log=StableLog())
    assert obj.try_operation("HOLDER", inv("deposit", 1)).ok
    refused = obj.try_operation("WAITER", inv("withdraw", 1))
    assert (refused.status, refused.blockers) == ("blocked", {"HOLDER"})
    before = obj.locks
    assert before._index
    obj.crash_kill("HOLDER")
    obj.crash_kill("WAITER")
    obj.crash_and_restart()
    assert obj.locks is not before and obj.locks._index == {}
    assert obj.try_operation("LATER", inv("withdraw", 1)).status == "ok"


# ---------------------------------------------------------------------------
# the ground alphabet caches its hash, and shows it nowhere
# ---------------------------------------------------------------------------


def test_the_cached_hash_changes_nothing_a_value_shows():
    invocation = Invocation("withdraw", (3, [1, 2]))
    operation = Operation("BA", invocation, {"k": [1]})
    assert [f.name for f in dataclasses.fields(Invocation)] == ["name", "args"]
    assert [f.name for f in dataclasses.fields(Operation)] == [
        "obj", "invocation", "response",
    ]
    assert repr(invocation) == "Invocation(name='withdraw', args=(3, (1, 2)))"
    assert repr(operation) == (
        "Operation(obj='BA', invocation=%r, response=(('k', (1,)),))" % invocation
    )
    assert str(operation) == "BA:[withdraw(3, (1, 2)),(('k', (1,)),)]"
    assert dataclasses.astuple(invocation) == ("withdraw", (3, (1, 2)))
    # the value the generated __hash__ computed: sets iterate as before
    assert hash(invocation) == hash(("withdraw", (3, (1, 2))))
    assert hash(operation) == hash(("BA", invocation, (("k", (1,)),)))
    same = Operation("BA", Invocation("withdraw", (3, (1, 2))), {"k": [1]})
    assert same == operation and same is not operation
    assert hash(same) == hash(operation) and len({same, operation}) == 1
    assert operation != operation.at("Y") and operation.at("Y").obj == "Y"
    assert dataclasses.replace(operation, response="no") == Operation(
        "BA", invocation, "no"
    )
    assert inv("a") < inv("b") and inv("a", 1) < inv("a", 2)
    assert sorted([op("X", "b"), op("X", "a"), op("W", "z")]) == [
        op("W", "z"), op("X", "a"), op("X", "b"),
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        operation.obj = "Y"
    with pytest.raises(TypeError):
        Operation("BA", invocation, object.__new__(type("U", (), {"__hash__": None})))


def test_a_pickled_operation_is_found_in_another_process():
    """String hashing is per process (``ParallelRunner`` can fall back to
    spawn): the hash is rebuilt on unpickle, not carried."""
    operation = op("BA", "withdraw", "three", response="no")
    assert pickle.loads(pickle.dumps(operation)) == operation
    child = textwrap.dedent(
        """
        import pickle, sys
        from repro.core.events import op
        built = op("BA", "withdraw", "three", response="no")
        table = {built: "found", built.invocation: "found-too"}
        loaded = pickle.loads(bytes.fromhex(sys.argv[1]))
        assert loaded == built and hash(loaded) == hash(built)
        assert hash(loaded) == hash((loaded.obj, loaded.invocation, loaded.response))
        print(table[loaded], table[loaded.invocation], hash(loaded))
        """
    )
    src = str(__import__("pathlib").Path(repro.__file__).parents[1])
    hashes = set()
    for hash_seed in ("11", "12"):
        result = subprocess.run(
            [sys.executable, "-c", child, pickle.dumps(operation).hex()],
            env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        found, found_too, child_hash = result.stdout.split()
        assert (found, found_too) == ("found", "found-too"), result.stdout
        hashes.add(child_hash)
    assert len(hashes) == 2  # the two children did hash strings differently
