"""One history per system: every object appends to the system's event
list ``H``, and an object's history is its projection ``H|X``.

The load-bearing properties: ``system.history()`` is in true execution
order even where a failure resolves several objects in one step; each
object's history is exactly ``H|X`` after crashes, shard crashes and
site failure / recovery with catch-up; an object handed to a new
system brings only its own events; and a standalone automaton keeps a
list of its own.
"""

from repro.adts import BankAccount
from repro.core.events import abort, inv
from repro.core.object_automaton import ObjectAutomaton
from repro.core.views import UIP
from repro.runtime.replication import build_replicated_system
from repro.runtime.sharding import build_sharded_system, shard_of
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.wal import StableLog


def _assert_one_list(system):
    """Each object's history is ``H|X`` of the system's one list, and the
    projections partition it."""
    history = system.history()
    total = 0
    for name, obj in system.objects.items():
        assert obj.automaton.builder.events is system._events, name
        assert obj.history() == history.project_objects(name), name
        total += len(obj.history())
    assert total == len(history)


def _deposit_everywhere(system, txn, names, amount=1):
    for name in names:
        assert system.invoke(txn, name, inv("deposit", amount)).ok


def _commit(system, txn):
    """Commit ``txn``, letting held group-commit batches fall due."""
    while not system.commit(txn):
        assert system.status(txn) == "active"
        system.tick()


def test_a_shard_crash_records_each_transactions_aborts_together():
    """Resolution kills T1 at A and D, then T2 at A and D; the history
    shows the aborts in that order, not grouped by object."""
    system = build_sharded_system(
        "bank", ["A", "D"], shards=2, group_commit=8, hold=50
    )
    for txn in ("T1", "T2"):
        _deposit_everywhere(system, txn, ["A", "D"])
        assert system.commit(txn) is False  # the prepare batch is held
        assert system.status(txn) == "active"
    victims = system.crash_shard(shard_of("A", 2))
    assert victims == {"T1", "T2"}
    assert list(system.history())[-4:] == [
        abort("A", "T1"),
        abort("D", "T1"),
        abort("A", "T2"),
        abort("D", "T2"),
    ]
    _assert_one_list(system)


def test_a_flat_crash_keeps_one_list():
    objects = []
    for name in ("P", "Q"):
        ba = BankAccount(name, opening=10)
        objects.append(ManagedObject(ba, ba.nrbc_conflict(), "UIP", log=StableLog()))
    system = TransactionSystem(objects)
    _deposit_everywhere(system, "T1", ["P", "Q"])
    assert system.commit("T1")
    _deposit_everywhere(system, "T2", ["Q", "P"])
    assert system.crash() == {"T2"}
    _deposit_everywhere(system, "T3", ["P"])
    assert system.commit("T3")
    _assert_one_list(system)


def test_a_shard_crash_keeps_one_list():
    system = build_sharded_system("bank", ["A", "D"], shards=2, group_commit=2, hold=4)
    _deposit_everywhere(system, "T1", ["A", "D"])
    _commit(system, "T1")
    _deposit_everywhere(system, "T2", ["D"])
    _deposit_everywhere(system, "T3", ["A", "D"])
    system.crash_shard(shard_of("A", 2))
    assert system.status("T2") == "active"
    assert system.commit("T2") is False
    _assert_one_list(system)


def test_site_failure_and_catch_up_keep_one_list():
    system = build_replicated_system(
        "counter", ["X", "Y"], sites=3, group_commit=2, hold=4
    )

    def write(txn, *names):
        for name in names:
            assert system.invoke(txn, name, inv("increment", 1)).ok

    write("T1", "X", "Y")
    _commit(system, "T1")
    write("T2", "X")
    assert system.fail_site(1) == {"T2"}
    write("T3", "X", "Y")
    _commit(system, "T3")
    system.recover_site(1)
    assert all(system.is_current(c) for c in ("X@s1", "Y@s1"))
    assert any(e.txn.startswith("sync.") for e in system.history())
    write("T4", "X")
    _commit(system, "T4")
    _assert_one_list(system)


def test_an_object_handed_over_brings_only_its_own_events():
    p, q = BankAccount("P"), BankAccount("Q")
    first = TransactionSystem([
        ManagedObject(p, p.nrbc_conflict(), "UIP"),
        ManagedObject(q, q.nrbc_conflict(), "UIP"),
    ])
    _deposit_everywhere(first, "T1", ["P", "Q"])
    assert first.commit("T1")
    handed = first.objects["Q"]
    own = first.history().project_objects("Q")
    second = TransactionSystem([handed])
    assert second.history() == own == handed.history()
    _deposit_everywhere(second, "T2", ["Q"])
    assert second.commit("T2")
    assert len(second.history()) == len(own) + 3
    assert not first.history().project_transactions("T2")
    _assert_one_list(second)


def test_a_snapshot_shows_no_other_objects_events():
    """The cached ``H|X`` of an object stands while other objects append,
    and moves when the object itself does."""
    p, q = BankAccount("P"), BankAccount("Q")
    system = TransactionSystem([
        ManagedObject(p, p.nrbc_conflict(), "UIP"),
        ManagedObject(q, q.nrbc_conflict(), "UIP"),
    ])
    _deposit_everywhere(system, "T1", ["P"])
    before = system.objects["P"].history()
    _deposit_everywhere(system, "T1", ["Q"])
    assert system.objects["P"].history() == before
    assert {e.obj for e in system.objects["P"].history()} == {"P"}
    assert system.commit("T1")
    assert len(system.objects["P"].history()) == len(before) + 1


def test_a_standalone_automaton_keeps_its_own_list_and_clones_apart():
    ba = BankAccount("BA")
    automaton = ObjectAutomaton(ba, UIP, ba.nrbc_conflict())
    automaton.invoke("A", inv("deposit", 5))
    assert automaton.try_respond("A") is not None
    assert list(automaton.history) == automaton.builder.events
    obj = ManagedObject(ba, ba.nrbc_conflict(), "UIP")
    assert obj.try_operation("A", inv("deposit", 5)).ok
    system = TransactionSystem([obj])
    twin = obj.automaton.clone()
    assert twin.builder.events is not system._events
    twin.commit("A")
    assert len(twin.history) == 3
    assert len(obj.history()) == len(system.history()) == 2
