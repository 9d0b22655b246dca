"""One production path per job: no mode selector survives anywhere.

Each fast path (a relation's bitmask table, delta view cursors, jumped
dead ticks) is chosen from the input the code is handed, and the pruned
order search is the only atomicity checker; the slow twins are reached
only through ``repro.reference``, by tests and twin benches.
These checks keep a selector — an environment variable, a constructor
flag, an import of the oracle module — from coming back, and keep the
failure-domain machinery (in-doubt resolution, the durable-object
builder, the recovery/conflict pairing) and the two halves of an object
(the lock table, the recovery managers) at one copy each — and every
change to either half moving the epoch that refused invocations sleep on.
"""

import ast
import importlib.util
import inspect
import pathlib
import random
import re
import subprocess
import sys
import textwrap
import types

import repro
from repro.adts import BankAccount
from repro.core.events import inv
from repro.core.object_automaton import ObjectAutomaton
from repro.core.views import DU, SUIP, UIP
from repro.reference import opaque_view
from repro.runtime import ManagedObject, TransactionSystem
from repro.runtime.durability import build_durable_object
from repro.runtime.lock_manager import LockManager
from repro.runtime.recovery import make_recovery_manager
from repro.runtime.replication import build_replicated_system
from repro.runtime.scheduler import CHECKPOINT, Fault, Scheduler, TransactionScript
from repro.runtime.sharding import build_sharded_system
from repro.runtime.trace import TraceCollector
from repro.runtime.wal import RedoOnlyLog, StableLog, UndoRedoLog

PACKAGE = pathlib.Path(repro.__file__).parent
SRC = PACKAGE.parent

RETIRED_PARAMETERS = {
    "event_driven",
    "compiled",
    "compiled_conflicts",
    "incremental",
    "check_cursors",
    "check",
    "pairwise",
    "vectorized",
    "on_unknown",
    "max_orders",
    "check_atomicity",
    # the protocol is chosen by which object class is constructed
    "protocol",
    "enforce",
    "optimistic",
    # a table is classes and a key; anything finer is a predicate
    "refine",
}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _walk_in_functions(tree):
    """``ast.walk`` with, for each node, the name of the innermost
    function around it (None at module or class level)."""
    stack = [(tree, None)]
    while stack:
        node, fn = stack.pop()
        yield node, fn
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        stack.extend((child, fn) for child in ast.iter_child_nodes(node))


def _imports():
    """``(path, lineno, names, fn)`` per import statement anywhere in a
    module, with relative imports resolved: the module named and each
    ``module.attribute`` it pulls; ``fn`` names the function whose body
    holds a call-time import (None for a module-level one)."""
    for path, tree in _modules():
        package = path.relative_to(SRC).parts[:-1]
        for node, fn in _walk_in_functions(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = list(package[: len(package) - node.level + 1]) if node.level else []
                base = ".".join(base + ([node.module] if node.module else []))
                names = [base] + ["%s.%s" % (base, a.name) for a in node.names]
            else:
                continue
            yield path, node.lineno, names, fn


def _functions():
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, node


def test_no_module_reads_the_environment():
    offenders = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in ("environ", "getenv") for a in node.names))
    ]
    assert not offenders, offenders


def test_only_tests_and_benches_import_the_oracles():
    offenders = [
        "%s:%d" % (path.relative_to(SRC), lineno)
        for path, lineno, names, _fn in _imports()
        if path != PACKAGE / "reference.py"
        and any((n + ".").startswith("repro.reference.") for n in names)
    ]
    assert not offenders, offenders


def test_no_constructor_takes_a_retired_selector():
    for fn in (
        Scheduler,
        LockManager,
        ManagedObject,
        build_durable_object,
        ObjectAutomaton,
        ObjectAutomaton.accepts,
        ObjectAutomaton.explain_rejection,
        build_sharded_system,
        build_replicated_system,
    ):
        retired = RETIRED_PARAMETERS & set(inspect.signature(fn).parameters)
        assert not retired, (fn.__qualname__, retired)


def test_no_function_takes_a_retired_parameter():
    """Every ``def`` under ``src/repro`` outside the oracle module: the
    enumerator's ``max_orders`` budget and the audits' ``check_atomicity``
    opt-out went with the enumerator."""
    offenders = []
    for path, fn in _functions():
        if path == PACKAGE / "reference.py":
            continue
        args = fn.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if names & RETIRED_PARAMETERS:
            offenders.append(
                "%s:%s(%s)"
                % (path.relative_to(SRC), fn.name, sorted(names & RETIRED_PARAMETERS))
            )
    assert not offenders, offenders


def test_one_order_search():
    """``core.atomicity`` is the pruned search; no ``fast_*`` twin beside
    it, and the enumerator's exception type is an oracle-only name."""
    import repro.core

    assert not [n for n in repro.core.__all__ if n.startswith("fast_")]
    assert not [n for n in vars(repro.core) if n.startswith("fast_")]
    assert not (PACKAGE / "core" / "fast_atomicity.py").exists()
    mentions = [
        str(path.relative_to(SRC))
        for path in sorted(PACKAGE.rglob("*.py"))
        if "TooManyOrdersError" in path.read_text()
    ]
    assert mentions == ["repro/reference.py"]


def test_a_drive_never_imports_numpy():
    code = textwrap.dedent(
        """
        import sys
        import repro.analysis
        import repro.runtime
        from repro.runtime.openloop import OpenLoopConfig, drive

        report = drive(
            OpenLoopConfig(adt_kind="counter", objects=4, transactions=12,
                           arrival_rate=1.0),
            seed=0,
        )
        assert report.metrics.committed == 12, report.metrics.committed
        assert "numpy" not in sys.modules, "numpy was imported"
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_serial_runs_never_import_the_process_pool():
    """``import repro.runtime``, a single run and a ``workers=1`` campaign
    load neither ``multiprocessing`` nor the process pool; ``--workers 2``
    loads them to fan the same cells out, and prints the same bytes."""
    code = textwrap.dedent(
        """
        import sys
        import repro.runtime
        from repro.cli import main

        assert main(sys.argv[1:]) == 0
        loaded = [m for m in ("multiprocessing", "concurrent.futures.process")
                  if m in sys.modules]
        print("pool modules: %d" % len(loaded), file=sys.stderr)
        """
    )

    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        # (a pool's interpreter-exit shutdown may add stderr noise after it)
        (loaded,) = [
            line for line in result.stderr.splitlines()
            if line.startswith("pool modules:")
        ]
        return result.stdout, loaded

    one_cell = ("run", "bank")
    many_cells = ("torture", "--adt", "counter", "--schedules", "4")
    serial = run(*one_cell)
    assert serial[1] == "pool modules: 0" and "committed" in serial[0]
    serial = run(*many_cells)
    assert serial[1] == "pool modules: 0"
    assert run(*many_cells, "--workers", "2") == (serial[0], "pool modules: 2")


def test_serial_is_the_pool_of_one():
    """A campaign has one path at every worker count: nothing asks how
    many workers there are but the engine itself (inline or pooled) —
    the open-loop drive takes no worker count at all, and the engine
    runs the two campaign cell kinds and nothing else."""
    from repro.runtime import openloop
    from repro.runtime.parallel import CELL_EXECUTORS

    def names_workers(node):
        return (isinstance(node, ast.Name) and node.id == "workers") or (
            isinstance(node, ast.Attribute) and node.attr == "workers"
        )

    forks = sorted(
        {
            "%s:%s" % (path.relative_to(PACKAGE), fn.name)
            for path, fn in _functions()
            for node in ast.walk(fn)
            if isinstance(node, ast.Compare)
            and any(map(names_workers, [node.left] + node.comparators))
        }
    )
    assert forks == [
        "runtime/parallel.py:__init__",  # ParallelRunner's
        "runtime/parallel.py:stream",
    ]
    assert list(inspect.signature(openloop.drive).parameters) == [
        "config", "seed", "trace"
    ]
    # (tests/runtime/test_parallel.py registers ``test-*`` kinds of its own)
    built_in = {kind for kind in CELL_EXECUTORS if not kind.startswith("test-")}
    assert built_in == {"compare", "torture"}


def test_no_module_writes_a_per_worker_file():
    """A cell's events come back with its result; no ``<trace>.w<k>.jsonl``
    shard protocol (or any other per-worker file) is left to come back."""
    offenders = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and ".w%d" in node.value
    ]
    assert not offenders, offenders


def test_undeclared_hook_is_woken_every_tick():
    """The fault calendar is the whole selection: an entry due every
    tick wakes every tick, so nothing is elided and no ``calendar-wake``
    is emitted; with one due every 100 ticks the same run jumps the
    ticks before the arrival."""

    def run(every):
        ba = BankAccount("BA")
        system = TransactionSystem([ManagedObject(ba, ba.nrbc_conflict(), "UIP")])
        scheduler = Scheduler(
            system,
            [],
            trace=TraceCollector(),
            arrivals=[(TransactionScript("T", (("BA", inv("deposit", 1)),)), 9)],
            faults=[Fault(CHECKPOINT, every=every)],
        )
        metrics = scheduler.run()
        wakes = [e for e in scheduler.trace.events if e["kind"] == "calendar-wake"]
        return metrics, wakes

    metrics, wakes = run(1)
    assert metrics.committed == 1
    assert metrics.dead_ticks_elided == 0 and metrics.calendar_wakeups == 0
    assert wakes == []
    metrics, wakes = run(100)
    assert metrics.committed == 1
    assert metrics.dead_ticks_elided == 8 and len(wakes) == 1


def test_arrivals_have_one_admission_path():
    """No selector came with the arrival stream — the constructor takes
    what it took, ``arrivals`` now a stream of ``(script, tick)`` pairs —
    and the scan shuffles the transactions in the system (``_active``)
    and nothing else: a script still to arrive costs a tick nothing."""
    assert list(inspect.signature(Scheduler.__init__).parameters) == [
        "self", "system", "scripts", "seed", "max_restarts", "max_ticks",
        "label", "faults", "trace", "arrivals",
    ]
    scans = []

    class RecordingRandom(random.Random):
        def shuffle(self, x):
            assert sorted(map(id, x)) == sorted(map(id, scheduler._active))
            scans.append((scheduler.metrics.ticks, [t.script.name for t in x]))
            super().shuffle(x)

    ba = BankAccount("BA")
    system = TransactionSystem([ManagedObject(ba, ba.nrbc_conflict(), "UIP")])
    arrivals = {"T0": 0, "T1": 1, "T2": 7, "T3": 7, "T4": 30}
    scripts = [TransactionScript(n, (("BA", inv("deposit", 1)),)) for n in arrivals]
    scheduler = Scheduler(
        system,
        scripts[:1],
        arrivals=[(s, arrivals[s.name]) for s in scripts[1:]],
    )
    scheduler.rng = RecordingRandom(0)
    assert scheduler.run().committed == 5
    assert scans[0] == (1, ["T0", "T1"])
    for tick, names in scans:
        assert all(arrivals[name] <= tick for name in names)
    assert sorted(n for _, names in scans for n in names if n > "T1") == [
        "T2", "T2", "T3", "T3", "T4", "T4",
    ]  # one tick for the deposit, one for the commit: then gone


# ---------------------------------------------------------------------------
# a refused invocation sleeps on its object's epoch
# ---------------------------------------------------------------------------

LOCK_TABLE_CHANGES = {"acquire", "release_all"}
VIEW_CHANGES = {"on_execute", "on_commit", "on_abort", "rebase"}
#: the automaton's steps that move its halves (an invocation moves neither)
AUTOMATON_CHANGES = {"step", "_execute", "commit", "abort", "restart"}


def _receiver(call):
    """``x`` in ``<...>.x.method(...)`` or ``x.method(...)``."""
    value = call.func.value
    return getattr(value, "attr", getattr(value, "id", None))


def _changes_a_half(fn):
    """Does ``fn`` change an object's lock table or view in place —
    ``<x>.locks.acquire/release_all(...)``,
    ``<x>.recovery.on_execute/on_commit/on_abort/rebase(...)``, or an
    automaton step that does (``<x>.automaton.commit(...)`` ...) — or
    replace either half or the automaton holding them?"""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            half, method = _receiver(node), node.func.attr
            if (
                (half == "locks" and method in LOCK_TABLE_CHANGES)
                or (half == "recovery" and method in VIEW_CHANGES)
                or (half == "automaton" and method in AUTOMATON_CHANGES)
            ):
                return True
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        if any(
            isinstance(t, ast.Attribute) and t.attr in ("locks", "recovery", "automaton")
            for t in targets
        ):
            return True
    return False


def _advances(fn, counter):
    return any(
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr == counter
        for node in ast.walk(fn)
    )


def test_every_change_to_an_objects_halves_advances_its_epoch():
    """The failure mode of parking is a new mutation path that forgets
    the epoch, and a transaction that then sleeps for ever: whoever
    touches the lock table or the view says so in the same function.
    Constructors are exempt (nothing can be parked on an object still
    being built), and so is everything outside ``repro.runtime``: the
    abstract automaton and the analyses that drive it hold the same two
    halves but have no scheduler and no epoch."""
    changers = [
        ("%s:%s" % (path.relative_to(SRC), fn.name), fn)
        for path, fn in _functions()
        if fn.name != "__init__"
        and path.parent == PACKAGE / "runtime"
        and _changes_a_half(fn)
    ]
    assert sorted(name for name, _ in changers) == [
        "repro/runtime/system.py:abort",
        "repro/runtime/system.py:complete_commit",
        "repro/runtime/system.py:crash_and_restart",
        "repro/runtime/system.py:try_operation",
    ]
    forgetful = [name for name, fn in changers if not _advances(fn, "epoch")]
    assert not forgetful, forgetful


def test_every_membership_change_advances_the_membership_counter():
    """A replicated ``invoke`` also reads which copies are in service,
    read-qualified and awaiting catch-up: whoever changes one of those
    sets moves the counter ``ReplicatedSystem.epoch`` adds in."""
    membership = {"_current", "_qualified", "_pending_catchup"}
    changers = []
    for path, fn in _functions():
        if path != PACKAGE / "runtime" / "replication.py" or fn.name == "__init__":
            continue
        if any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr in membership
            and node.func.attr in ("add", "discard", "difference_update", "update")
            for node in ast.walk(fn)
        ):
            changers.append(fn)
    assert sorted(fn.name for fn in changers) == [
        "_install_versions", "_maybe_catchup", "fail_site", "recover_site",
    ]
    forgetful = [
        fn.name for fn in changers if not _advances(fn, "_membership_epoch")
    ]
    assert not forgetful, forgetful


def test_only_the_scheduler_compares_epochs():
    """"Does the refusal still stand?" is one scheduler method (the seam
    ``repro.reference.reattempt_every_tick`` swaps); everything else
    only ever moves an epoch forward or adds epochs up."""

    def mentions_an_epoch(node):
        return any(
            isinstance(sub, ast.Attribute) and ("epoch" in sub.attr or sub.attr == "parked")
            for sub in ast.walk(node)
        )

    homes = {}
    for path, fn in _functions():
        if path == PACKAGE / "reference.py":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare) and any(
                mentions_an_epoch(side) for side in [node.left] + node.comparators
            ) and not all(
                isinstance(c, ast.Constant) and c.value is None
                for c in node.comparators
            ):
                homes.setdefault(str(path.relative_to(SRC)), set()).add(fn.name)
    assert homes == {"repro/runtime/scheduler.py": {"_refusal_stands"}}


# ---------------------------------------------------------------------------
# one transaction system, one driver
# ---------------------------------------------------------------------------


def test_the_optimistic_protocol_has_no_system_or_driver_of_its_own():
    """Section 3.4's optimistic protocols are a relation enforced at
    commit (``core.conflict.AtCommit``) handed to the one object class:
    no module, object class, system or driver of their own."""
    import importlib.util

    import repro.runtime

    for name in ("OptimisticSystem", "run_optimistic", "OptimisticObject"):
        assert not hasattr(repro.runtime, name), name
    assert importlib.util.find_spec("repro.runtime.optimistic") is None
    named = [
        str(path.relative_to(SRC))
        for path in sorted(PACKAGE.rglob("*.py"))
        if "OptimisticObject" in path.read_text()
    ]
    assert not named, named


def test_one_scan_loop_names_restarts_and_shuffles():
    """``scheduler.py`` is the only module that shuffles a scan order or
    builds a ``T~rN`` incarnation name: a second driver would do both."""
    homes = set()
    for path, tree in _modules():
        for node in ast.walk(tree):
            shuffles = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "shuffle"
            )
            names_restart = (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "~r%" in node.value
            )
            if shuffles or names_restart:
                homes.add(str(path.relative_to(SRC)))
    assert homes == {"repro/runtime/scheduler.py"}


def test_every_transaction_system_is_a_transaction_system():
    """A class under ``repro.runtime`` with the transaction-facing API
    (``invoke``/``commit``/``abort``) derives from the one system."""
    systems = []
    for path in sorted((PACKAGE / "runtime").glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module("repro.runtime.%s" % path.stem)
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and all(callable(getattr(cls, n, None))
                        for n in ("invoke", "commit", "abort"))
            ):
                systems.append(cls)
    assert TransactionSystem in systems
    assert all(issubclass(cls, TransactionSystem) for cls in systems), systems


# ---------------------------------------------------------------------------
# one Conflict half, one View half
# ---------------------------------------------------------------------------


def _classes():
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield "%s:%s" % (path.relative_to(SRC), node.name), node


def test_one_class_keeps_the_lock_table():
    """"Which active transactions' held operations conflict with this
    one" — the ``(class, key)`` index and the slot lookup — has one home,
    which keeps nothing beside the index (no held masks, no remembered
    answers), and the automaton and the runtime object each hold an
    instance of it."""
    homes = [name for name, cls in _classes() if "slot" in _calls(cls)]
    assert homes == ["repro/core/lock_manager.py:LockManager"]
    retired = {"_answers", "_held_masks", "_held_idx", "_holders_against"}
    kept = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in retired
    ]
    assert not kept, kept
    ba = BankAccount("BA")
    automaton = ObjectAutomaton(ba, UIP, ba.nrbc_conflict())
    runtime = ManagedObject(ba, ba.nrbc_conflict(), "UIP")
    assert type(automaton.locks) is type(runtime.locks) is LockManager
    assert not retired & (set(vars(runtime.locks)) | set(vars(LockManager)))


def test_the_runtime_object_holds_the_automaton():
    """Pending invocations, the event history and which terminal events
    it holds are the automaton's ``HistoryBuilder``; no runtime object
    keeps a second copy of any of them, and none moves a half itself."""
    from repro.core.conflict import AtCommit

    ba = BankAccount("BA")
    for obj in (
        ManagedObject(ba, ba.nrbc_conflict(), "UIP"),
        ManagedObject(ba, ba.nrbc_conflict(), "UIP", log=StableLog()),
        ManagedObject(ba, AtCommit(ba.nfc_conflict()), "DU"),
    ):
        assert isinstance(obj.automaton, ObjectAutomaton)
        assert obj.locks is obj.automaton.locks
        assert obj.recovery is obj.automaton.recovery
    mirrors = [
        "%s.%s" % (cls.name, node.attr)
        for _name, cls in _classes()
        if cls.name == "ManagedObject"
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and node.attr in ("_pending", "_events", "_recorded", "_record_end")
    ]
    assert not mirrors, mirrors
    runtime = (PACKAGE / "runtime" / "system.py", PACKAGE / "runtime" / "durability.py")
    steps_around = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path, tree in _modules()
        if path in runtime
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (
            (_receiver(node) == "locks" and node.func.attr in LOCK_TABLE_CHANGES)
            or (_receiver(node) == "recovery" and node.func.attr in VIEW_CHANGES)
        )
    ]
    assert not steps_around, steps_around


def test_the_automaton_has_one_candidate_loop():
    """"Which responses are free, and who blocks the rest" is one loop,
    ``ObjectAutomaton.free_candidates``: ``enabled_responses``,
    ``blocked_responses`` and ``ManagedObject.try_operation`` all ask it."""
    objects = ("ObjectAutomaton", "ManagedObject")
    loops = sorted(
        "%s:%s" % (name, fn.name)
        for name, cls in _classes()
        if cls.name in objects
        for fn in ast.walk(cls)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.For) and "blockers" in _calls(node)
    )
    assert loops == ["repro/core/object_automaton.py:ObjectAutomaton:free_candidates"]
    askers = sorted(
        "%s:%s" % (path.relative_to(SRC), fn.name)
        for path, fn in _functions()
        if "free_candidates" in _calls(fn)
    )
    assert askers == [
        "repro/core/object_automaton.py:_responses",
        "repro/runtime/system.py:try_operation",
    ]


def test_no_memo_on_the_attempt_path_has_a_size_or_a_switch():
    """The attempt path's memos — interned operations, candidate tuples,
    enabled responses, lock answers — are plain dicts, each with a
    validity rule instead of a bound: nothing under ``src/repro`` builds
    a sized cache (``lru_cache``, ``maxsize=``), no constructor or lookup
    on the path grew a parameter to size or disable one, and nothing
    reads the environment (``test_no_module_reads_the_environment``)."""
    from repro.core.recovery import RecoveryManager
    from repro.core.serial_spec import SerialSpec

    sized = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, (ast.Name, ast.Attribute))
            and getattr(node, "id", getattr(node, "attr", None)) in ("lru_cache", "cache"))
        or (isinstance(node, ast.alias) and node.name in ("lru_cache", "cache"))
        or (isinstance(node, ast.keyword) and node.arg == "maxsize")
    ]
    assert not sized, sized
    signatures = {
        SerialSpec.__init__: ["self", "name"],
        SerialSpec.operation: ["self", "invocation", "response"],
        LockManager.__init__: ["self", "conflict"],
        LockManager.blockers: ["self", "txn", "operation"],
        LockManager.copy: ["self"],
        RecoveryManager.__init__: ["self", "spec"],
        RecoveryManager.enabled_responses: ["self", "txn", "invocation"],
        ManagedObject.__init__: [
            "self", "adt", "conflict", "recovery", "uip_strategy", "restart_policy", "log",
        ],
        ObjectAutomaton.__init__: ["self", "spec", "view", "conflict", "recovery"],
        ObjectAutomaton._candidates: ["self", "invocation", "responses"],
        ObjectAutomaton.free_candidates: [
            "self", "txn", "invocation", "responses", "extra_blockers",
        ],
        ManagedObject.try_operation: [
            "self", "txn", "invocation", "rng", "extra_blockers",
        ],
    }
    for fn, parameters in signatures.items():
        assert list(inspect.signature(fn).parameters) == parameters, fn.__qualname__


def test_the_table_is_the_relation():
    """One class holds a class matrix and a key, and hands out slots; it
    is the relation the ADTs hand out, and it lives in ``repro.core``: no
    second "compiled" form of it, and no interpreted closure class beside
    the two functions that keep a table a table — while every member
    has one classifier and one key."""
    definers = [
        name
        for name, cls in _classes()
        if any(isinstance(n, ast.FunctionDef) and n.name == "slot" for n in cls.body)
    ]
    assert definers == ["repro/core/conflict.py:ClassifierConflict"]
    retired = {"CompiledConflict", "CompiledTable", "SymmetricClosure", "UnionConflict"}
    assert not [name for name, cls in _classes() if cls.name in retired]
    from repro.adts import KVStore, PriorityQueue
    from repro.core.conflict import ClassifierConflict, WithoutPairs, symmetric_closure, union
    from repro.reference import matrix_conflict, opaque_conflict

    ba, kv = BankAccount("BA"), KVStore("KV")
    nfc, nrbc = ba.nfc_conflict(), ba.nrbc_conflict()
    keyed = kv.nrbc_conflict()
    for table in (
        nfc, nrbc, symmetric_closure(nrbc), union(nfc, nrbc), nfc | nrbc,
        keyed, symmetric_closure(keyed), union(kv.nfc_conflict(), keyed),
    ):
        assert LockManager(table).table is table
    for loop in (
        WithoutPairs(nrbc, []), opaque_conflict(nrbc), matrix_conflict(nrbc),
        union(keyed, ClassifierConflict(kv.classify, keyed.matrix)),  # two keys
        PriorityQueue("PQ").nrbc_conflict(),  # an ordering
    ):
        assert LockManager(loop).table is None


def test_nothing_refines_a_class_hit():
    """A table is classes and a key; anything finer is a predicate.  No
    ``refine`` hook — parameter, attribute, function or the word — is
    left under ``src/repro``."""
    hooks = [
        "%s:%d" % (path.relative_to(SRC), lineno)
        for path in sorted(PACKAGE.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\brefine\b|_refine\b|\brefine_", line)
    ]
    assert not hooks, hooks


def test_core_and_adts_sit_below_analysis():
    """``repro.core`` imports ``repro.analysis`` nowhere, and
    ``repro.adts`` only when ``ADT.build_checker`` is called: the table
    and ``OperationClass`` live in ``repro.core``, so loading an ADT
    does not execute the analysis package."""
    allowed = {("repro/adts/base.py", "build_checker")}
    offenders = [
        "%s:%d" % (path.relative_to(SRC), lineno)
        for path, lineno, names, fn in _imports()
        if path.relative_to(SRC).parts[:2] in {("repro", "core"), ("repro", "adts")}
        and any((n + ".").startswith("repro.analysis.") for n in names)
        and (str(path.relative_to(SRC)), fn) not in allowed
    ]
    assert not offenders, offenders


def test_nothing_in_compile_tables_is_there_for_tests_only():
    """Every function ``analysis/compile_tables.py`` still defines is
    called under ``src/repro`` or is a span of the end-to-end ledger."""
    spans = (SRC.parent / "benchmarks" / "e2e" / "spans.py").read_text()
    called = set().union(*(_calls(tree) for _, tree in _modules()))
    tree = ast.parse((PACKAGE / "analysis" / "compile_tables.py").read_text())
    idle = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name not in called
        and '"%s"' % node.name not in spans
    ]
    assert not idle, idle


def test_the_recovery_method_is_asked_once():
    """UIP-or-DU is chosen by the recovery method's name where an object
    given a log builds its logging discipline; after that the log and
    the manager answer for themselves (one ``on_prepare`` / ``on_commit``
    signature, ``rebase``, ``view``) and nothing under ``runtime/``
    tests the type of a log or a manager."""
    asked = {
        "LogDiscipline", "RedoOnlyLog", "UndoRedoLog", "RecoveryManager",
        "DeferredUpdateManager", "UpdateInPlaceManager", "StrictUpdateInPlaceManager",
        "ViewRecoveryManager",
    }
    sites = [
        "%s:%s" % (path.relative_to(PACKAGE), fn.name)
        for path, fn in _functions()
        if path.parent == PACKAGE / "runtime"
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
        & asked
    ]
    assert sites == []
    ba = BankAccount("BA")
    for recovery, discipline in (("UIP", UndoRedoLog), ("DU", RedoOnlyLog)):
        obj = ManagedObject(ba, ba.nrbc_conflict(), recovery, log=StableLog())
        assert type(obj.wal) is discipline, recovery
        assert ManagedObject(ba, ba.nrbc_conflict(), recovery).wal is None


def test_one_class_maintains_each_view():
    """A class that materializes a view (``macro``) under execute deltas
    is one of the four in ``core/recovery.py``; ``View.cursor`` and
    ``make_recovery_manager`` hand out the same ones, and ``View.cursor``
    never picks logical undo."""
    homes = sorted(
        name
        for name, cls in _classes()
        if {"macro", "on_execute"}
        <= {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
        and not name.startswith("repro/reference.py:")  # the checked wrapper
    )
    assert homes == [
        "repro/core/recovery.py:%s" % name
        for name in (
            "DeferredUpdateManager",
            "RecoveryManager",
            "StrictUpdateInPlaceManager",
            "UpdateInPlaceManager",
            "ViewRecoveryManager",
        )
    ]
    cursors = [
        name for name, cls in _classes()
        if name.startswith("repro/core/") and cls.name.endswith("Cursor")
    ]
    assert not cursors, cursors
    ba = BankAccount("BA")
    assert ba.supports_logical_undo
    for method, view in (("UIP", UIP), ("DU", DU), ("SUIP", SUIP)):
        assert type(view.cursor(ba)) is type(make_recovery_manager(ba, method))
    assert UIP.cursor(ba).strategy == "replay"
    assert type(opaque_view(UIP).cursor(ba)).__name__ == "ViewRecoveryManager"


def test_the_theory_layers_never_import_the_runtime():
    """``repro.core``, ``repro.analysis`` and ``repro.adts`` import
    nothing from ``repro.runtime``, at module level or inside a function
    (``import repro`` loads every subpackage, so ``sys.modules`` cannot
    tell; the import statements can)."""
    theory = {("repro", "core"), ("repro", "analysis"), ("repro", "adts")}
    offenders = [
        "%s:%d" % (path.relative_to(SRC), lineno)
        for path, lineno, names, _fn in _imports()
        if path.relative_to(SRC).parts[:2] in theory
        and any((n + ".").startswith("repro.runtime.") for n in names)
    ]
    assert not offenders, offenders


# ---------------------------------------------------------------------------
# one failure-domain core
# ---------------------------------------------------------------------------


def _calls(node):
    """Names and attribute names called anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            fn = sub.func
            out.add(fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None))
    return out


def test_commit_or_kill_is_decided_in_one_function():
    """The surviving-commit-record rule — ``has_durable_commit`` over a
    transaction's touched set, then complete or kill — has one home."""
    deciders = [
        "%s:%s" % (path.relative_to(SRC), fn.name)
        for path, fn in _functions()
        if {"has_durable_commit", "crash_kill"} <= _calls(fn)
    ]
    assert deciders == ["repro/runtime/system.py:_resolve_failure"]


def test_one_surviving_commit_completion():
    """An in-doubt commit that reached its commit point is finished in
    one place: ``_resolve_failure`` completes it at each failed object
    through ``crash_commit`` and, in the same loop, at each healthy one
    through the object's commit-now path — no helper does either
    elsewhere."""
    homes = [
        "%s:%s" % (path.relative_to(SRC), fn.name)
        for path, fn in _functions()
        if "crash_commit" in _calls(fn)
    ]
    assert homes == ["repro/runtime/system.py:_resolve_failure"]
    (resolve,) = [fn for _path, fn in _functions() if fn.name == "_resolve_failure"]
    assert "commit" in _calls(resolve)


def test_a_crash_is_an_operation_of_the_system():
    """Failing is something the one transaction system does, not a kind
    of system: no crash-capable subclass, only the two placements below
    the base, one trace binding with no duck-typed fork, and the failure
    domain written once as ``domain_of`` / ``domain_failures``."""
    crashable = [name for name, _cls in _classes() if name.endswith(":CrashableSystem")]
    assert not crashable, crashable
    parents = {
        name.rpartition(":")[2]: {getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases}
        for name, cls in _classes()
    }
    below = {"TransactionSystem"}
    while True:
        more = {name for name, bases in parents.items() if bases & below} - below
        if not more:
            break
        below |= more
    assert below - {"TransactionSystem"} == {"ShardedSystem", "ReplicatedSystem"}
    trace = ast.parse((PACKAGE / "runtime" / "trace.py").read_text())
    forks = [
        node.lineno
        for node in ast.walk(trace)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "getattr"
        and any(isinstance(a, ast.Constant) and a.value == "bind_trace" for a in node.args)
    ]
    assert not forks, forks
    retired = {"_placement", "_copy_site", "shard_crashes", "site_failures"}
    spelled = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in retired)
        or (isinstance(node, ast.FunctionDef) and node.name in retired)
        or (isinstance(node, ast.Name) and node.id in retired)
    ]
    assert not spelled, spelled


#: The failures and recoveries a run injects, by the name they are called by.
FAULT_OPERATIONS = {"handle_crash", "fail_site", "recover_site", "crash_shard"}


def test_one_injection_path():
    """Every crash, shard crash, site failure and site recovery of a run
    is a fault calendar entry fired by the scheduler's one fault method,
    ``Scheduler.inject``.  It is called by ``Scheduler.run`` (the tick
    loop and the end-of-run recovery) and by one named exception,
    torture's ``CrashPoint`` handler, which re-enters the run.  No
    ``on_tick`` hook and no ``next_wake`` attribute is left."""
    callers = sorted(
        {
            "%s:%s" % (path.relative_to(SRC), fn.name)
            for path, fn in _functions()
            if _calls(fn) & FAULT_OPERATIONS
        }
    )
    assert callers == ["repro/runtime/scheduler.py:inject"]
    injectors = sorted(
        {
            "%s:%s" % (path.relative_to(SRC), fn.name)
            for path, fn in _functions()
            if "inject" in _calls(fn)
        }
    )
    assert injectors == [
        "repro/runtime/scheduler.py:run",
        "repro/runtime/torture.py:run_schedule",
    ]
    (run_schedule,) = [fn for _path, fn in _functions() if fn.name == "run_schedule"]
    calls = [
        node for node in ast.walk(run_schedule)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "inject"
    ]
    handlers = [
        node for node in ast.walk(run_schedule)
        if isinstance(node, ast.ExceptHandler)
        and getattr(node.type, "id", None) == "CrashPoint"
    ]
    assert len(calls) == len(handlers) == 1
    assert calls[0] in list(ast.walk(handlers[0]))
    retired = {"on_tick", "next_wake"}
    spelled = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in retired)
        or (isinstance(node, ast.Name) and node.id in retired)
        or (isinstance(node, ast.arg) and node.arg in retired)
        or (isinstance(node, ast.keyword) and node.arg in retired)
        or (isinstance(node, ast.FunctionDef) and node.name in retired)
    ]
    assert not spelled, spelled


def test_each_durability_fact_has_one_home():
    """The commit-point rule (``COMMIT_MARKERS`` and what a log answers
    from it) and the log checkpoint are written once, on the base of both
    logging disciplines; no object keeps a second ticket hook per 2PC
    phase; and the faulty log keeps no flush cursor or recovery flag
    beside the stable log's."""
    markers = [
        str(path.relative_to(SRC))
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "COMMIT_MARKERS" for t in node.targets)
    ]
    assert markers == ["repro/runtime/wal.py"]
    logs = [
        (name, cls) for name, cls in _classes()
        if name.startswith(("repro/runtime/wal.py:", "repro/runtime/faults.py:"))
    ]
    for method in ("commit_lsn", "has_durable_commit", "recovery_commit", "checkpoint"):
        homes = [
            name for name, cls in logs
            if any(isinstance(n, ast.FunctionDef) and n.name == method for n in cls.body)
        ]
        assert homes == ["repro/runtime/wal.py:LogDiscipline"], (method, homes)
    retired = {"prepare_ready", "commit_ready", "_durable", "_in_recovery"}
    offenders = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.FunctionDef) and node.name in retired)
        or (isinstance(node, ast.Attribute) and node.attr in retired)
    ]
    assert not offenders, offenders


def test_durable_objects_are_built_in_one_place():
    """Only ``build_durable_object`` hands an object a stable log: no
    other call under ``src/repro`` passes ``log=``, except an object
    handing its log on to the logging discipline it builds."""
    disciplines = {"RedoOnlyLog", "UndoRedoLog", "__init__"}
    sites = sorted(
        {
            "%s:%s" % (path.relative_to(SRC), fn.name)
            for path, fn in _functions()
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and any(keyword.arg == "log" for keyword in node.keywords)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) not in disciplines
        }
    )
    assert sites == ["repro/runtime/durability.py:build_durable_object"]


def test_the_log_is_a_part_of_the_object():
    """One runtime object class, with an optional log: nothing under
    ``src/repro`` defines a second copy of the committed state
    (``committed_macro``; the object's ``committed_tip`` is the one a
    checkpoint snapshots), and no class subclasses ``ManagedObject`` —
    not even to change when ``Conflict`` is enforced, which is the
    relation's to say (``AtCommit``)."""
    twins = [
        "%s:%d" % (path.relative_to(SRC), fn.lineno)
        for path, fn in _functions()
        if fn.name == "committed_macro"
    ]
    assert not twins, twins
    subclasses = sorted(
        name
        for name, cls in _classes()
        if any(getattr(base, "id", getattr(base, "attr", None)) == "ManagedObject"
               for base in cls.bases)
    )
    assert subclasses == []


def test_recovery_method_picks_the_conflict_relation_once():
    """UIP -> NRBC, DU -> NFC (Theorems 9 and 10) is stated once for the
    runtime; everything else asks ``recovery_conflict``."""
    choices = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.IfExp, ast.If))
        and any(
            isinstance(c, ast.Constant) and c.value == "UIP"
            for c in ast.walk(node.test)
        )
        and {"nrbc_conflict", "nfc_conflict"} & _calls(node)
    ]
    assert len(choices) == 1 and choices[0].startswith(
        "repro/runtime/durability.py:"
    ), choices


def test_no_search_of_the_whole_waits_for_graph():
    """A waits-for cycle is looked for from the waiter whose wait may
    have closed it, and nowhere else: ``find_cycle`` takes its start,
    reads the edges only through ``.get`` (no loop over every waiter),
    and is asked by ``wait`` and by the one scan branch that breaks what
    a wait closed; the no-progress hook never touches the graph.  One
    detector and one victim rule: nothing configures the graph, and
    only ``_break_cycle`` counts a deadlock or emits its event."""
    from repro.runtime.lock_manager import WaitsForGraph

    assert list(inspect.signature(WaitsForGraph.__init__).parameters) == ["self"]
    assert list(inspect.signature(WaitsForGraph.wait).parameters) == [
        "self", "waiter", "holders",
    ]
    assert list(inspect.signature(WaitsForGraph.find_cycle).parameters) == [
        "self", "start",
    ]
    askers = sorted(
        "%s:%s" % (path.relative_to(SRC), fn.name)
        for path, fn in _functions()
        if "find_cycle" in _calls(fn)
    )
    assert askers == [
        "repro/runtime/lock_manager.py:wait",
        "repro/runtime/scheduler.py:_tick",
    ]
    (search,) = [
        fn for path, fn in _functions()
        if path == PACKAGE / "runtime" / "lock_manager.py" and fn.name == "find_cycle"
    ]
    parent = {
        child: node for node in ast.walk(search) for child in ast.iter_child_nodes(node)
    }
    edges = [
        node for node in ast.walk(search)
        if isinstance(node, ast.Attribute) and node.attr == "_edges"
    ]
    assert edges and all(
        isinstance(parent[node], ast.Attribute) and parent[node].attr == "get"
        for node in edges
    )
    (stall,) = [fn for _, fn in _functions() if fn.name == "_break_stall"]
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "_waits"
        for node in ast.walk(stall)
    )
    breakers = sorted(
        "%s:%s" % (path.relative_to(SRC), fn.name)
        for path, fn in _functions()
        if _emits(fn, "deadlock") or _advances(fn, "deadlocks")
    )
    assert breakers == ["repro/runtime/scheduler.py:_break_cycle"]


def _emits(fn, kind):
    """Does ``fn`` call ``<x>.emit(kind, ...)``?"""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == kind
        for node in ast.walk(fn)
    )


#: spans the benchmark still names whose functions the product deleted
#: on purpose: the hold-timer countdown, replaced by the system clock's
#: heap of due ticks (``TransactionSystem.tick``), and the durable
#: object class, whose log steps are now ``ManagedObject``'s own.  They
#: read as ``ledger.spans_missing`` until the benchmark's span table is
#: retargeted; nothing else may go missing.
RETIRED_SPANS = [
    "repro.runtime.wal:StableLog.tick",
    "repro.runtime.wal:StableLog.advance",
    "repro.runtime.durability:DurableObject.prepare",
    "repro.runtime.durability:DurableObject.submit_commit",
    "repro.runtime.durability:DurableObject.complete_commit",
    "repro.runtime.durability:DurableObject.tick",
    "repro.runtime.durability:DurableObject.checkpoint",
    "repro.runtime.durability:DurableObject.crash_and_restart",
    "repro.runtime.durability:CrashableSystem.crash",
]


def test_every_benchmark_span_is_defined_on_its_owner():
    """``benchmarks/e2e/spans.py`` wraps ``vars(owner)[attr]``; a name
    that moved to a base class would drop out of the ledger silently
    here and fail ``pytest benchmarks/e2e`` in CI.  The only names
    allowed missing are :data:`RETIRED_SPANS`, and each of them must
    be."""
    path = SRC.parent / "benchmarks" / "e2e" / "spans.py"
    spec = importlib.util.spec_from_file_location("_e2e_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for targets in spans.SPANS.values():
        for module_name, qualname in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not isinstance(vars(owner).get(attr), types.FunctionType):
                missing.append("%s:%s" % (module_name, qualname))
    assert missing == RETIRED_SPANS, missing


def test_a_held_batch_is_timed_by_the_system_clock_alone():
    """A held group-commit batch records the tick it is due at and the
    system's one heap forces it then: no log or object counts a hold
    down, and the system has one entry for a tick and a jump alike."""
    from repro.runtime.faults import FaultyStableLog
    from repro.runtime.system import ManagedObject, TransactionSystem

    retired = (
        "tick", "advance", "advance_ticks", "next_deadline",
        "watch_hold_timer", "_hold_ticks",
    )
    for cls in (StableLog, FaultyStableLog, ManagedObject):
        kept = [name for name in retired if hasattr(cls, name)]
        assert not kept, (cls.__name__, kept)
    assert not hasattr(TransactionSystem, "advance_ticks")
    offenders = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("_hold_ticks", "on_hold", "_armed", "_timed")
    ]
    assert not offenders, offenders
