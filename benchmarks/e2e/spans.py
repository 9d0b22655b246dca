"""The ledger: timing spans around the calls into each layer.

A layer is a module of ``repro``.  :data:`SPANS` names, per layer, the
functions whose calls the ledger run times.  :meth:`Ledger.install`
replaces each with a wrapper that keeps a span stack, so a span's
**self** time is its duration minus the part its child spans cover, and
the self times of all spans add up to the duration of the outermost
ones.  Nothing under ``src/`` knows about this file.

The ADT methods (``classify``, ``transitions``, ``step_macro``) are not
wrapped on purpose: their time stays in the layer that called them.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: layer -> [(module, "Class.method" | "function")].  Every name is an
#: attribute the product looks up at call time, so replacing it is
#: enough to see every call.  ``ReplicatedSystem._replay_catchup`` is
#: the one private name: catch-up replay has no public entry of its own.
SPANS: Dict[str, Sequence[Tuple[str, str]]] = {
    "scheduler": [
        ("repro.runtime.scheduler", "Scheduler.run"),
        ("repro.runtime.scheduler", "Scheduler.handle_crash"),
    ],
    "lock_manager": [
        ("repro.runtime.lock_manager", "LockManager.blockers"),
        ("repro.runtime.lock_manager", "LockManager.conflicting_holds"),
        ("repro.runtime.lock_manager", "LockManager.acquire"),
        ("repro.runtime.lock_manager", "LockManager.release_all"),
        ("repro.runtime.lock_manager", "WaitsForGraph.wait"),
        ("repro.runtime.lock_manager", "WaitsForGraph.find_cycle"),
        ("repro.runtime.lock_manager", "WaitsForGraph.remove_transaction"),
    ],
    "compile_tables": [
        ("repro.analysis.compile_tables", "maybe_compile"),
        ("repro.analysis.compile_tables", "compile_adt_tables"),
    ],
    "recovery": [
        ("repro.runtime.recovery", "RecoveryManager.enabled_responses"),
        ("repro.runtime.recovery", "UpdateInPlaceManager.on_execute"),
        ("repro.runtime.recovery", "UpdateInPlaceManager.on_commit"),
        ("repro.runtime.recovery", "UpdateInPlaceManager.on_abort"),
        ("repro.runtime.recovery", "DeferredUpdateManager.on_execute"),
        ("repro.runtime.recovery", "DeferredUpdateManager.on_commit"),
        ("repro.runtime.recovery", "DeferredUpdateManager.on_abort"),
    ],
    "system": [
        ("repro.runtime.system", "TransactionSystem.invoke"),
        ("repro.runtime.system", "TransactionSystem.commit"),
        ("repro.runtime.system", "TransactionSystem.abort"),
        ("repro.runtime.system", "TransactionSystem.tick"),
        ("repro.runtime.system", "TransactionSystem.snapshot_read"),
        ("repro.runtime.system", "ManagedObject.try_operation"),
        ("repro.runtime.system", "ManagedObject.install_version"),
        ("repro.runtime.system", "ManagedObject.prune_versions"),
        ("repro.runtime.system", "ManagedObject.version_at"),
        ("repro.runtime.system", "ManagedObject.read_at"),
    ],
    "wal": [
        ("repro.runtime.wal", "StableLog.append"),
        ("repro.runtime.wal", "StableLog.request_force"),
        ("repro.runtime.wal", "StableLog.tick"),
        ("repro.runtime.wal", "StableLog.advance"),
        ("repro.runtime.wal", "StableLog.force"),
        ("repro.runtime.wal", "UndoRedoLog.on_execute"),
        ("repro.runtime.wal", "UndoRedoLog.on_prepare"),
        ("repro.runtime.wal", "UndoRedoLog.on_commit"),
        ("repro.runtime.wal", "UndoRedoLog.on_abort"),
        ("repro.runtime.wal", "UndoRedoLog.restart"),
        ("repro.runtime.wal", "RedoOnlyLog.on_execute"),
        ("repro.runtime.wal", "RedoOnlyLog.on_prepare"),
        ("repro.runtime.wal", "RedoOnlyLog.on_commit"),
        ("repro.runtime.wal", "RedoOnlyLog.on_abort"),
        ("repro.runtime.wal", "RedoOnlyLog.restart"),
    ],
    "durability": [
        ("repro.runtime.durability", "DurableObject.prepare"),
        ("repro.runtime.durability", "DurableObject.submit_commit"),
        ("repro.runtime.durability", "DurableObject.complete_commit"),
        ("repro.runtime.durability", "DurableObject.tick"),
        ("repro.runtime.durability", "DurableObject.checkpoint"),
        ("repro.runtime.durability", "DurableObject.crash_and_restart"),
        ("repro.runtime.durability", "CrashableSystem.crash"),
    ],
    "trace": [
        ("repro.runtime.trace", "TraceCollector.emit"),
        ("repro.runtime.sharding", "ShardTrace.emit"),
        ("repro.runtime.replication", "SiteTrace.emit"),
    ],
    "sharding": [
        ("repro.runtime.sharding", "build_sharded_system"),
        ("repro.runtime.sharding", "ShardedSystem.bind_trace"),
        ("repro.runtime.sharding", "ShardedSystem.force_accounting_by_shard"),
    ],
    "replication": [
        ("repro.runtime.replication", "build_replicated_system"),
        ("repro.runtime.replication", "ReplicatedSystem.invoke"),
        ("repro.runtime.replication", "ReplicatedSystem.abort"),
        ("repro.runtime.replication", "ReplicatedSystem.snapshot_read"),
        ("repro.runtime.replication", "ReplicatedSystem.fail_site"),
        ("repro.runtime.replication", "ReplicatedSystem.recover_site"),
        ("repro.runtime.replication", "ReplicatedSystem.poll_catchup"),
        ("repro.runtime.replication", "ReplicatedSystem._replay_catchup"),
    ],
    "openloop": [
        ("repro.runtime.openloop", "open_loop_scripts"),
        ("repro.runtime.openloop", "drive"),
    ],
    "torture": [
        ("repro.runtime.torture", "run_torture"),
        ("repro.runtime.torture", "plan_campaign"),
        ("repro.runtime.torture", "audit_recovery"),
    ],
    "experiments": [
        ("repro.experiments.comparisons", "run_configuration"),
        ("repro.runtime.metrics", "summarize"),
    ],
}


class Ledger:
    """Per-(layer, function) call counts, total and self nanoseconds."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        #: (layer, "Class.method") -> [calls, total_ns, self_ns]
        self.stats: Dict[Tuple[str, str], List[int]] = {}
        #: one entry per open span: the nanoseconds its children took.
        self._stack: List[int] = []
        #: (owner, attribute, original, wrapper) for every replacement.
        self._patched: List[Tuple[object, str, object, object]] = []
        #: table entries whose target the product no longer has.
        self.missing: List[str] = []

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one span of ``layer``.

        The span pops in ``finally``: ``CrashPoint`` (and every other
        exception) unwinds through wrapped frames and must leave the
        stack balanced.
        """
        stat = self.stats.setdefault((layer, name), [0, 0, 0])
        stack = self._stack
        clock = self._clock

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        span.__wrapped__ = fn
        return span

    def install(self, spans: Dict[str, Sequence[Tuple[str, str]]] = SPANS) -> None:
        """Replace every function of ``spans`` with its timing wrapper.

        A target the product no longer has is skipped and listed in
        :attr:`missing` (reported as ``ledger.spans_missing``), so a
        rename under ``src/`` costs one row of the table, not the run.
        """
        for layer, targets in spans.items():
            for module_name, qualname in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append("%s:%s" % (module_name, qualname))
                    continue
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original) or isinstance(
                    original, (staticmethod, classmethod, type)
                ):
                    self.missing.append("%s:%s" % (module_name, qualname))
                    continue
                wrapper = self.wrap(layer, qualname, original)
                if owner_name:
                    self._replace(owner, attr, original, wrapper)
                else:
                    # ``from x import f`` copied the function into other
                    # module namespaces (the product's and the
                    # benchmark's own); replace every copy.
                    for other in list(sys.modules.values()):
                        if getattr(other, "__dict__", {}).get(attr) is original:
                            self._replace(other, attr, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        """Put every original back (only where the wrapper still sits)."""
        while self._patched:
            owner, attr, original, wrapper = self._patched.pop()
            if vars(owner).get(attr) is wrapper:
                setattr(owner, attr, original)

    # -- aggregates ----------------------------------------------------------------

    def rows(self) -> List[Dict[str, object]]:
        """One row per spanned function that was called, as plain JSON."""
        return [
            {
                "layer": layer,
                "function": name,
                "calls": calls,
                "total_ns": total,
                "self_ns": self_ns,
            }
            for (layer, name), (calls, total, self_ns) in sorted(self.stats.items())
            if calls
        ]


def layer_self_s(rows: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Self seconds per layer."""
    out: Dict[str, float] = {}
    for row in rows:
        out[row["layer"]] = out.get(row["layer"], 0.0) + row["self_ns"] / 1e9
    return out


def span_total_s(rows: Sequence[Dict[str, object]], layer: str, *names: str) -> float:
    """Inclusive seconds of the named functions of ``layer``.

    A name matches a row's function exactly or as its method part, so
    ``"on_abort"`` sums ``UpdateInPlaceManager.on_abort`` and
    ``DeferredUpdateManager.on_abort``.
    """
    return sum(row["total_ns"] for row in _select(rows, layer, names)) / 1e9


def span_calls(rows: Sequence[Dict[str, object]], layer: str, *names: str) -> int:
    """Calls of the named functions of ``layer`` (matched as above)."""
    return sum(row["calls"] for row in _select(rows, layer, names))


def _select(rows, layer: str, names: Sequence[str]):
    for row in rows:
        function = row["function"]
        if row["layer"] == layer and (
            function in names or function.rpartition(".")[2] in names
        ):
            yield row
