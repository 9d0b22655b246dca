"""Sharding the simulated system by object.

The paper's argument is about how recovery constrains *concurrency*, and
until now the runtime could only demonstrate that constraint inside one
lock-manager/log/scheduler domain.  This module hash-partitions the
managed objects of a :class:`~repro.runtime.durability.CrashableSystem`
into **shards**: each shard owns a disjoint subset of the objects, and
with them its own lock state (every object's
:class:`~repro.runtime.lock_manager.LockManager`, sharing the PR 6
compiled bitmask tables), its own stable logs with group commit, and its
own recovery path.  Nothing global remains on the data path — which is
exactly what lets the open-loop driver (:mod:`repro.runtime.openloop`)
fan single-shard traffic over one worker process per shard and measure
a real multi-core win, leaving the NFC/NRBC conflict tables (not the
plumbing) as the scaling bottleneck.

Design notes:

* **Routing** is a pure function: :func:`shard_of` maps an object name
  to a shard by CRC-32, so every process — driver, worker, auditor —
  computes the same placement with no shared map to synchronize.
* **Cross-shard transactions** need no new commit protocol: the
  durable-prepare / commit-record two-phase pipeline from PRs 1-2
  already runs *per object*, and objects in different shards simply
  vote and force on their own shard's logs.  The commit point is a
  durable commit record at any touched object, same as before.
* **Partial failure** is the new capability: :meth:`ShardedSystem.crash_shard`
  crashes one shard while the others keep running.  In-doubt
  transactions touching the dead shard are resolved by the commit-point
  rule — completed at every shard (healthy ones finish the commit
  normally, the crashed one completes at recovery), or killed
  everywhere (healthy shards perform a clean volatile abort, the
  crashed shard simply loses them).
* **Audit** stays the torture harness's: :func:`audit_shard` runs the
  three recovery invariants over one shard's objects, and the global
  history (all shards, true execution order) is still checked for
  dynamic atomicity — crashes at shard granularity must not be able to
  hide a global anomaly.

Trace events emitted by a sharded system are stamped with the owning
``shard`` id (see :class:`ShardTrace`), so ``repro trace-report`` and
the EXP-C15 artifacts can attribute traffic and recovery work per
shard.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Set

from .durability import CrashableSystem, DurableObject


def shard_of(name: str, shards: int) -> int:
    """The shard owning object ``name`` under CRC-32 hash partitioning.

    Stable across processes and Python versions (unlike ``hash``, which
    is salted per process), so driver, workers and auditors agree on
    placement without coordination.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1 (got %d)" % shards)
    return zlib.crc32(name.encode("utf-8")) % shards


class ShardTrace:
    """A per-shard emit proxy: stamps every event with its shard id.

    Bound in place of the raw collector on a shard's objects and logs,
    so ``op-invoke``/``lock-wait``/``force``/``recovery`` events carry
    ``shard`` without the emit sites knowing about sharding at all.
    """

    __slots__ = ("_inner", "shard")

    def __init__(self, inner, shard: int) -> None:
        self._inner = inner
        self.shard = shard

    def emit(self, kind: str, **fields) -> None:
        fields.setdefault("shard", self.shard)
        self._inner.emit(kind, **fields)


class ShardedSystem(CrashableSystem):
    """A crashable system whose objects are hash-partitioned into shards.

    Execution semantics are *identical* to the flat
    :class:`CrashableSystem` over the same objects — routing adds
    metadata, not behavior — which is what makes the sharded-vs-flat
    differential audits in EXP-C15 byte-identical.  What sharding adds:

    * :meth:`crash_shard` — partial failure with per-shard recovery;
    * per-shard force accounting and trace stamping;
    * the placement function the open-loop driver uses to partition
      single-shard traffic across worker processes.
    """

    def __init__(self, objects: Sequence[DurableObject], *, shards: int = 1):
        super().__init__(objects)
        if shards < 1:
            raise ValueError("shards must be >= 1 (got %d)" % shards)
        self.shards = shards
        self._placement: Dict[str, int] = {
            name: shard_of(name, shards) for name in self.objects
        }
        #: per-shard crash counter (``crash_count`` still counts
        #: whole-system crashes, which touch every shard at once).
        self.shard_crashes: List[int] = [0] * shards

    # -- placement ---------------------------------------------------------------

    def shard_of_object(self, name: str) -> int:
        return self._placement[name]

    def shard_objects(self, shard: int) -> List[str]:
        """The object names owned by ``shard``, sorted."""
        return sorted(n for n, s in self._placement.items() if s == shard)

    def shards_touched(self, txn: str) -> Set[int]:
        """The shards a transaction has touched so far."""
        return {
            self._placement[name] for name in self._touched.get(txn, ())
        }

    # -- tracing -----------------------------------------------------------------

    def bind_trace(self, collector) -> None:
        """Bind a trace collector, stamping object/log events per shard.

        Called by :meth:`TraceCollector.bind_system` in place of its
        flat-system wiring.  System-level events (2PC phases, crashes)
        stay unstamped — they span shards.
        """
        self.trace = collector
        for name, obj in self.objects.items():
            proxy = ShardTrace(collector, self._placement[name])
            obj.trace = proxy
            log = getattr(getattr(obj, "wal", None), "log", None)
            if log is not None:
                log.trace = proxy
                log.trace_name = name

    # -- per-shard accounting ------------------------------------------------------

    def force_accounting_by_shard(self) -> List[Dict[str, int]]:
        """``(forces, force_requests, forced_records)`` per shard."""
        rows = [
            {"shard": k, "forces": 0, "force_requests": 0, "forced_records": 0}
            for k in range(self.shards)
        ]
        for name, obj in self.objects.items():
            log = getattr(getattr(obj, "wal", None), "log", None)
            if log is None:
                continue
            row = rows[self._placement[name]]
            row["forces"] += log.forces
            row["force_requests"] += log.force_requests
            row["forced_records"] += log.forced_records
        return rows

    # -- partial failure -----------------------------------------------------------

    def crash_shard(self, shard: int) -> Set[str]:
        """Crash one shard; the others keep their volatile state.

        The shard's protocol mirrors the whole-system crash, scoped to
        the shard's objects:

        1. mirror unreported object-local events into the global history;
        2. the shard's stable logs lose their volatile tails (held
           group-commit batches die unflushed);
        3. **in-doubt resolution** for every unfinished transaction that
           touched the shard: committed iff a commit record *survives*
           at any object it touched — durable on a crashed shard's
           stable log, or still held (volatile or durable) at a healthy
           shard, whose process is alive and makes the record durable
           during resolution.  Resolution completes, never retracts:
           resolved commits finish everywhere (healthy objects through
           the normal pipeline, forcing held batches; crashed objects
           through the recovery path).  Everything else is killed
           everywhere: crashed objects just record the abort event (no
           undo is possible), healthy objects perform a clean volatile
           abort.
        4. read-only snapshot transactions that read from the shard are
           killed (their snapshot registration is volatile); readers
           confined to healthy shards continue — version chains are
           never retracted, so their snapshots remain valid;
        5. the shard's objects lose volatile state and restart from
           their stable logs.

        Transactions that never touched the shard are untouched: their
        locks, intentions and commit pipelines keep running.  Returns
        the transactions killed by the crash.
        """
        if not 0 <= shard < self.shards:
            raise ValueError(
                "shard must be in 0..%d (got %d)" % (self.shards - 1, shard)
            )
        names = set(self.shard_objects(shard))
        self.shard_crashes[shard] += 1
        self._sync_events()
        # Commit pipelines that depend on the dead shard's logs cannot
        # proceed; drop them and resolve the transactions below.
        doomed = [
            txn
            for txn, pending in self._committing.items()
            if names.intersection(pending.touched)
        ]
        for txn in doomed:
            del self._committing[txn]
        for name in sorted(names):
            self.objects[name].wal.log.crash()
        candidates = [
            txn
            for txn, touched in self._touched.items()
            if txn not in self._finished and touched & names
        ]
        victims: Set[str] = set()
        # Read-only snapshot transactions die only if they actually read
        # from the crashed shard (their registration lives with the
        # system, but the observation is attributed to the shard that
        # served it).  Readers confined to healthy shards keep going:
        # version chains are never retracted, so their snapshot stays
        # valid even while the crashed shard recovers.
        ro_victims = [
            txn
            for txn, observed in self._ro_touched.items()
            if txn in self._ro_active and observed & names
        ]
        for txn in sorted(ro_victims):
            del self._ro_active[txn]
            self._finished[txn] = "aborted"
            victims.add(txn)
        resolved: List[str] = []
        for txn in sorted(candidates):
            touched = sorted(self._touched[txn])
            reached_commit_point = any(
                self.objects[name].wal.has_durable_commit(txn)
                for name in touched
            )
            if reached_commit_point:
                for name in touched:
                    if name in names:
                        self.objects[name].crash_commit(txn)
                    else:
                        self._complete_surviving_commit(name, txn)
                self._finished[txn] = "committed"
                resolved.append(txn)
                # Durable everywhere it touched: stamp the version under
                # a fresh CSN, as the normal completion would have.
                self._install_versions(txn, touched)
            else:
                for name in touched:
                    if name in names:
                        self.objects[name].crash_kill(txn)
                    else:
                        self.objects[name].abort(txn)
                self._finished[txn] = "aborted"
                victims.add(txn)
        self._sync_events()
        if self.trace is not None:
            self.trace.emit(
                "shard-crash",
                shard=shard,
                victims=sorted(victims),
                resolved=resolved,
            )
        for name in sorted(names):
            self.objects[name].crash_and_restart()
        return victims

    def _complete_surviving_commit(self, name: str, txn: str) -> None:
        """Finish an in-doubt commit at a healthy (non-crashed) object.

        The object's volatile state is intact, so the commit completes
        through the normal pipeline rather than the recovery path: make
        the commit record durable (forcing the log if a held batch was
        still parking it), then acknowledge — release locks, apply the
        recovery manager's completion, record the commit event.
        """
        obj = self.objects[name]
        if not obj.wal.has_durable_commit(txn):
            # Either the commit record is sitting in a held batch, or it
            # was never submitted; a force after (re)submission covers
            # both, and duplicate commit records are harmless to replay.
            obj.submit_commit(txn)
            if not obj.commit_ready(txn):
                obj.wal.log.force()
        obj.complete_commit(txn)
        self._sync_events(name)


def build_sharded_system(
    adt_kind: str,
    object_names: Sequence[str],
    *,
    shards: int = 1,
    recovery: str = "DU",
    group_commit: int = 1,
    hold: int = 4,
    log_factory=None,
) -> ShardedSystem:
    """A sharded system of ``adt_kind`` objects, one per name.

    Every object gets its own stable log (built by ``log_factory``, or a
    fresh :class:`~repro.runtime.wal.StableLog` under the group-commit
    policy); its conflict relation compiles to a bitmask table once,
    which restarts after a crash reuse.
    """
    from ..adts.registry import make_adt
    from .wal import GroupCommitPolicy, StableLog

    recovery = recovery.upper()
    policy = GroupCommitPolicy(group_commit, hold)
    if log_factory is None:
        def log_factory():  # noqa: F811 — default factory
            return StableLog(policy=policy)
    objects = []
    for name in object_names:
        adt = make_adt(adt_kind, name)
        conflict = (
            adt.nrbc_conflict() if recovery == "UIP" else adt.nfc_conflict()
        )
        objects.append(
            DurableObject(adt, conflict, recovery, log_factory=log_factory)
        )
    return ShardedSystem(objects, shards=shards)


def audit_shard(
    system: ShardedSystem,
    shard: int,
    *,
    label: str = "",
    schedule: str = "",
    check_atomicity: bool = True,
):
    """Run the torture harness's recovery audit over one shard's objects.

    Returns the harness's :class:`~repro.runtime.torture.Violation`
    list: restart-state equivalence for each of the shard's objects plus
    the durability accounting, and — because shard-level crashes must
    not hide global anomalies — dynamic atomicity of the *global*
    history.  When auditing every shard of one system in turn, pass
    ``check_atomicity=False`` for all but one call: the global check is
    identical each time and dominates the cost.
    """
    # Lazy: torture imports the runtime stack; this module is below it.
    from .torture import audit_recovery

    return audit_recovery(
        system,
        _AuditLabel(label or "shard%d" % shard),
        schedule,
        names=system.shard_objects(shard),
        check_atomicity=check_atomicity,
    )


class _AuditLabel:
    """Minimal stand-in for TortureConfig where only ``label()`` is read."""

    __slots__ = ("_label",)

    def __init__(self, label: str) -> None:
        self._label = label

    def label(self) -> str:
        return self._label
