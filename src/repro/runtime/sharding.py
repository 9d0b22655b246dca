"""Sharding the simulated system by object.

The paper's argument is about how recovery constrains *concurrency*, and
until now the runtime could only demonstrate that constraint inside one
lock-manager/log/scheduler domain.  This module hash-partitions the
managed objects of a :class:`~repro.runtime.system.TransactionSystem`
into **shards**: each shard owns a disjoint subset of the objects, and
with them its own lock state (every object's
:class:`~repro.core.lock_manager.LockManager`, whose index reads the
relation's table), its own stable logs with group commit, and its
own recovery path.  Nothing global remains on the data path, so under
the open-loop driver's one scheduler (:mod:`repro.runtime.openloop`)
the shard count moves no counter (EXP-C15): the NFC/NRBC conflict
tables, not the placement, decide what executes.

Design notes:

* **Routing** is a pure function: :func:`shard_of` maps an object name
  to a shard by CRC-32, so every process — driver, auditor — computes
  the same placement with no shared map to synchronize.
* **Cross-shard transactions** need no new commit protocol: the
  durable-prepare / commit-record two-phase pipeline from PRs 1-2
  already runs *per object*, and objects in different shards simply
  vote and force on their own shard's logs.  The commit point is a
  durable commit record at any touched object, same as before.
* **Partial failure** is the new capability: :meth:`ShardedSystem.crash_shard`
  crashes one shard — one failure domain of the system's ``domain_of``
  map — while the others keep running.  In-doubt
  transactions touching the dead shard are resolved by the commit-point
  rule — completed at every shard (healthy ones finish the commit
  normally, the crashed one completes at recovery), or killed
  everywhere (healthy shards perform a clean volatile abort, the
  crashed shard simply loses them).
* **Audit** stays the torture harness's:
  :func:`~repro.runtime.torture.audit_recovery` with
  ``names=system.domain_objects(shard)`` runs the three recovery
  invariants over one shard's objects, and the global history (all
  shards, true execution order) is still checked for dynamic atomicity —
  crashes at shard granularity must not be able to hide a global anomaly.

Trace events emitted by a sharded system are stamped with the owning
``shard`` id (see :class:`ShardTrace`), so ``repro trace-report`` and
the EXP-C15 artifacts can attribute traffic and recovery work per
shard.
"""

from __future__ import annotations

import zlib
from typing import Sequence, Set

from .durability import build_durable_object
from .system import ManagedObject, TransactionSystem
from .trace import DomainTrace
from .wal import StableLog


def shard_of(name: str, shards: int) -> int:
    """The shard owning object ``name`` under CRC-32 hash partitioning.

    Stable across processes and Python versions (unlike ``hash``, which
    is salted per process), so drivers and auditors agree on placement
    without coordination.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1 (got %d)" % shards)
    return zlib.crc32(name.encode("utf-8")) % shards


class ShardTrace(DomainTrace):
    """The per-shard emit proxy: stamps every event with ``shard``."""

    __slots__ = ()
    field = "shard"
    # Defined here, not only inherited: the end-to-end benchmark's
    # ledger times this class's own ``emit``.
    emit = DomainTrace.emit


class ShardedSystem(TransactionSystem):
    """A transaction system whose objects are hash-partitioned into
    shards: each shard is one failure domain (``domain_of``).

    Execution semantics are *identical* to the flat
    :class:`~repro.runtime.system.TransactionSystem` over the same
    objects — routing adds metadata, not behavior — which is what makes
    the sharded-vs-flat differential audits in EXP-C15 byte-identical.
    What sharding adds: :meth:`crash_shard` (partial failure with
    per-shard recovery), and through the domain map per-shard force
    accounting and ``shard``-stamped trace events.
    """

    domain_trace = ShardTrace

    def __init__(self, objects: Sequence[ManagedObject], *, shards: int = 1):
        super().__init__(objects)
        if shards < 1:
            raise ValueError("shards must be >= 1 (got %d)" % shards)
        self.shards = shards
        self.domain_of = {name: shard_of(name, shards) for name in self.objects}
        self.domain_failures = [0] * shards

    # Defined here, not only inherited: the end-to-end benchmark's
    # ledger times this class's own ``bind_trace``.
    bind_trace = TransactionSystem.bind_trace
    # Defined here, not only inherited: the end-to-end benchmark's
    # ledger times this class's own ``force_accounting_by_shard``.
    force_accounting_by_shard = TransactionSystem.force_accounting_by_domain

    # -- partial failure -----------------------------------------------------------

    def crash_shard(self, shard: int) -> Set[str]:
        """Crash one shard; the others keep their volatile state.

        :meth:`~repro.runtime.system.TransactionSystem._resolve_failure`
        scoped to the shard's objects: in-doubt transactions touching
        the shard are completed everywhere (healthy shards finish the
        commit normally, forcing held batches) or killed everywhere
        (healthy shards abort cleanly), read-only readers that read from
        the shard die, and the shard's objects then lose volatile state
        and restart from their stable logs.

        Transactions that never touched the shard are untouched: their
        locks, intentions and commit pipelines keep running.  Returns
        the transactions killed by the crash.
        """
        if not 0 <= shard < self.shards:
            raise ValueError(
                "shard must be in 0..%d (got %d)" % (self.shards - 1, shard)
            )
        failed = self.domain_objects(shard)
        victims = self._resolve_failure(failed, "shard-crash", shard)
        self.domain_failures[shard] += 1
        for name in failed:
            self.objects[name].crash_and_restart()
        return victims


def build_sharded_system(
    adt_kind: str,
    object_names: Sequence[str],
    *,
    shards: int = 1,
    recovery: str = "DU",
    group_commit: int = 1,
    hold: int = 4,
) -> ShardedSystem:
    """A sharded system of ``adt_kind`` objects, one per name.

    Every object gets its own fresh :class:`~repro.runtime.wal.StableLog`
    under the group-commit policy; its conflict relation is its table,
    which restarts after a crash reuse.
    """
    return ShardedSystem(
        [
            build_durable_object(
                adt_kind, name, recovery, group_commit, hold, StableLog
            )
            for name in object_names
        ],
        shards=shards,
    )
