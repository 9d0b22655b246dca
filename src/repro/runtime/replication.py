"""Multi-site replication with site failure and recovery.

The paper analyzes how recovery constrains concurrency *inside one
node*; this module lifts :class:`~repro.runtime.system.TransactionSystem`
to **N sites** holding replicated ADT objects, so site failure and
recovery interact with the existing WAL / 2PC / group-commit machinery.
The protocol is RepCRec-style **available copies** (SNIPPETS.md
Snippet 3), adapted from read/write registers to the paper's abstract
data types:

* Every logical object has one full copy per site, and every copy is an
  ordinary logged :class:`~repro.runtime.system.ManagedObject` — its own
  stable log with group commit, its own lock manager sharing the
  compiled conflict tables, its own recovery manager.  Site 0's copy
  keeps the logical name, so a one-site replicated system is *the same
  objects* as the flat system (see the byte-identity note below).
* **Writes go to every available copy, reads to one.**  A mutator
  invocation computes its response at the lowest read-qualified
  available copy (all in-service copies are in lockstep, see below) and
  is chosen only if it is lock-free at *every* available copy (the
  ``extra_blockers`` hook on
  :meth:`~repro.runtime.system.ManagedObject.try_operation`); it is
  then mirrored — same operation, same response — to the remaining
  copies, acquiring locks everywhere it lands.  Observer invocations
  acquire locks at a single read-qualified copy.
* **Cross-site 2PC needs no new protocol**: the durable-prepare /
  commit-record pipeline from PRs 1-2 already runs per object, so a
  transaction spanning sites simply prepares and forces on each site's
  own logs.  The commit point is a durable commit record at any touched
  copy, exactly as before.
* **Site failure** (:meth:`ReplicatedSystem.fail_site`) is the
  ``crash_shard`` protocol generalized across sites — each site is one
  failure domain of the system's ``domain_of`` map: the site's logs
  lose their volatile tails, and every unfinished transaction that
  touched the site is resolved by the *surviving-commit-record* rule —
  committed iff a commit record survives at any touched copy (durable
  on the dead site's log, or still held at a healthy site, which forces
  it durable during resolution); resolution completes, never retracts.
  Unlike a shard crash the site then stays **down**: its copies leave
  the available set until :meth:`ReplicatedSystem.recover_site`.
* **Recovery rule** (the protocol's heart): a recovered replica serves
  *writes immediately, reads only after a committed write to that
  copy*.  On :meth:`~ReplicatedSystem.recover_site` each copy restarts
  from its own stable log and then **catches up**: the committed
  operations it missed while down are replayed through its normal
  durable path as a synthetic, immediately-committed sync transaction
  (the ADT generalization of "a write installs a current value" — an
  abstract state machine needs the full missed suffix, not one value).
  Catch-up waits for a per-object quiescent moment so the rejoining
  copy is in lockstep with the others — same committed base, and every
  subsequent active operation mirrored to it.  The copy then accepts
  writes, but serves **no read until a post-recovery write commits**:
  only that commit re-qualifies it (``copy-requalified`` trace event).
* **Read-only snapshot transactions** (PR 8) route each read to a
  read-qualified copy whose version chain covers the reader's snapshot
  CSN: a re-qualified copy's chain has a gap for the commits it missed
  while down, so it only serves snapshots at or above its
  re-qualification CSN.  If no copy of an object qualifies, the read
  reports ``stuck`` and the reader restarts on a fresh snapshot.
* If **every copy of an object is unavailable** (double failure), both
  reads and writes report ``blocked`` — the operation waits or is
  aborted cleanly by the scheduler's aging victim selection; nothing
  ever reads stale state.

**Byte-identity at one site.**  With ``sites=1`` there are no mirrors,
no re-qualification and no routing choice: ``invoke`` / ``commit`` /
``snapshot_read`` reduce to exactly the inherited code paths over the
same logged objects, so the event history *and* the
RunMetrics are byte-identical to the flat
:class:`~repro.runtime.system.TransactionSystem` — replication, like
sharding before it, adds metadata, not behavior, until a second site
exists.

**Auditing.**  Each copy is an ordinary object, so the torture
harness's three recovery invariants apply per copy unchanged.  For the
*global* story the system additionally maintains the **merged logical
history**: every client operation recorded once against its logical
object name (mirrors deduplicated, sync transactions excluded), with
commit/abort events in true execution order.  Dynamic atomicity of that
history is the cross-site correctness claim — a stale read served by a
badly re-qualified copy shows up there as a serialization anomaly (the
``skip-catchup`` negative control in :mod:`repro.runtime.torture`
demonstrates the audit catches exactly that).  A system built with
``history=False`` keeps no merged history either, and
:meth:`ReplicatedSystem.logical_history` raises
:class:`~repro.core.history.HistoryNotKept`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.events import (
    Event,
    Invocation,
    Operation,
    abort as abort_event,
    commit as commit_event,
    invoke as invoke_event,
    respond as respond_event,
)
from ..core.history import History, HistoryNotKept
from .durability import build_durable_object
from .errors import UnknownObjectError
from .system import STUCK, ManagedObject, OperationOutcome, TransactionSystem
from .trace import DomainTrace
from .wal import StableLog


class ReplicationError(RuntimeError):
    """A replication-layer invariant was broken (lockstep divergence,
    bad site transition).  Torture converts these into violations."""


def copy_name(logical: str, site: int) -> str:
    """The name of ``logical``'s copy at ``site``.

    Site 0 keeps the logical name, so a one-site replicated system is
    structurally the flat system (byte-identity) and cross-layer tools
    (trace reports, audits) see familiar names in the common case.
    """
    return logical if site == 0 else "%s@s%d" % (logical, site)


class SiteTrace(DomainTrace):
    """The per-site emit proxy: stamps every event with ``site``."""

    __slots__ = ()
    field = "site"
    # Defined here, not only inherited: the end-to-end benchmark's
    # ledger times this class's own ``emit``.
    emit = DomainTrace.emit


class ReplicatedSystem(TransactionSystem):
    """A transaction system whose objects are replicated across N sites:
    each site is one failure domain (``domain_of``)."""

    domain_trace = SiteTrace

    def __init__(
        self,
        logical_objects: Sequence[Sequence[ManagedObject]],
        *,
        sites: int = 1,
        history: bool = True,
    ):
        """``logical_objects`` is one sequence of copies per logical
        object, ``sites`` copies each, site order; copy *i* must be
        named ``copy_name(logical, i)`` (use
        :func:`build_replicated_system`).  ``history`` is
        :class:`~repro.runtime.system.TransactionSystem`'s, and covers
        the merged logical history too."""
        if sites < 1:
            raise ValueError("sites must be >= 1 (got %d)" % sites)
        flat: List[ManagedObject] = []
        self._logical: Dict[str, Tuple[str, ...]] = {}
        domain_of: Dict[str, int] = {}
        self._copy_logical: Dict[str, str] = {}
        for copies in logical_objects:
            if len(copies) != sites:
                raise ValueError(
                    "expected %d copies, got %d" % (sites, len(copies))
                )
            logical = copies[0].name
            names = []
            for site, obj in enumerate(copies):
                expected = copy_name(logical, site)
                if obj.name != expected:
                    raise ValueError(
                        "copy %d of %r must be named %r (got %r)"
                        % (site, logical, expected, obj.name)
                    )
                names.append(obj.name)
                domain_of[obj.name] = site
                self._copy_logical[obj.name] = logical
                flat.append(obj)
            self._logical[logical] = tuple(names)
        super().__init__(flat, history=history)
        self.sites = sites
        self.domain_of = domain_of
        self.domain_failures = [0] * sites
        self._site_up: List[bool] = [True] * sites
        #: per-site count of copies re-qualified for reads.
        self.requalifications: List[int] = [0] * sites
        #: copies in service and in lockstep (receive every write).
        self._current: Set[str] = set(self.objects)
        #: copies allowed to serve reads (current and re-qualified).
        self._qualified: Set[str] = set(self.objects)
        #: recovered copies awaiting their catch-up replay.
        self._pending_catchup: Set[str] = set()
        #: CSN from which a copy's version chain is gap-free (serves
        #: snapshot reads at or above it); 0 for never-failed copies.
        self._qualified_since: Dict[str, int] = dict.fromkeys(self.objects, 0)
        #: committed mutator operations per logical object, commit order
        #: — the replay source for catch-up.
        self._committed_ops: Dict[str, List[Operation]] = {
            name: [] for name in self._logical
        }
        #: per copy: length of the committed-op prefix reflected in its
        #: durably committed state.
        self._applied_upto: Dict[str, int] = dict.fromkeys(self.objects, 0)
        #: active transactions' executed mutators per logical object.
        self._txn_ops: Dict[str, Dict[str, List[Operation]]] = {}
        #: logical objects each active transaction touched (for the
        #: merged logical history's commit/abort events; empty while no
        #: history is kept).
        self._txn_logical: Dict[str, Set[str]] = {}
        #: unqualified copies each active transaction wrote: its commit
        #: re-qualifies them.
        self._txn_writes: Dict[str, Set[str]] = {}
        #: the merged logical history: one event stream over logical
        #: names, mirrors deduplicated, sync transactions excluded;
        #: ``None`` under ``history=False``.
        self._logical_events: Optional[List[Event]] = [] if history else None
        #: observer invocations per logical object (route read-one).
        self._observers: Dict[str, frozenset] = {
            name: frozenset(self.objects[name].adt.readonly_invocations())
            for name in self._logical
        }
        #: routing pins: a blocked invocation leaves a *pending* record
        #: at the copy that computed it, and the base object insists the
        #: retry presents the same invocation there — so while an
        #: operation is pending, ``(txn, logical)`` is pinned to that
        #: copy even if re-qualification would now route elsewhere.
        self._pinned: Dict[Tuple[str, str], str] = {}
        #: moves whenever ``_current`` / ``_qualified`` /
        #: ``_pending_catchup`` do — the routing state an ``invoke``
        #: reads besides the copies themselves (see :meth:`epoch`).
        self._membership_epoch = 0
        self._sync_seq = 0
        #: torture negative control: re-qualify recovered copies without
        #: replaying the committed operations they missed.
        self._skip_catchup_bug = False

    # -- introspection -----------------------------------------------------------

    def copies_of(self, logical: str) -> Tuple[str, ...]:
        return self._logical[logical]

    def logical_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._logical))

    def site_up(self, site: int) -> bool:
        return self._site_up[site]

    def is_qualified(self, name: str) -> bool:
        """May this copy serve (locked or snapshot) reads right now?"""
        return name in self._qualified

    def is_current(self, name: str) -> bool:
        """Is this copy in service (in lockstep, receiving writes)?"""
        return name in self._current

    def logical_history(self) -> History:
        """The merged multi-site history over *logical* object names:
        each client operation once, commit/abort events in true
        execution order, sync transactions excluded.  This is the
        history the global dynamic-atomicity audit checks.
        :class:`~repro.core.history.HistoryNotKept` under
        ``history=False``."""
        if self._logical_events is None:
            raise HistoryNotKept("this system was built with history=False")
        return History(self._logical_events, validate=False)

    def logical_specs(self) -> Dict[str, object]:
        """Logical name -> ADT spec, for the global audit."""
        return {name: self.objects[name].adt for name in self._logical}

    # -- operation routing ---------------------------------------------------------

    def epoch(self, obj_name: str) -> int:
        """A refused invocation on a logical object depends on *every*
        copy of it — the authority's view and locks, the peers' locks
        through ``extra_blockers``, their holders through catch-up
        admission — and on which copies are in service and read-qualified:
        the copies' epochs plus the membership counter, all monotone, so
        the sum moves exactly when any of them does."""
        objects = self.objects
        return self._membership_epoch + sum(
            objects[c].epoch for c in self._logical[obj_name]
        )

    def invoke(
        self,
        txn: str,
        obj_name: str,
        invocation: Invocation,
        rng: Optional[random.Random] = None,
    ) -> OperationOutcome:
        """Attempt one operation on a *logical* object.

        Observers are routed to one read-qualified copy; mutators are
        chosen at the response authority (the lowest read-qualified
        in-service copy, falling back to the lowest in-service copy when
        none is qualified yet), gated on being lock-free at every
        in-service copy, then mirrored to the rest.  With no in-service
        copy (or, for reads, no qualified copy) the outcome is
        ``blocked`` with no holders — the scheduler waits and its aging
        victim selection eventually aborts the transaction cleanly.
        """
        self._require_active(txn)
        if obj_name not in self._logical:
            raise UnknownObjectError(obj_name)
        self._maybe_catchup(obj_name)
        copies = [c for c in self._logical[obj_name] if c in self._current]
        if not copies:
            return OperationOutcome("blocked")
        if invocation in self._observers[obj_name]:
            return self._invoke_read(txn, obj_name, copies, invocation, rng)
        return self._invoke_write(txn, obj_name, copies, invocation, rng)

    def _invoke_read(self, txn, logical, copies, invocation, rng):
        pinned = self._pinned.get((txn, logical))
        if pinned is not None and pinned in copies:
            target = pinned
        else:
            target = next((c for c in copies if c in self._qualified), None)
        if target is None:
            # Every surviving copy is freshly recovered and awaiting its
            # re-qualifying committed write: reads must wait, never
            # observe a copy the protocol calls stale.
            return OperationOutcome("blocked")
        self._touched.setdefault(txn, set()).add(target)
        outcome = self.objects[target].try_operation(txn, invocation, rng)
        if outcome.ok:
            self._pinned.pop((txn, logical), None)
            self._record_logical(txn, logical, outcome.operation)
        else:
            self._pinned[(txn, logical)] = target
        return outcome

    def _invoke_write(self, txn, logical, copies, invocation, rng):
        pinned = self._pinned.get((txn, logical))
        if pinned is not None and pinned in copies:
            authority = pinned
        else:
            authority = next(
                (c for c in copies if c in self._qualified), copies[0]
            )
        others = [c for c in copies if c != authority]
        self._touched.setdefault(txn, set()).add(authority)
        if others:
            peers = [self.objects[c] for c in others]

            def extra_blockers(t, operation):
                holders: Set[str] = set()
                for peer in peers:
                    holders.update(peer.locks.blockers(t, operation))
                return holders

            outcome = self.objects[authority].try_operation(
                txn, invocation, rng, extra_blockers=extra_blockers
            )
        else:
            outcome = self.objects[authority].try_operation(txn, invocation, rng)
        if not outcome.ok:
            self._pinned[(txn, logical)] = authority
            return outcome
        self._pinned.pop((txn, logical), None)
        for c in others:
            # A lockstep copy, and the response was checked lock-free
            # there: the forced choice must succeed.
            self._force_response(c, txn, outcome.operation, "mirror")
            self._touched[txn].add(c)
        self._record_logical(txn, logical, outcome.operation)
        self._txn_ops.setdefault(txn, {}).setdefault(logical, []).append(
            outcome.operation
        )
        unqualified = [c for c in copies if c not in self._qualified]
        if unqualified:
            self._txn_writes.setdefault(txn, set()).update(unqualified)
        return outcome

    def _record_logical(self, txn: str, logical: str, operation: Operation):
        events = self._logical_events
        if events is None:
            return
        self._txn_logical.setdefault(txn, set()).add(logical)
        events.append(invoke_event(operation.invocation, logical, txn))
        events.append(respond_event(operation.response, logical, txn))

    def _force_response(
        self, name: str, txn: str, operation: Operation, what: str
    ) -> None:
        """Run ``operation``'s invocation at copy ``name`` with its
        response forced; :class:`ReplicationError` (naming ``what``) if
        the copy does not enable exactly that response."""
        obj = self.objects[name]
        want = operation.response
        previous = obj._response_chooser

        def chooser(free):
            for response, op in free:
                if response == want:
                    return response, op
            raise ReplicationError(
                "%s of %s=%r not enabled at %s: copies diverged"
                % (what, operation.invocation, want, name)
            )

        obj._response_chooser = chooser
        try:
            outcome = obj.try_operation(txn, operation.invocation)
        finally:
            obj._response_chooser = previous
        if not outcome.ok:
            raise ReplicationError(
                "%s of %s=%r %s at %s: copies diverged"
                % (what, operation.invocation, want, outcome.status, name)
            )

    # -- commit / abort bookkeeping -------------------------------------------------

    def _install_versions(self, txn: str, names: Sequence[str]) -> int:
        """Hooked at every durable-commit site (normal completion, crash
        resolution, site-crash resolution): append the transaction's
        mutators to the committed-op log, advance per-copy applied
        prefixes, re-qualify the recovered copies it wrote, and record
        the logical commit events."""
        csn = super()._install_versions(txn, names)
        touched = self._touched.get(txn, set())
        for logical, ops in self._txn_ops.pop(txn, {}).items():
            log = self._committed_ops[logical]
            log.extend(ops)
            for copy in self._logical[logical]:
                # A copy in the touched set executed *every* one of the
                # transaction's ops on this object (catch-up only admits
                # copies at quiescent moments, so no partial overlap).
                if copy in touched:
                    self._applied_upto[copy] = len(log)
        for copy in sorted(self._txn_writes.pop(txn, ())):
            if copy in self._current and copy not in self._qualified:
                self._qualified.add(copy)
                self._membership_epoch += 1
                self._qualified_since[copy] = csn
                site = self.domain_of[copy]
                self.requalifications[site] += 1
                if self.trace is not None:
                    self.trace.emit(
                        "copy-requalified", self._copy_logical[copy], site, csn
                    )
        for logical in sorted(self._txn_logical.pop(txn, ())):
            self._logical_events.append(commit_event(logical, txn))
        return csn

    def _drop_txn(self, txn: str) -> None:
        """Forget an aborted/killed transaction's replication bookkeeping
        and record its logical abort events."""
        self._txn_ops.pop(txn, None)
        self._txn_writes.pop(txn, None)
        for key in [k for k in self._pinned if k[0] == txn]:
            del self._pinned[key]
        for logical in sorted(self._txn_logical.pop(txn, ())):
            self._logical_events.append(abort_event(logical, txn))

    def abort(self, txn: str) -> None:
        readonly = txn in self._ro_active
        super().abort(txn)
        if not readonly:
            self._drop_txn(txn)

    # -- site failure ----------------------------------------------------------------

    def fail_site(self, site: int) -> Set[str]:
        """Crash one site and keep it down until :meth:`recover_site`.

        :meth:`~repro.runtime.system.TransactionSystem._resolve_failure`
        scoped to the site's copies: their stable logs lose their
        volatile tails (held group-commit batches die unflushed), every
        unfinished transaction that touched the site is resolved by the
        surviving-commit-record rule — completed everywhere (healthy
        copies force their records durable) or killed everywhere — and
        read-only snapshot readers that observed the site die with
        their registrations.  Unlike a shard crash the copies are not
        restarted: they leave the available set and restart from their
        logs at recovery time (a copy with no log is refused first,
        ``ValueError``).  Returns the transactions killed.
        """
        if not 0 <= site < self.sites:
            raise ValueError(
                "site must be in 0..%d (got %d)" % (self.sites - 1, site)
            )
        if not self._site_up[site]:
            raise ReplicationError("site %d is already down" % site)
        failed = self.domain_objects(site)
        self._require_logs(failed)
        self._site_up[site] = False
        self._membership_epoch += 1
        self.domain_failures[site] += 1
        self._current.difference_update(failed)
        self._qualified.difference_update(failed)
        self._pending_catchup.difference_update(failed)
        return self._resolve_failure(failed, "site-failure", site)

    # -- site recovery ---------------------------------------------------------------

    def recover_site(self, site: int) -> None:
        """Bring a failed site back.  Each copy restarts from its own
        stable log and is scheduled for catch-up; once caught up it
        serves writes immediately, reads only after a committed write
        re-qualifies it."""
        if not 0 <= site < self.sites:
            raise ValueError(
                "site must be in 0..%d (got %d)" % (self.sites - 1, site)
            )
        if self._site_up[site]:
            raise ReplicationError("site %d is already up" % site)
        self._site_up[site] = True
        self._membership_epoch += 1
        names = self.domain_objects(site)
        for name in names:
            self.objects[name].crash_and_restart()
            self._pending_catchup.add(name)
        if self.trace is not None:
            self.trace.emit("site-recovery", site, names)
        for logical in sorted(self._logical):
            self._maybe_catchup(logical)

    def poll_catchup(self) -> None:
        """Attempt catch-up admission for every recovered copy still
        awaiting replay.  Catch-up normally piggybacks on the next
        client operation against the object; a driver whose workload
        drains right after a recovery calls this at the quiescent end
        of the run so admission does not depend on further traffic."""
        for logical in sorted(self._logical):
            self._maybe_catchup(logical)

    def _maybe_catchup(self, logical: str) -> None:
        """Admit recovered copies of ``logical`` at a quiescent moment.

        A copy can only rejoin the lockstep set while no transaction
        holds locks at any in-service copy of the object: admitted
        mid-transaction it would hold a partial suffix of that
        transaction's operations and diverge.  The missed committed
        suffix is replayed through the copy's normal durable path as a
        synthetic sync transaction, so a crash after catch-up restarts
        into the caught-up state."""
        pending = [
            c for c in self._logical[logical] if c in self._pending_catchup
        ]
        if not pending:
            return
        current = [c for c in self._logical[logical] if c in self._current]
        if any(self.objects[c].locks.holders() for c in current):
            return
        log = self._committed_ops[logical]
        for name in pending:
            missed = log[self._applied_upto[name]:]
            if missed and not self._skip_catchup_bug:
                self._replay_catchup(name, missed)
            self._applied_upto[name] = len(log)
            self._pending_catchup.discard(name)
            self._current.add(name)
            self._membership_epoch += 1
            # Not read-qualified: the protocol requires a *client* write
            # to commit at this copy before it serves reads again.

    def _replay_catchup(self, name: str, missed: Sequence[Operation]) -> None:
        obj = self.objects[name]
        self._sync_seq += 1
        txn = "sync.%s.%d" % (name, self._sync_seq)
        for operation in missed:
            self._force_response(name, txn, operation, "catch-up replay")
        # Durable commit (forces the log if the batch is held): restart
        # after catch-up must not lose the replay.
        obj.commit(txn)
        self._finished[txn] = "committed"

    def checkpoint(self, names: Optional[Sequence[str]] = None) -> None:
        """Skips the copies of a down site: it runs nothing."""
        names = self.objects if names is None else names
        super().checkpoint([n for n in names if self._site_up[self.domain_of[n]]])

    # -- whole-system crash ----------------------------------------------------------

    def crash(self) -> Set[str]:
        """Whole-system crash.  Requires every site up (recover failed
        sites first): the inherited protocol restarts every object, and
        restarting a copy that is administratively *down* would smuggle
        it back into service without its catch-up."""
        if not all(self._site_up):
            raise ReplicationError(
                "recover all sites before a whole-system crash (down: %s)"
                % [k for k, up in enumerate(self._site_up) if not up]
            )
        return super().crash()

    # -- read-only snapshot routing --------------------------------------------------

    def snapshot_read(
        self, txn: str, obj_name: str, invocation: Invocation
    ) -> OperationOutcome:
        """One lock-free read against the reader's snapshot, routed to a
        read-qualified copy whose version chain covers the snapshot CSN.

        A re-qualified copy's chain has a gap for the commits it missed
        while down, so it serves only snapshots at or above its
        re-qualification CSN.  With no eligible copy the read reports
        ``stuck`` — the reader restarts and takes a fresh snapshot,
        which any re-qualified copy can serve."""
        self._require_active(txn)
        if obj_name not in self._logical:
            raise UnknownObjectError(obj_name)
        csn = self.begin_readonly(txn)
        target = next(
            (
                c
                for c in self._logical[obj_name]
                if c in self._qualified and self._qualified_since[c] <= csn
            ),
            None,
        )
        if target is None:
            return STUCK
        obj = self.objects[target]
        operation = obj.read_at(csn, invocation)
        if operation is None:
            return STUCK
        self._observe(txn, target, operation)
        if self.trace is not None:
            self.trace.emit("snapshot-read", txn, target, invocation, csn)
        return OperationOutcome("ok", operation=operation)


def build_replicated_system(
    adt_kind: str,
    object_names: Sequence[str],
    *,
    sites: int = 1,
    recovery: str = "DU",
    group_commit: int = 1,
    hold: int = 4,
    history: bool = True,
    **durable_options,
) -> ReplicatedSystem:
    """A replicated system of ``adt_kind`` objects, ``sites`` copies each.

    Every copy gets its own fresh :class:`~repro.runtime.wal.StableLog`
    under the group-commit policy and ``durable_options``; its conflict
    relation is its table, which restarts after a crash reuse.
    ``history=False`` keeps no audit record (see :class:`ReplicatedSystem`).
    """
    return ReplicatedSystem(
        [
            [
                build_durable_object(
                    adt_kind,
                    copy_name(name, site),
                    recovery,
                    group_commit,
                    hold,
                    StableLog,
                    **durable_options,
                )
                for site in range(sites)
            ]
            for name in object_names
        ],
        sites=sites,
        history=history,
    )
