"""Durable objects and crash schedules: the one builder and the site schedule.

An object is crashable when it holds a stable log: a
:class:`~repro.runtime.system.ManagedObject` built with ``log=`` writes
its operations, prepares, commits and aborts to that log under the
discipline its recovery method implies (:mod:`repro.runtime.wal`), so it
can be *crashed* (volatile state and lock tables lost, in-flight
transactions killed) and *restarted* from stable storage.
:func:`build_durable_object` is the one place the runtime builds one,
with the paper's recovery/conflict pairing (:func:`recovery_conflict`).

Crashing is an operation of the one
:class:`~repro.runtime.system.TransactionSystem` — ``crash()`` for the
whole system, ``crash_shard`` / ``fail_site`` for one failure domain —
and the scheduler's fault calendar
(:class:`~repro.runtime.scheduler.FaultCalendar`) fires them over a run;
this module holds the site-crash schedule (:class:`SiteCrash`,
:func:`validate_site_crashes`) and its calendar entries
(:func:`site_faults`).

The central invariant, tested across ADTs, crash points and logging
policies: *restart reproduces the abstract view of the post-crash
history* —

    restart() == states_after(View(H_post_crash, fresh_txn))

where ``H_post_crash`` is the pre-crash history with every in-flight
transaction aborted.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from ..adts.base import ADT
from ..core.conflict import ConflictRelation
from .scheduler import FAIL_SITE, RECOVER_SITE, Fault
from .system import ManagedObject
from .wal import GroupCommitPolicy


def recovery_conflict(adt: ADT, recovery: str) -> ConflictRelation:
    """The paper's pairing: update-in-place recovery needs
    ``Conflict ⊇ NRBC`` (Theorem 9), deferred-update needs
    ``Conflict ⊇ NFC`` (Theorem 10).  Every runtime object takes its
    conflict relation from here."""
    return adt.nrbc_conflict() if recovery.upper() == "UIP" else adt.nfc_conflict()


def build_durable_object(
    adt_kind: str,
    name: Optional[str],
    recovery: str,
    group_commit: int,
    hold: int,
    make_log,
    **durable_options,
) -> ManagedObject:
    """One logged :class:`~repro.runtime.system.ManagedObject` of
    ``adt_kind`` (``name=None`` takes the kind's default name) under the
    recovery method's required conflict relation, on its own stable log
    ``make_log(policy=...)`` with the ``(group_commit, hold)``
    group-commit policy — :class:`~repro.runtime.wal.StableLog` itself,
    or a partial :class:`~repro.runtime.faults.FaultyStableLog`.

    ``durable_options`` are the object's other keyword arguments
    (``restart_policy=``).
    """
    from ..adts.registry import make_adt

    adt = make_adt(adt_kind, name)
    recovery = recovery.upper()
    return ManagedObject(
        adt,
        conflict=recovery_conflict(adt, recovery),
        recovery=recovery,
        log=make_log(policy=GroupCommitPolicy(group_commit, hold)),
        **durable_options,
    )


class SiteCrash(NamedTuple):
    """Fail one site at a tick, recover it at a later tick (0 = leave it
    down until the end-of-run recovery).  A plain ``(site, fail_tick,
    recover_tick)`` triple is accepted wherever a row is."""

    site: int
    fail_tick: int
    recover_tick: int = 0

    def describe(self) -> str:
        if self.recover_tick:
            return "site%d@%d-%d" % (self.site, self.fail_tick, self.recover_tick)
        return "site%d@%d-end" % (self.site, self.fail_tick)


def validate_site_crashes(rows, sites: int) -> Tuple[SiteCrash, ...]:
    """The site-crash schedule ``rows`` as :class:`SiteCrash` rows, or
    ``ValueError``: every site must exist, fail at tick >= 1 and recover
    (if ever) strictly later, and one site's down-windows must not
    overlap — a second failure of a site that is already down would be
    silently skipped."""
    crashes = tuple(SiteCrash(*row) for row in rows)
    for crash in crashes:
        if not 0 <= crash.site < sites:
            raise ValueError(
                "site-crash %s: site out of range 0..%d"
                % (crash.describe(), sites - 1)
            )
        if crash.fail_tick < 1:
            raise ValueError(
                "site-crash %s: fail tick must be >= 1" % crash.describe()
            )
        if crash.recover_tick and crash.recover_tick <= crash.fail_tick:
            raise ValueError(
                "site-crash %s: recovery tick must be after the fail tick "
                "(0 keeps the site down)" % crash.describe()
            )
    by_fail_tick = sorted(crashes, key=lambda c: (c.site, c.fail_tick))
    for earlier, later in zip(by_fail_tick, by_fail_tick[1:]):
        if earlier.site == later.site and (
            not earlier.recover_tick or later.fail_tick <= earlier.recover_tick
        ):
            raise ValueError(
                "site-crash %s overlaps %s: the site is still down"
                % (later.describe(), earlier.describe())
            )
    return crashes


def site_faults(rows) -> List[Fault]:
    """The fault calendar entries of the site-crash schedule ``rows``:
    each row's failure, then its recovery (none for a 0 recovery tick),
    in row order."""
    faults = []
    for site, fail_tick, recover_tick in (SiteCrash(*row) for row in rows):
        faults.append(Fault(FAIL_SITE, fail_tick, domain=site))
        if recover_tick:
            faults.append(Fault(RECOVER_SITE, recover_tick, domain=site))
    return faults
