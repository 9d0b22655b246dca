"""Deterministic fault injection for the stable-log layer.

The WAL tests in :mod:`tests.runtime` crash the system at a handful of
hand-picked points.  This module makes crash placement *systematic*: a
seeded :class:`FaultPlan` names the exact stable-log interactions
(appends, forces, truncations — counted globally across every log of the
system under test) at which storage misbehaves, and
:class:`FaultyStableLog` is a drop-in :class:`~repro.runtime.wal.StableLog`
that executes the plan.

Fault vocabulary (``FaultEvent.kind``):

``crash-before-append`` / ``crash-after-append``
    The process dies at an append — before the record enters the log
    buffer, or just after (the record is in the *volatile tail* and will
    be lost with it).
``crash-during-force``
    The process dies mid-flush: a *prefix* of the buffered tail reaches
    stable storage (``keep`` records; drawn from the plan's RNG when
    unspecified), the rest is torn off.  Prefix-tearing models a real
    sequential log device; suffixes never survive ahead of their
    predecessors.
``crash-before-truncate``
    The process dies at a checkpoint's truncation step (the checkpoint
    record itself may or may not already be durable).
``io-error``
    A *transient* failure: the interaction fails ``burst`` consecutive
    times and then succeeds.  The log absorbs the burst with a bounded
    retry/backoff policy (:class:`RetryPolicy`); a burst exceeding the
    retry budget escalates to a crash, because a process that cannot
    write its log has no safe way to continue.

Unlike the base :class:`~repro.runtime.wal.StableLog` — where appends
are durable immediately and ``force()`` merely counts — the faulty log
models the classic volatile tail: appended records sit in a buffer that
only ``force()`` makes durable, and :meth:`FaultyStableLog.crash` drops
whatever is still buffered.  The write-ahead disciplines in
:mod:`repro.runtime.wal` force at every commit point (and, via the
two-phase protocol in :mod:`repro.runtime.durability`, at prepare), so
committed transactions survive any crash schedule — which is exactly
what the torture harness (:mod:`repro.runtime.torture`) verifies.

Every record ever appended keeps a *fate* (``"volatile"``, ``"durable"``
or ``"lost"``) in an archive that survives truncation; the torture
auditor reads it to prove committed transactions were never lost and
aborted effects never resurfaced.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import RuntimeModelError
from .metrics import FaultCounters
from .wal import GroupCommitPolicy, LogRecord, StableLog

#: Fault kinds that kill the process at the interaction.
CRASH_KINDS = (
    "crash-before-append",
    "crash-after-append",
    "crash-during-force",
    "crash-before-truncate",
)

#: All fault kinds a FaultEvent may carry.
FAULT_KINDS = CRASH_KINDS + ("io-error",)


class CrashPoint(Exception):
    """The simulated process died at a stable-log interaction.

    Deliberately *not* a :class:`RuntimeModelError`: a crash is not a
    model violation, and nothing in the runtime may catch it by
    accident.  Only the torture harness (or a test) catches it and runs
    the crash/recovery protocol.
    """

    def __init__(self, kind: str, interaction: int, op: str):
        super().__init__(
            "crash point: %s at interaction %d (%s)" % (kind, interaction, op)
        )
        self.kind = kind
        self.interaction = interaction
        self.op = op


class TransientLogIOError(RuntimeModelError):
    """An injected transient IO failure (absorbed by the retry policy)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient IO errors.

    Backoff is simulated (counted in ticks, never slept): attempt *i*
    costs ``backoff_base << i`` ticks, recorded in the fault counters.
    """

    max_retries: int = 3
    backoff_base: int = 1


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire at global log-interaction index ``at``."""

    at: int
    kind: str = "crash-after-append"
    #: for crash-during-force: how many buffered records survive the
    #: tear (prefix length); None → drawn from the plan's RNG.
    keep: Optional[int] = None
    #: for io-error: consecutive failures before the device recovers.
    burst: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                "unknown fault kind %r (choose from: %s)"
                % (self.kind, ", ".join(FAULT_KINDS))
            )
        if self.at < 0:
            raise ValueError("fault index must be >= 0")

    def describe(self) -> str:
        extra = ""
        if self.kind == "crash-during-force" and self.keep is not None:
            extra = " keep=%d" % self.keep
        if self.kind == "io-error":
            extra = " burst=%d" % self.burst
        return "@%d %s%s" % (self.at, self.kind, extra)


class FaultPlan:
    """A deterministic, seeded schedule of faults over log interactions.

    The plan keeps a global interaction clock: every append, force and
    truncate on any :class:`FaultyStableLog` sharing the plan advances
    it by one.  A fault fires when the clock reaches its index — at most
    once, so a restarted run continues past it.  Everything random
    (torn-force prefix lengths, sampled schedules) flows from explicit
    seeds, so a failing schedule is reproducible from ``(seed, events)``
    alone.
    """

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        *,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
    ):
        self.events = tuple(events)
        self._by_index: Dict[int, FaultEvent] = {}
        for event in self.events:
            if event.at in self._by_index:
                raise ValueError("two faults scheduled at interaction %d" % event.at)
            self._by_index[event.at] = event
        self.seed = seed
        self.retry = retry or RetryPolicy()
        self.clock = 0
        #: faults that actually fired, as (event, op) pairs.
        self.fired: List[Tuple[FaultEvent, str]] = []

    @functools.cached_property
    def rng(self) -> random.Random:
        """The plan's own RNG (torn-force prefixes), built on first use:
        most plans never draw, and a plan crosses to a pool worker
        without ~2.9 KB of Mersenne state."""
        return random.Random(self.seed)

    def draw(self, op: str) -> Optional[FaultEvent]:
        """Advance the interaction clock; return the fault due now, if any."""
        index = self.clock
        self.clock += 1
        event = self._by_index.get(index)
        if event is not None:
            self.fired.append((event, op))
        return event

    def describe(self) -> str:
        if not self.events:
            return "fault-free"
        return "seed=%d [%s]" % (
            self.seed,
            ", ".join(e.describe() for e in self.events),
        )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def crash_at(
        cls,
        index: int,
        kind: str = "crash-after-append",
        *,
        keep: Optional[int] = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """A single crash at one interaction index (enumeration building block)."""
        return cls((FaultEvent(index, kind, keep=keep),), seed=seed)

    @classmethod
    def sample(
        cls,
        rng: random.Random,
        horizon: int,
        *,
        max_faults: int = 2,
        io_error_weight: float = 0.25,
        retry: Optional[RetryPolicy] = None,
    ) -> "FaultPlan":
        """Draw a random schedule over ``horizon`` interactions.

        ``rng`` is consumed (so successive calls yield distinct plans);
        the plan itself is seeded from a fresh draw, keeping torn-force
        prefixes reproducible.
        """
        retry = retry or RetryPolicy()
        horizon = max(1, horizon)
        count = rng.randint(1, max(1, max_faults))
        indexes = rng.sample(range(horizon), min(count, horizon))
        events = []
        for at in sorted(indexes):
            if rng.random() < io_error_weight:
                # Mostly absorbable bursts; occasionally one that
                # exhausts the retry budget and escalates to a crash.
                burst = rng.randint(1, retry.max_retries + 1)
                events.append(FaultEvent(at, "io-error", burst=burst))
            else:
                events.append(FaultEvent(at, rng.choice(CRASH_KINDS)))
        return cls(events, seed=rng.randrange(2**31), retry=retry)


def enumerate_crash_plans(
    horizon: int, kinds: Iterable[str] = ("crash-before-append", "crash-after-append")
) -> List[FaultPlan]:
    """Every single-crash plan over ``horizon`` interactions × ``kinds``."""
    plans = []
    for at in range(horizon):
        for kind in kinds:
            plans.append(FaultPlan.crash_at(at, kind))
    return plans


class FaultyStableLog(StableLog):
    """A stable log with a volatile tail and plan-driven fault injection.

    Differences from the base class:

    * ``append`` buffers; only ``force`` moves the buffered tail to
      stable storage (the base log is durable-on-append).
    * every interaction consults the shared :class:`FaultPlan` and may
      raise :class:`CrashPoint` or absorb transient IO errors;
    * :meth:`crash` models the process death: the volatile tail is
      discarded and only durable records remain visible;
    * an archive records every appended record's fate for the auditor.

    ``skip_commit_force=True`` enables the **negative control**: the
    device acknowledges ``force()`` without flushing, silently breaking
    the write-ahead commit rule.  The torture harness must flag the
    resulting lost commits — proof that the auditor has teeth.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        counters: Optional[FaultCounters] = None,
        skip_commit_force: bool = False,
        policy: Optional[GroupCommitPolicy] = None,
    ):
        super().__init__(policy=policy)
        self.plan = plan
        self.counters = counters if counters is not None else FaultCounters()
        self.skip_commit_force = skip_commit_force
        self._fates: Dict[int, str] = {}  # lsn -> volatile | durable | lost
        self._archive: List[LogRecord] = []  # every record ever appended

    # -- fault machinery -------------------------------------------------------

    def _interact(self, op: str) -> Tuple[Optional[str], Optional[FaultEvent]]:
        """Advance the plan clock; absorb IO errors; return a crash action.

        Returns ``(action, event)`` where action is None (proceed) or
        one of ``"before"``, ``"after"``, ``"tear"`` — the crash
        placement relative to ``op``, normalized from the event kind
        (e.g. ``crash-during-force`` landing on an append interaction
        simply crashes after the append).
        """
        event = self.plan.draw(op)
        if event is None:
            return None, None
        if event.kind == "io-error":
            self._absorb_io_errors(event, op)
            return None, None
        self.counters.crashes += 1
        if op == "force":
            if event.kind == "crash-during-force":
                return "tear", event
            if event.kind.startswith("crash-before"):
                return "before", event
            return "after", event
        # append / truncate sites: collapse the force-specific kinds.
        if event.kind.startswith("crash-before"):
            return "before", event
        return ("after" if op == "append" else "before"), event

    def _absorb_io_errors(self, event: FaultEvent, op: str) -> None:
        """Run the bounded retry/backoff loop for a transient-error burst."""
        retry = self.plan.retry
        attempt = 0
        while attempt < event.burst:
            try:
                raise TransientLogIOError(
                    "injected IO error on %s (attempt %d)" % (op, attempt + 1)
                )
            except TransientLogIOError:
                self.counters.io_errors += 1
                if attempt >= retry.max_retries:
                    # Retry budget exhausted: the process cannot make its
                    # log durable and must die rather than limp on.
                    self.counters.crashes += 1
                    raise CrashPoint(
                        "io-error-exhausted", self.plan.clock - 1, op
                    ) from None
                self.counters.io_retries += 1
                self.counters.backoff_ticks += retry.backoff_base << attempt
                attempt += 1

    # -- log interface ---------------------------------------------------------

    def append(self, make_record) -> LogRecord:
        action, _event = self._interact("append")
        if action == "before":
            raise CrashPoint("crash-before-append", self.plan.clock - 1, "append")
        record = super().append(make_record)
        self._fates[record.lsn] = "volatile"
        self._archive.append(record)
        if action in ("after", "tear"):
            raise CrashPoint("crash-after-append", self.plan.clock - 1, "append")
        return record

    def _physical_force(self) -> None:
        """One device flush, with fault injection.

        A :class:`CrashPoint` raised here propagates *before* the
        caller's flush sequence number advances, so a torn or crashed
        flush satisfies no group-commit tickets: the commits riding the
        batch are never acknowledged, and the crash protocol resolves
        them from whichever records the tear actually persisted.
        """
        if self.skip_commit_force:
            # Negative control: no plan interaction, and _persist
            # covers nothing.
            return super()._physical_force()
        action, event = self._interact("force")
        if action == "before":
            raise CrashPoint("crash-during-force", self.plan.clock - 1, "force")
        if action == "tear":
            tail = len(self._records) - self._flushed
            keep = event.keep
            if keep is None:
                keep = self.plan.rng.randint(0, tail)
            keep = max(0, min(keep, tail))
            self._persist(self._flushed + keep)
            self.counters.torn_forces += 1
            # A torn flush persisted ``keep`` records but counts as no
            # completed force — a distinct event kind, so trace-derived
            # ``forced_records`` still reconciles.
            if self.trace is not None:
                self.trace.emit("force-torn", self.trace_name, keep)
            raise CrashPoint("crash-during-force", self.plan.clock - 1, "force")
        super()._physical_force()
        if action == "after":
            raise CrashPoint("crash-during-force", self.plan.clock - 1, "force")

    def _persist(self, upto: int) -> int:
        """Mark the newly covered records durable and move the cursor —
        or, under the negative control, cover nothing at all."""
        if self.skip_commit_force:
            return 0
        for record in self._records[self._flushed : upto]:
            self._fates[record.lsn] = "durable"
        return super()._persist(upto)

    def truncate_before(self, lsn: int) -> int:
        action, _event = self._interact("truncate")
        if action is not None:
            raise CrashPoint("crash-before-truncate", self.plan.clock - 1, "truncate")
        return super().truncate_before(lsn)

    # -- crash / recovery ------------------------------------------------------

    def crash(self) -> int:
        """Drop the volatile tail (the process died); returns records lost.

        A held group-commit batch is part of the volatile tail: its
        records were appended but never physically flushed, so they die
        here along with any pending force requests."""
        self._pending_forces = 0
        self.due = None
        lost = self._records[self._flushed :]
        for record in lost:
            self._fates[record.lsn] = "lost"
        self._records = self._records[: self._flushed]
        self.counters.records_lost += len(lost)
        if self.trace is not None:
            self.trace.emit("log-crash", self.trace_name, len(lost))
        return len(lost)

    def recovery_append(self, make_record) -> LogRecord:
        """Append durably during recovery (not plan-injectable: recovery
        runs in a fresh process whose writes the schedule does not cover)."""
        record = StableLog.append(self, make_record)
        self._fates[record.lsn] = "durable"
        self._archive.append(record)
        self._flushed = len(self._records)
        return record

    # -- audit surface ---------------------------------------------------------

    def archive(self) -> Tuple[Tuple[LogRecord, str], ...]:
        """Every record ever appended with its fate (survives truncation)."""
        return tuple((r, self._fates[r.lsn]) for r in self._archive)

    def durable_tail_length(self) -> int:
        return self._flushed
