"""Structured run tracing: typed, tick-stamped events from the runtime.

The EXP-C* experiments report end-of-run scalar counters
(:class:`~repro.runtime.metrics.RunMetrics`), which say *how much*
blocking and aborting a ``(Conflict, View)`` configuration produced but
not *where*: which conflict-table entries caused the blocked attempts,
which objects were hot, where a transaction's commit latency went.  The
trace layer records the event stream those counters summarize:

* a :class:`TraceCollector` is bound to a scheduler run (nullable hook:
  the untraced hot path pays one ``is None`` test per emit site);
* every emitter — the scheduler, the transaction system, managed
  objects, the stable logs, the crash protocol — appends plain-dict
  events stamped with the current scheduler tick;
* the stream exports as JSONL (one event per line) and reloads for
  offline analysis;
* derived reports turn the stream into per-transaction commit-latency
  histograms and per-conflict-entry contention profiles;
* :func:`reconcile` rebuilds every :class:`RunMetrics` counter from the
  stream and compares field-for-field — the trace doubles as a
  correctness cross-check on the scheduler's own accounting.

Event schema
------------

Every event is a flat JSON object with at least ``tick`` (int, the
scheduler tick current when the event was emitted; 0 before the first
tick) and ``kind`` (one of :data:`EVENT_SCHEMA`).  Additional required
fields per kind are listed in :data:`EVENT_SCHEMA`; emitters may add
informational fields, and consumers must ignore fields they do not
know (the schema is append-only: existing kinds and fields are stable,
new ones may appear in later versions — :data:`SCHEMA_VERSION` bumps
when they do).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import COUNTER_FIELDS

#: Bumped when event kinds or required fields are added.
SCHEMA_VERSION = 5

#: The latency percentiles every report emits (``trace-report`` and the
#: open-loop driver share this constant so trend-gate fields line up).
PERCENTILES = (0.50, 0.95, 0.99)

#: kind -> required fields beyond ``tick`` and ``kind``.  See the module
#: docstring for stability guarantees; docs/API.md documents semantics.
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    # scheduler: run lifecycle
    "run-start": ("label",),
    "run-end": ("label", "metrics"),
    "schedule-start": ("label", "plan"),
    # scheduler: operation attempts (one event per attempt)
    "op-ok": ("txn", "obj", "op"),
    "op-blocked": ("txn", "obj", "blockers"),
    "op-stuck": ("txn", "obj"),
    # managed object: invocation recording and contention attribution
    "op-invoke": ("txn", "obj", "invocation"),
    "lock-wait": ("txn", "obj", "pairs"),
    # scheduler: transaction outcomes
    "txn-commit": ("txn", "script", "born", "latency", "stall_ticks"),
    "commit-stall": ("txn",),
    "deadlock": ("victim", "cycle"),
    "txn-abort": ("txn", "reason"),
    "txn-restart": ("txn", "incarnation", "backoff_until"),
    # transaction system: 2PC phase transitions
    "2pc-prepare": ("txn", "objects"),
    "2pc-submit": ("txn",),
    "2pc-complete": ("txn",),
    # stable log: group-commit force engine
    "force-request": ("obj", "ticket"),
    "force": ("obj", "served", "records"),
    "force-torn": ("obj", "records"),
    # crash / recovery
    "crash": ("victims", "resolved"),
    "log-crash": ("obj", "lost"),
    "recovery": ("obj", "records"),
    # sharded runtime (schema v2): events from a sharded system's
    # objects and logs additionally carry a ``shard`` id field.
    "shard-crash": ("shard", "victims", "resolved"),
    # open-loop driver (schema v2)
    "drive-start": ("label", "shards", "arrival_rate"),
    "drive-end": ("label", "committed", "p50", "p95", "p99"),
    # multiversion read path (schema v3): read-only transactions read
    # committed versions without locks; they never appear in op-ok /
    # txn-commit streams, so they get their own kinds.
    "snapshot-read": ("txn", "obj", "op"),
    "ro-commit": ("txn", "script", "born", "latency"),
    "ro-abort": ("txn", "reason"),
    # replicated runtime (schema v4): events from a replicated system's
    # copies and logs additionally carry a ``site`` id field.  Site
    # crashes reconcile like shard crashes (their victims appear as
    # crash-reason txn-abort / ro-abort events); ``copy-requalified``
    # marks a recovered copy re-admitted to reads by a committed write.
    "site-failure": ("site", "victims", "resolved"),
    "site-recovery": ("site", "copies"),
    "copy-requalified": ("obj", "site", "csn"),
    # wake calendar (schema v5): one event per dead-tick stretch the
    # calendar proved empty.  ``elided`` is the stretch length; ``wake``
    # the tick processing resumed at (0: the stretch ran into the tick
    # budget and nothing ever woke).
    "calendar-wake": ("wake", "elided"),
}

#: ``txn-abort`` reasons with a defined meaning.
ABORT_REASONS = ("deadlock", "stuck", "crash", "validation")


class DomainTrace:
    """A per-failure-domain emit proxy: stamps every event with the
    domain id under the subclass's ``field`` (``shard`` / ``site``).

    Bound in place of the raw collector on a domain's objects and logs,
    so ``op-invoke``/``lock-wait``/``force``/``recovery`` events carry
    their domain without the emit sites knowing about placement at all.
    """

    __slots__ = ("_inner", "domain")
    field = ""

    def __init__(self, inner, domain: int) -> None:
        self._inner = inner
        self.domain = domain

    def emit(self, kind: str, **fields) -> None:
        fields.setdefault(self.field, self.domain)
        self._inner.emit(kind, **fields)


class TraceCollector:
    """Collects tick-stamped runtime events for one (or more) runs.

    Bound to a :class:`~repro.runtime.scheduler.Scheduler` via its
    ``trace=`` argument, which propagates the collector to the system,
    its managed objects and their stable logs.  Emitting is cheap
    (a dict append); *not* emitting is nearly free (each site guards
    with ``if trace is not None``).
    """

    __slots__ = ("events", "tick")

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self.tick = 0

    def begin_tick(self, tick: int) -> None:
        """Stamp subsequent events with ``tick`` (scheduler loop hook)."""
        self.tick = tick

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one event; payload values must be JSON-serializable."""
        fields["tick"] = self.tick
        fields["kind"] = kind
        self.events.append(fields)

    # -- binding ---------------------------------------------------------------

    def bind_system(self, system: Any) -> None:
        """Attach this collector to a transaction system's emit sites
        (:meth:`~repro.runtime.system.TransactionSystem.bind_trace`)."""
        system.bind_trace(self)

    # -- serialization ---------------------------------------------------------

    def dump_jsonl(self, path: str) -> int:
        """Write one JSON object per line; returns the event count."""
        with open(path, "w") as fp:
            for event in self.events:
                fp.write(json.dumps(event, sort_keys=True))
                fp.write("\n")
        return len(self.events)


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a trace written by :meth:`TraceCollector.dump_jsonl`.

    Raises :class:`ValueError` (with the line number) on malformed JSON
    or an event that fails :func:`validate_event`.
    """
    events: List[Dict[str, Any]] = []
    with open(path) as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError("line %d: invalid JSON (%s)" % (lineno, exc))
            error = validate_event(event)
            if error is not None:
                raise ValueError("line %d: %s" % (lineno, error))
            events.append(event)
    return events


def validate_event(event: Any) -> Optional[str]:
    """Check one event against :data:`EVENT_SCHEMA`; None when valid."""
    if not isinstance(event, dict):
        return "event is not an object: %r" % (event,)
    kind = event.get("kind")
    if kind not in EVENT_SCHEMA:
        return "unknown event kind %r" % (kind,)
    tick = event.get("tick")
    if not isinstance(tick, int) or tick < 0:
        return "%s: tick must be a non-negative int, got %r" % (kind, tick)
    missing = [f for f in EVENT_SCHEMA[kind] if f not in event]
    if missing:
        return "%s: missing required fields %s" % (kind, ", ".join(missing))
    return None


# ---------------------------------------------------------------------------
# trace <-> metrics reconciliation
# ---------------------------------------------------------------------------


def reconstruct_counters(events: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Rebuild the :class:`RunMetrics` counters from one run's events.

    ``events`` must cover exactly one run segment (everything between a
    ``schedule-start``/stream start and its ``run-end``, inclusive) —
    use :func:`reconcile` to handle multi-segment streams.  ``ticks`` is
    the maximum tick stamp after the *last* ``run-start`` (a crash
    unwinds the scheduler loop, and the resumed run restarts its tick
    counter — mirroring how ``RunMetrics.ticks`` is maintained).
    """
    counters = {name: 0 for name in COUNTER_FIELDS}
    last_run_start = 0
    for i, event in enumerate(events):
        if event.get("kind") == "run-start":
            last_run_start = i
    max_tick = 0
    for event in events[last_run_start:]:
        max_tick = max(max_tick, event.get("tick", 0))
    counters["ticks"] = max_tick
    for event in events:
        kind = event["kind"]
        if kind == "txn-commit":
            counters["committed"] += 1
        elif kind == "txn-abort":
            counters["aborted"] += 1
            if event.get("reason") == "crash":
                counters["crash_aborts"] += 1
        elif kind == "txn-restart":
            counters["restarts"] += 1
        elif kind == "deadlock":
            counters["deadlocks"] += 1
        elif kind == "op-ok":
            counters["operations"] += 1
        elif kind == "op-blocked":
            counters["blocked_attempts"] += 1
        elif kind == "op-stuck":
            counters["stuck_aborts"] += 1
        elif kind == "commit-stall":
            counters["commit_stall_ticks"] += 1
        elif kind == "force":
            counters["forces"] += 1
            counters["forced_records"] += int(event.get("records", 0))
        elif kind == "force-torn":
            counters["forced_records"] += int(event.get("records", 0))
        elif kind == "force-request":
            counters["force_requests"] += 1
        elif kind == "ro-commit":
            counters["ro_committed"] += 1
        elif kind == "snapshot-read":
            counters["ro_snapshot_reads"] += 1
        elif kind == "ro-abort":
            counters["ro_aborts"] += 1
        elif kind == "calendar-wake":
            counters["dead_ticks_elided"] += int(event.get("elided", 0))
            if int(event.get("wake", 0)):
                counters["calendar_wakeups"] += 1
    return counters


class ReconcileResult:
    """Reconstructed vs reported counters for one run segment."""

    def __init__(
        self,
        label: str,
        reconstructed: Dict[str, int],
        reported: Dict[str, int],
    ) -> None:
        self.label = label
        self.reconstructed = reconstructed
        self.reported = reported

    @property
    def mismatches(self) -> Dict[str, Tuple[int, int]]:
        """``{field: (from_trace, from_metrics)}`` where they disagree."""
        out = {}
        for name in COUNTER_FIELDS:
            got = self.reconstructed.get(name, 0)
            want = int(self.reported.get(name, 0))
            if got != want:
                out[name] = (got, want)
        return out

    @property
    def ok(self) -> bool:
        return not self.mismatches


def reconcile(events: Sequence[Dict[str, Any]]) -> List[ReconcileResult]:
    """Cross-check every run segment of a trace stream.

    A segment opens at stream start or at a ``schedule-start`` event and
    closes at its ``run-end`` (which carries the scheduler's final
    ``RunMetrics`` counters); events between a ``run-end`` and the next
    ``schedule-start`` — e.g. the torture harness's final clean crash —
    belong to no segment and are ignored.  Segments without a
    ``run-end`` (a run that never converged) are skipped.
    """
    results: List[ReconcileResult] = []
    segment: Optional[List[Dict[str, Any]]] = []
    for event in events:
        kind = event["kind"]
        if kind == "schedule-start":
            segment = [event]
            continue
        if segment is None:
            continue
        segment.append(event)
        if kind == "run-end":
            results.append(
                ReconcileResult(
                    label=str(event.get("label", "")),
                    reconstructed=reconstruct_counters(segment),
                    reported=dict(event["metrics"]),
                )
            )
            segment = None
    return results


# ---------------------------------------------------------------------------
# derived reports
# ---------------------------------------------------------------------------


def commit_latencies(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One row per committed transaction: born/committed ticks, latency,
    and the stall breakdown (ticks spent waiting on a held commit batch
    vs everything else: lock waits, backoff, scheduling)."""
    rows = []
    for event in events:
        if event["kind"] != "txn-commit":
            continue
        latency = int(event["latency"])
        stall = int(event["stall_ticks"])
        rows.append(
            {
                "txn": event["txn"],
                "script": event["script"],
                "born": int(event["born"]),
                "committed": int(event["tick"]),
                "latency": latency,
                "stall_ticks": stall,
                "other_ticks": latency - stall,
            }
        )
    return rows


def latency_histogram(
    latencies: Sequence[int],
) -> List[Tuple[int, int, int]]:
    """Power-of-two buckets ``(lo, hi, count)`` over commit latencies."""
    if not latencies:
        return []
    buckets: List[Tuple[int, int, int]] = []
    lo, hi = 0, 1
    remaining = sorted(latencies)
    while remaining:
        count = 0
        while remaining and remaining[0] <= hi:
            remaining.pop(0)
            count += 1
        if count:
            buckets.append((lo, hi, count))
        lo, hi = hi + 1, hi * 2
    return buckets


def contention_profile(
    events: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Attribute blocked attempts to objects and conflict-table entries.

    Returns ``{"blocked_attempts": N, "objects": {obj: count}, "pairs":
    [(obj, new_label, held_label, count, share), ...]}`` sorted by
    count.  ``share`` is the fraction of blocked attempts in which the
    pair participated; an attempt blocked by several distinct
    conflict-table entries counts toward each, so shares can sum past
    1.0 (multi-cause blocking).
    """
    blocked_by_obj: Dict[str, int] = {}
    total_blocked = 0
    #: (obj, new_label, held_label) -> attempts in which the pair appeared
    pair_attempts: Dict[Tuple[str, str, str], int] = {}
    for event in events:
        kind = event["kind"]
        if kind == "op-blocked":
            total_blocked += 1
            obj = event["obj"]
            blocked_by_obj[obj] = blocked_by_obj.get(obj, 0) + 1
        elif kind == "lock-wait":
            obj = event["obj"]
            seen = set()
            for pair in event["pairs"]:
                new_label, held_label = pair[0], pair[1]
                seen.add((obj, new_label, held_label))
            for key in seen:
                pair_attempts[key] = pair_attempts.get(key, 0) + 1
    pairs = [
        (obj, new, held, count, (count / total_blocked) if total_blocked else 0.0)
        for (obj, new, held), count in pair_attempts.items()
    ]
    pairs.sort(key=lambda row: (-row[3], row[0], row[1], row[2]))
    return {
        "blocked_attempts": total_blocked,
        "objects": blocked_by_obj,
        "pairs": pairs,
    }


def _percentile(sorted_values: Sequence[int], q: float) -> int:
    """Nearest-rank percentile: the smallest value with at least
    ``q * n`` of the sample at or below it (rank ``ceil(q*n)``, so the
    0-based index is ``ceil(q*n) - 1``).  ``int(q*n)`` would over-index
    by one rank whenever ``q*n`` lands exactly on an integer — p50 of
    10 sorted values must be the 5th, not the 6th."""
    n = len(sorted_values)
    if not n:
        return 0
    index = min(n - 1, max(0, math.ceil(q * n) - 1))
    return sorted_values[index]


def format_trace_report(events: Sequence[Dict[str, Any]]) -> str:
    """The human-readable ``repro trace-report`` body (reconciliation
    verdict, counters, commit-latency histogram, contention profile,
    force/batch accounting, crash summary)."""
    lines: List[str] = []
    kinds: Dict[str, int] = {}
    for event in events:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    lines.append(
        "trace: %d events, %d kinds (schema v%d)"
        % (len(events), len(kinds), SCHEMA_VERSION)
    )

    # reconciliation verdict per run segment
    results = reconcile(events)
    for result in results:
        if result.ok:
            lines.append(
                "reconcile [%s]: OK — every RunMetrics counter matches the trace"
                % result.label
            )
        else:
            lines.append("reconcile [%s]: MISMATCH" % result.label)
            for name, (got, want) in sorted(result.mismatches.items()):
                lines.append(
                    "  %-18s trace=%d metrics=%d" % (name, got, want)
                )
    if not results:
        lines.append("reconcile: no completed run segment in this trace")

    # counters (from the trace itself, whole stream)
    counters = reconstruct_counters(list(events))
    lines.append(
        "counters: committed=%d aborted=%d (crash=%d stuck=%d validation=%d) "
        "restarts=%d deadlocks=%d ops=%d blocked=%d stalls=%d"
        % (
            counters["committed"],
            counters["aborted"],
            counters["crash_aborts"],
            counters["stuck_aborts"],
            # no RunMetrics counter: the reason lives on the event only
            sum(
                e["kind"] == "txn-abort" and e.get("reason") == "validation"
                for e in events
            ),
            counters["restarts"],
            counters["deadlocks"],
            counters["operations"],
            counters["blocked_attempts"],
            counters["commit_stall_ticks"],
        )
    )

    # commit latency
    rows = commit_latencies(events)
    if rows:
        latencies = sorted(r["latency"] for r in rows)
        stalls = sum(r["stall_ticks"] for r in rows)
        p50, p95, p99 = (_percentile(latencies, q) for q in PERCENTILES)
        lines.append(
            "commit latency (born -> committed ticks): n=%d mean=%.1f "
            "p50=%d p95=%d p99=%d max=%d  (stall ticks inside commits: %d)"
            % (
                len(latencies),
                sum(latencies) / len(latencies),
                p50,
                p95,
                p99,
                latencies[-1],
                stalls,
            )
        )
        for lo, hi, count in latency_histogram(latencies):
            lines.append(
                "  %4d..%-4d %-40s %d" % (lo, hi, "#" * min(40, count), count)
            )

    # read-only snapshot transactions (multiversion path)
    if counters["ro_committed"] or counters["ro_aborts"]:
        lines.append(
            "read-only: %d committed (%d snapshot reads, no locks), "
            "%d aborted"
            % (
                counters["ro_committed"],
                counters["ro_snapshot_reads"],
                counters["ro_aborts"],
            )
        )

    # contention attribution
    profile = contention_profile(events)
    if profile["blocked_attempts"]:
        lines.append(
            "contention: %d blocked attempts" % profile["blocked_attempts"]
        )
        for obj, count in sorted(
            profile["objects"].items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(
                "  object %-12s %5d blocked (%.0f%%)"
                % (obj, count, 100.0 * count / profile["blocked_attempts"])
            )
        for obj, new, held, count, share in profile["pairs"][:12]:
            lines.append(
                "  %s × %s on %s: %d attempts (%.0f%% of blocked)"
                % (new, held, obj, count, 100.0 * share)
            )

    # force engine
    if counters["forces"] or counters["force_requests"]:
        avg = (
            counters["force_requests"] / counters["forces"]
            if counters["forces"]
            else 0.0
        )
        lines.append(
            "log forces: %d physical, %d requests (avg batch %.2f), "
            "%d records made durable"
            % (
                counters["forces"],
                counters["force_requests"],
                avg,
                counters["forced_records"],
            )
        )

    # crashes
    crash_count = kinds.get("crash", 0)
    if crash_count:
        resolved = sum(
            len(e.get("resolved", ())) for e in events if e["kind"] == "crash"
        )
        lines.append(
            "crashes: %d (scheduler victims restarted: %d, in-doubt commits "
            "resolved: %d)" % (crash_count, counters["crash_aborts"], resolved)
        )
    return "\n".join(lines)
