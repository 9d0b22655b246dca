"""Structured run tracing: one flat column of event values, decoded on read.

The EXP-C* experiments report end-of-run scalar counters
(:class:`~repro.runtime.metrics.RunMetrics`), which say *how much*
blocking and aborting a ``(Conflict, View)`` configuration produced but
not *where*: which conflict-table entries caused the blocked attempts,
which objects were hot, where a transaction's commit latency went.  The
trace layer records the event stream those counters summarize:

* a :class:`TraceCollector` is bound to a scheduler run (nullable hook:
  the untraced hot path pays one ``is None`` test per emit site);
* every emitter — the scheduler, the transaction system, managed
  objects, the stable logs, the crash protocol — calls
  ``emit(kind, *values)``, and the collector appends to one flat list
  the kind and the values as the site passed them (raw and immutable:
  an ``Invocation``, not its string), in the kind's
  :data:`EVENT_FIELDS` order; a change of tick is one ``int`` delta
  written where a kind would be (kinds are always ``str``);
* events are decoded into dicts only when read —
  :attr:`TraceCollector.events` is a lazy view, and
  :meth:`~TraceCollector.dump_jsonl` decodes as it writes — so a traced
  drive keeps about 40 bytes an event, against 100 for a tuple per
  event and 250 for a dict;
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
tick) and ``kind`` (one of :data:`EVENT_SCHEMA`).  One table,
:data:`EVENT_FIELDS`, lists every field a kind's sites pass, in order;
the required ones, computed from it, are :data:`EVENT_SCHEMA`, and the
rest are informational.  Consumers must ignore fields they do not
know (the schema is append-only: existing kinds and fields are stable,
new ones may appear in later versions — :data:`SCHEMA_VERSION` bumps
when they do).
"""

from __future__ import annotations

import collections.abc
import json
import math
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .metrics import COUNTER_FIELDS

#: Bumped when event kinds or required fields are added.
SCHEMA_VERSION = 5

#: The latency percentiles every report emits (``trace-report`` and the
#: open-loop driver share this constant so trend-gate fields line up).
PERCENTILES = (0.50, 0.95, 0.99)

#: ``txn-abort`` reasons with a defined meaning.
ABORT_REASONS = ("deadlock", "stuck", "crash", "validation")


def _rows(pairs: Tuple[Tuple[str, ...], ...]) -> List[List[str]]:
    """``lock-wait`` pairs in their JSON form: a list of lists."""
    return [list(pair) for pair in pairs]


class _Info(tuple):
    """An informational field ``(name, render)``: an event may lack it."""

    def __new__(cls, name: str, render: Any = None) -> "_Info":
        return super().__new__(cls, (name, render))


#: The one kind table: kind -> the values its emit sites pass, in order.
#: A field is a name, or ``(name, render)`` when the site passes a raw
#: immutable value that ``render`` turns into the field's JSON form on
#: read: an ``Invocation`` by ``str``, the blockers by ``sorted`` (a
#: tuple of the attempt's frozenset, which would keep 200 bytes more),
#: a tuple by ``list`` (``lock-wait``'s tuple of pairs by :func:`_rows`).
#: Every field is required (:data:`EVENT_SCHEMA`) unless written
#: :class:`_Info`.  A :class:`DomainTrace` appends one more value, its
#: ``(field, domain)`` stamp.
EVENT_FIELDS: Dict[str, Tuple[Any, ...]] = {
    # scheduler: run lifecycle
    "run-start": ("label",),
    "run-end": ("label", "metrics"),
    "schedule-start": ("label", "plan"),
    # scheduler: operation attempts (one event per attempt)
    "op-ok": ("txn", "obj", ("op", str)),
    "op-blocked": ("txn", "obj", _Info("op", str), ("blockers", sorted)),
    "op-stuck": ("txn", "obj", _Info("op", str)),
    # managed object: invocation recording and contention attribution
    "op-invoke": ("txn", "obj", ("invocation", str)),
    "lock-wait": ("txn", "obj", ("pairs", _rows)),
    # scheduler: transaction outcomes
    "txn-commit": ("txn", "script", "born", "latency", "stall_ticks"),
    "commit-stall": ("txn",),
    "deadlock": ("victim", ("cycle", sorted)),
    "txn-abort": ("txn", "reason"),
    "txn-restart": ("txn", "incarnation", "backoff_until", _Info("reason")),
    # transaction system: 2PC phase transitions
    "2pc-prepare": ("txn", ("objects", list)),
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
    "snapshot-read": ("txn", "obj", ("op", str), _Info("csn")),
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

#: kind -> required fields beyond ``tick`` and ``kind``.  See the module
#: docstring for stability guarantees; docs/API.md documents semantics.
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    kind: tuple(
        f if isinstance(f, str) else f[0] for f in fields if not isinstance(f, _Info)
    )
    for kind, fields in EVENT_FIELDS.items()
}

#: kind -> (field names, renders): :data:`EVENT_FIELDS` as decoding reads it.
_LAYOUT: Dict[str, Tuple[Tuple[str, ...], Tuple[Any, ...]]] = {
    kind: (
        tuple(f if isinstance(f, str) else f[0] for f in fields),
        tuple(None if isinstance(f, str) else f[1] for f in fields),
    )
    for kind, fields in EVENT_FIELDS.items()
}

#: kind -> how many values its emit sites pass.
_ARITY: Dict[str, int] = {kind: len(fields) for kind, fields in EVENT_FIELDS.items()}


class _Stamp(tuple):
    """A :class:`DomainTrace`'s ``(field, domain)`` stamp.  Its own type,
    so that a type test — not identity, which unpickling loses — tells
    it from the next event's kind or tick delta."""

    __slots__ = ()


def _scan(record: List[Any], at: int = 0, tick: int = 0) -> Iterator[Tuple[int, int, int]]:
    """Walk a flat record from offset ``at``, where the tick is ``tick``:
    ``(tick, start, stop)`` per event, ``record[start]`` its kind and
    ``record[start + 1:stop]`` its values, a stamp last if it has one.
    Raises :class:`ValueError` where a kind or tick delta should be and
    is not, or where the record ends inside an event."""
    end = len(record)
    while at < end:
        kind = record[at]
        if type(kind) is int:
            tick += kind
            at += 1
            continue
        arity = _ARITY.get(kind) if type(kind) is str else None
        if arity is None or at + 1 + arity > end:
            raise ValueError(
                "trace record %d: %r does not start an event of its kind's arity"
                % (at, kind)
            )
        stop = at + 1 + arity
        if stop < end and type(record[stop]) is _Stamp:
            stop += 1
        yield tick, at, stop
        at = stop


def _decode(tick: int, kind: str, values: Sequence[Any]) -> Dict[str, Any]:
    """One event as its dict: the fields in emit order, a domain stamp
    if one was appended, then ``tick`` and ``kind``."""
    names, renders = _LAYOUT[kind]
    event: Dict[str, Any] = {}
    for name, render, value in zip(names, renders, values):
        event[name] = value if render is None else render(value)
    if len(values) > len(names):
        field, domain = values[-1]
        event[field] = domain
    event["tick"] = tick
    event["kind"] = kind
    return event


class DomainTrace:
    """A per-failure-domain emit proxy: stamps every event with the
    domain id under the subclass's ``field`` (``shard`` / ``site``).

    Bound in place of the raw collector on a domain's objects and logs,
    so ``op-invoke``/``lock-wait``/``force``/``recovery`` events carry
    their domain without the emit sites knowing about placement at all.
    The stamp is one ``(field, domain)`` :class:`_Stamp`, built once and
    appended after every event's values.
    """

    __slots__ = ("_inner", "domain", "_stamp")
    field = ""

    def __init__(self, inner, domain: int) -> None:
        self._inner = inner
        self.domain = domain
        self._stamp = _Stamp((self.field, domain))

    def emit(self, *event: Any) -> None:
        self._inner.emit(*event, self._stamp)


class TraceEvents(collections.abc.Sequence):
    """``TraceCollector.events``: a read-only view that decodes each
    event into its dict when read — by ``len``, iteration, indexing and
    ``==`` (against another view or a list of dicts).  ``len`` and
    indexing read the collector's offsets index, built on first use and
    extended over what was recorded since."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "TraceCollector") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._indexed()[0])

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        record = self._trace._record
        for tick, start, stop in _scan(record):
            yield _decode(tick, record[start], record[start + 1 : stop])

    def __getitem__(self, index):
        starts, ticks = self._trace._indexed()
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(starts)))]
        record = self._trace._record
        tick, start, stop = next(_scan(record, starts[index], ticks[index]))
        return _decode(tick, record[start], record[start + 1 : stop])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (TraceEvents, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "<TraceEvents: %d events>" % len(self)


class TraceCollector:
    """Collects tick-stamped runtime events for one (or more) runs.

    Bound to a :class:`~repro.runtime.scheduler.Scheduler` via its
    ``trace=`` argument, which propagates the collector to the system,
    its managed objects and their stable logs.  Emitting appends the
    kind and the values the site passed, in :data:`EVENT_FIELDS` order,
    to one flat list, and a tick that moved is one ``int`` delta before
    the next kind — no per-event tuple, dict or rendering (about 40
    bytes an event, against 250 for a dict);
    :attr:`events` and :meth:`dump_jsonl` decode on read.  *Not*
    emitting is nearly free (each site guards with
    ``if trace is not None``).
    """

    __slots__ = ("tick", "_record", "_delta_at", "_index")

    def __init__(self) -> None:
        #: the tick events are stamped with; the record's deltas sum to it
        self.tick = 0
        #: kinds, their values and tick deltas, in emit order
        self._record: List[Any] = []
        #: the record's length just after its last delta was written
        self._delta_at = -1
        #: ``[offset, tick, starts, ticks]``: the events before ``offset``
        #: (where the tick is ``tick``) have their starts and ticks indexed
        self._index: Optional[List[Any]] = None

    def begin_tick(self, tick: int) -> None:
        """Stamp subsequent events with ``tick`` (scheduler loop hook)."""
        self._move(tick - self.tick)
        self.tick = tick

    def emit(self, *event: Any) -> None:
        """Record one event, ``emit(kind, *values)``: ``values`` in the
        kind's :data:`EVENT_FIELDS` order; they must be JSON-serializable
        once rendered."""
        self._record.extend(event)

    @property
    def events(self) -> TraceEvents:
        """Every event so far, decoded on read."""
        return TraceEvents(self)

    def merge(self, events: TraceEvents) -> None:
        """Append another collector's events (a parallel cell's), as
        they are: no event is decoded or emitted again.  Its deltas
        count from tick 0, so a delta back to 0 goes before them and
        one back to this collector's tick after."""
        other = events._trace
        self._move(-self.tick)
        self._record.extend(other._record)
        self._move(self.tick - other.tick)

    def _move(self, delta: int) -> None:
        """Move the tick the record's deltas sum to by ``delta``: one
        ``int`` in a kind's slot, or the last one changed when no event
        has been recorded since it."""
        if delta:
            record = self._record
            if self._delta_at == len(record):
                record[-1] += delta
            else:
                record.append(delta)
                self._delta_at = len(record)

    def _indexed(self) -> Tuple[Sequence[int], Sequence[int]]:
        """Every event's start offset and tick, indexed up to the end."""
        if self._index is None:
            # Imported here: ``array`` is a shared library (76 KiB of
            # RSS) that a run whose trace is never indexed need not load.
            from array import array

            self._index = [0, 0, array("q"), array("q")]
        index = self._index
        offset, tick, starts, ticks = index
        for tick, start, offset in _scan(self._record, offset, tick):
            starts.append(start)
            ticks.append(tick)
        index[0], index[1] = offset, tick
        return starts, ticks

    # -- binding ---------------------------------------------------------------

    def bind_system(self, system: Any) -> None:
        """Attach this collector to a transaction system's emit sites
        (:meth:`~repro.runtime.system.TransactionSystem.bind_trace`)."""
        system.bind_trace(self)

    # -- serialization ---------------------------------------------------------

    def dump_jsonl(self, path: str) -> int:
        """Write one JSON object per line, decoding as it goes; returns
        the event count."""
        count = 0
        with open(path, "w") as fp:
            for event in self.events:
                fp.write(json.dumps(event, sort_keys=True))
                fp.write("\n")
                count += 1
        return count


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


#: kind -> the :class:`RunMetrics` counter one event of it adds 1 to.
_COUNTED = {
    "txn-commit": "committed",
    "txn-abort": "aborted",
    "txn-restart": "restarts",
    "deadlock": "deadlocks",
    "op-ok": "operations",
    "op-blocked": "blocked_attempts",
    "op-stuck": "stuck_aborts",
    "commit-stall": "commit_stall_ticks",
    "force": "forces",
    "force-request": "force_requests",
    "ro-commit": "ro_committed",
    "snapshot-read": "ro_snapshot_reads",
    "ro-abort": "ro_aborts",
}


class _Tally:
    """The counters of one run segment, rebuilt one event at a time."""

    __slots__ = ("counters", "max_tick")

    def __init__(self) -> None:
        self.counters = {name: 0 for name in COUNTER_FIELDS}
        #: the largest tick stamp so far
        self.max_tick = 0

    def add(self, event: Dict[str, Any]) -> None:
        kind = event["kind"]
        tick = event.get("tick", 0)
        if tick > self.max_tick:
            self.max_tick = tick
        counters = self.counters
        name = _COUNTED.get(kind)
        if name is not None:
            counters[name] += 1
        if kind == "txn-abort":
            if event.get("reason") == "crash":
                counters["crash_aborts"] += 1
        elif kind == "force" or kind == "force-torn":
            counters["forced_records"] += int(event.get("records", 0))
        elif kind == "calendar-wake":
            counters["dead_ticks_elided"] += int(event.get("elided", 0))
            if int(event.get("wake", 0)):
                counters["calendar_wakeups"] += 1

    def result(self) -> Dict[str, int]:
        self.counters["ticks"] = self.max_tick
        return self.counters


def reconstruct_counters(events: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """Rebuild the :class:`RunMetrics` counters from one run's events.

    ``events`` must cover exactly one run segment (everything between a
    ``schedule-start``/stream start and its ``run-end``, inclusive) —
    use :func:`reconcile` to handle multi-segment streams.  ``ticks`` is
    the largest tick stamp.
    """
    tally = _Tally()
    for event in events:
        tally.add(event)
    return tally.result()


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


def reconcile(events: Iterable[Dict[str, Any]]) -> List[ReconcileResult]:
    """Cross-check every run segment of a trace stream.

    A segment opens at stream start or at a ``schedule-start`` event and
    closes at its ``run-end`` (which carries the scheduler's final
    ``RunMetrics`` counters); events between a ``run-end`` and the next
    ``schedule-start`` — e.g. the torture harness's final clean crash —
    belong to no segment and are ignored.  Segments without a
    ``run-end`` (a run that never converged) are skipped.  The stream is
    read once, and no segment's events are held.
    """
    results: List[ReconcileResult] = []
    tally: Optional[_Tally] = _Tally()
    for event in events:
        kind = event["kind"]
        if kind == "schedule-start":
            tally = _Tally()
        elif tally is None:
            continue
        tally.add(event)
        if kind == "run-end":
            results.append(
                ReconcileResult(
                    label=str(event.get("label", "")),
                    reconstructed=tally.result(),
                    reported=dict(event["metrics"]),
                )
            )
            tally = None
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
    lo, hi, count = 0, 1, 0
    for latency in sorted(latencies):
        while latency > hi:
            if count:
                buckets.append((lo, hi, count))
            lo, hi, count = hi + 1, hi * 2, 0
        count += 1
    buckets.append((lo, hi, count))
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
    counters = reconstruct_counters(events)
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
