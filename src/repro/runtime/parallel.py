"""The parallel experiment execution engine.

Every experiment in this reproduction — ``compare`` sweeps across
seeds, torture crash schedules, the EXP-C benches — decomposes into
fully independent, deterministic *cells*: one ``(configuration, seed)``
pair whose outcome depends on nothing but its own spec.  This module
fans those cells out across a process pool and deterministically merges
the results, so a sweep runs as fast as the hardware allows without
perturbing a single number:

* a :class:`Cell` is a **picklable job spec** — an executor kind (a key
  into :data:`CELL_EXECUTORS`), a spec mapping of plain knobs (workload
  name, ADT registry kind, transactions/ops/opening, a
  :class:`~repro.runtime.torture.TortureConfig`, a
  :class:`~repro.runtime.faults.FaultPlan`, …) and a seed;
* a :class:`ParallelRunner` executes cells on ``workers`` processes in
  configurable chunks and returns :class:`CellResult` objects **sorted
  by cell index**, so the merge is order-independent: aggregates built
  from the results are byte-identical to the serial path regardless of
  which worker finished first;
* with ``trace_base`` set, each worker writes its cells' trace events
  to a private shard ``<base>.w<k>.jsonl`` (no cross-process lock
  contention on one file) and the runner stitches the shards back into
  ``<base>`` in cell order — the stitched stream is a valid input for
  ``repro trace-report --strict``;
* a **crashed worker** (process death, not a Python exception) breaks
  the pool; the runner rebuilds the pool and retries the dead worker's
  cells once on fresh workers, then reports cells that died twice as
  *failed cells* — a sweep never hangs and never silently drops work.

The failed-cell contract: a cell whose executor raises (or whose worker
dies past the retry budget) yields ``CellResult(ok=False, error=...)``;
consumers must surface those cells (``repro compare``/``torture``
print them and exit 1) and compute aggregates over completed cells
only.  Determinism is unaffected: a fault-free run merges exactly the
serial results.

``workers=1`` executes the cells in-process in index order — the exact
serial code path, no pool — which is the CLI default.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

from .metrics import FaultCounters
from .trace import TraceCollector

# ---------------------------------------------------------------------------
# cells and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One independent experiment cell: an executor kind, knobs, a seed.

    Everything in ``spec`` must be picklable (plain values, or the
    declarative runtime dataclasses — ``TortureConfig``, ``FaultPlan`` —
    that reconstruct from primitives); callables never cross the process
    boundary, they are rebuilt inside the worker from registry keys.
    """

    index: int  # the merge key: results are ordered by it
    kind: str  # key into CELL_EXECUTORS
    spec: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def describe(self) -> str:
        label = self.spec.get("label") or self.spec.get("workload") or self.kind
        return "cell %d (%s, seed=%d)" % (self.index, label, self.seed)


@dataclass
class CellResult:
    """Outcome of one cell: the executor's payload, or a failure record."""

    index: int
    kind: str
    ok: bool
    value: Any = None
    error: str = ""
    #: worker id that produced the result (-1: failed before any worker
    #: completed it; 0 in the in-process workers=1 path).
    worker: int = -1


#: kind -> executor called as ``fn(cell, trace)`` inside the worker.
#: ``trace`` is a per-cell TraceCollector (None when tracing is off);
#: the return value must be picklable.  The built-in kinds are
#: registered at the bottom of this module; tests may register more.
CELL_EXECUTORS: Dict[str, Callable[[Cell, Optional[TraceCollector]], Any]] = {}


def register_executor(
    kind: str, fn: Callable[[Cell, Optional[TraceCollector]], Any]
) -> None:
    """Register a cell executor (register before building the runner's
    pool: worker processes inherit the registry at fork time)."""
    CELL_EXECUTORS[kind] = fn


def execute_cell(cell: Cell, trace: Optional[TraceCollector] = None) -> Any:
    """Run one cell in the current process (the workers=1 path and the
    per-cell body of every pool worker)."""
    fn = CELL_EXECUTORS.get(cell.kind)
    if fn is None:
        raise KeyError(
            "unknown cell kind %r (registered: %s)"
            % (cell.kind, ", ".join(sorted(CELL_EXECUTORS)))
        )
    return fn(cell, trace)


# ---------------------------------------------------------------------------
# trace sharding and stitching
# ---------------------------------------------------------------------------


def shard_path(trace_base: str, worker_id: int) -> str:
    """``TRACE_x.jsonl`` -> ``TRACE_x.w<k>.jsonl`` (suffix-preserving)."""
    stem, ext = os.path.splitext(trace_base)
    if ext != ".jsonl":
        stem, ext = trace_base, ".jsonl"
    return "%s.w%d%s" % (stem, worker_id, ext)


def trace_shard_paths(trace_base: str) -> List[str]:
    """Every existing shard of ``trace_base``, sorted by worker id."""
    stem, ext = os.path.splitext(trace_base)
    if ext != ".jsonl":
        stem = trace_base
    paths = []
    for path in glob.glob("%s.w*.jsonl" % stem):
        suffix = path[len(stem) + 2 : -len(".jsonl")]
        if suffix.isdigit():
            paths.append((int(suffix), path))
    return [p for _, p in sorted(paths)]


def stitch_trace_shards(
    trace_base: str,
    winners: Optional[Mapping[int, int]] = None,
) -> int:
    """Merge per-worker shards into ``trace_base``, in cell order.

    Every shard line carries the ``cell`` index its worker stamped on
    it.  A cell's events normally live in exactly one shard; after a
    worker death + retry the same cell may appear in two (the dead
    worker flushed the events but never returned the result), so the
    stitch keeps one copy per cell — the shard named by ``winners``
    (cell index -> worker id, from the runner's results) when given,
    else the lowest worker id.  Lines torn by a mid-write worker death
    are skipped.  Returns the number of events written.
    """
    per_cell: Dict[int, Dict[int, List[dict]]] = {}
    for path in trace_shard_paths(trace_base):
        stem = path[: -len(".jsonl")]
        worker_id = int(stem[stem.rindex(".w") + 2 :])
        with open(path) as fp:
            for line in fp:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing line from a dead worker
                cell = int(event.get("cell", -1))
                per_cell.setdefault(cell, {}).setdefault(worker_id, []).append(
                    event
                )
    count = 0
    with open(trace_base, "w") as fp:
        for cell in sorted(per_cell):
            shards = per_cell[cell]
            pick = None
            if winners is not None and cell in winners:
                pick = winners[cell] if winners[cell] in shards else None
            if pick is None:
                pick = min(shards)
            for event in shards[pick]:
                fp.write(json.dumps(event, sort_keys=True))
                fp.write("\n")
                count += 1
    return count


# ---------------------------------------------------------------------------
# the worker side
# ---------------------------------------------------------------------------

#: Per-process worker state, set by the pool initializer (and by the
#: in-process path).  Inherited registries and this dict are why the
#: runner prefers the fork start method where available.
_WORKER_STATE: Dict[str, Any] = {"id": 0, "trace_base": None}


def _worker_init(counter, trace_base: Optional[str]) -> None:
    """Pool initializer: claim a unique worker id, remember the shard base."""
    with counter.get_lock():
        worker_id = int(counter.value)
        counter.value += 1
    _WORKER_STATE["id"] = worker_id
    _WORKER_STATE["trace_base"] = trace_base


@lru_cache(maxsize=None)
def shared_conflict_case(adt_kind: str, recovery: str) -> Any:
    """The shared read-only conflict registry for one ``(kind, recovery)``.

    Returns the recovery method's conflict relation for the ADT kind
    (NRBC under UIP, NFC under DU); its compiled bitmask table rides on
    it (:func:`~repro.analysis.compile_tables.maybe_compile` compiles a
    relation once).  Cached **per process**: a persistent pool worker
    derives each case once and reuses it across every cell and every
    object it ever builds, instead of re-running the commutativity
    checker per object — the dominant per-cell setup cost for
    many-object open-loop shards.  The relation answers pure verdict
    queries, so sharing one instance across objects is safe.
    """
    from ..adts.registry import make_adt
    from .durability import recovery_conflict

    return recovery_conflict(make_adt(adt_kind), recovery)


def _append_shard(trace: TraceCollector, cell_index: int) -> None:
    """Flush one completed cell's events to this worker's shard file."""
    base = _WORKER_STATE["trace_base"]
    if base is None or not trace.events:
        return
    path = shard_path(base, _WORKER_STATE["id"])
    lines = []
    for event in trace.events:
        tagged = dict(event)
        tagged["cell"] = cell_index
        lines.append(json.dumps(tagged, sort_keys=True))
    with open(path, "a") as fp:
        fp.write("\n".join(lines))
        fp.write("\n")


def _run_chunk(cells: Sequence[Cell]) -> List[CellResult]:
    """Execute one chunk of cells inside a worker process.

    Python-level exceptions are caught per cell (the worker survives and
    the cell is reported failed); only process death escapes, which the
    parent sees as a broken pool.
    """
    worker_id = int(_WORKER_STATE["id"])
    tracing = _WORKER_STATE["trace_base"] is not None
    results: List[CellResult] = []
    for cell in cells:
        trace = TraceCollector() if tracing else None
        try:
            value = execute_cell(cell, trace)
        except Exception as exc:  # noqa: BLE001 — the failed-cell contract
            results.append(
                CellResult(
                    cell.index,
                    cell.kind,
                    ok=False,
                    error="%s: %s" % (type(exc).__name__, exc),
                    worker=worker_id,
                )
            )
            continue
        if trace is not None:
            _append_shard(trace, cell.index)
        results.append(
            CellResult(cell.index, cell.kind, ok=True, value=value, worker=worker_id)
        )
    return results


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def _covered(chunk: Sequence[Cell], collected: Mapping[int, CellResult]) -> bool:
    """Whether every cell of ``chunk`` already has a collected result."""
    return all(cell.index in collected for cell in chunk)


class ParallelRunner:
    """Fan independent cells out over a process pool; merge in cell order.

    ``workers=1`` (the default everywhere) runs the cells in-process in
    index order — no pool, no pickling, the exact serial code path.

    ``chunk_size`` controls amortization: each pool task executes one
    chunk of cells (default: enough chunks for ~4 tasks per worker, so
    stragglers rebalance).  Retries happen at chunk granularity because
    a dead worker takes its whole in-flight chunk with it.

    ``trace_base`` enables per-worker trace sharding (see
    :func:`stitch_trace_shards`); after the run the runner stitches the
    shards into ``trace_base`` itself, preferring each cell's winning
    worker.  Shard files are left on disk beside the stitched stream.

    ``persistent=True`` keeps the worker pool alive across ``run()``
    calls: repeated sweeps (a bench sweeping shard counts, a driver
    re-driving per arrival rate) pay process startup once, and each
    worker's per-process caches — :func:`shared_conflict_case`, the
    fork-inherited ADT registry — stay warm.  Call :meth:`close` (or
    use the runner as a context manager) when done; a broken pool is
    discarded and rebuilt transparently on the next wave.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        chunk_size: Optional[int] = None,
        trace_base: Optional[str] = None,
        retries: int = 1,
        mp_context: Optional[Any] = None,
        persistent: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1 (got %d)" % workers)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (got %d)" % chunk_size)
        if retries < 0:
            raise ValueError("retries must be >= 0 (got %d)" % retries)
        self.workers = workers
        self.chunk_size = chunk_size
        self.trace_base = trace_base
        self.retries = retries
        self.persistent = persistent
        #: ``None`` until a pool is built (see :meth:`_ensure_pool`).
        self._mp = mp_context
        #: the live pool (persistent mode keeps it across runs) and the
        #: worker-id counter, shared across rebuilds so every worker —
        #: including replacements after a death — gets a unique shard id.
        self._executor: Optional[ProcessPoolExecutor] = None
        self._counter = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down (no-op when none is alive)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- public API ------------------------------------------------------------

    def run(self, cells: Sequence[Cell]) -> List[CellResult]:
        """Execute every cell; return results sorted by cell index."""
        cells = list(cells)
        indexes = [c.index for c in cells]
        if len(set(indexes)) != len(indexes):
            raise ValueError("cell indexes must be unique")
        if self.trace_base is not None:
            for stale in trace_shard_paths(self.trace_base):
                os.remove(stale)
        if self.workers == 1 or len(cells) <= 1:
            results = self._run_inline(cells)
        else:
            results = self._run_pool(cells)
        results.sort(key=lambda r: r.index)
        if self.trace_base is not None:
            winners = {r.index: r.worker for r in results if r.ok}
            stitch_trace_shards(self.trace_base, winners)
        return results

    @staticmethod
    def failed(results: Sequence[CellResult]) -> List[CellResult]:
        """The failed subset, for the reporting contract."""
        return [r for r in results if not r.ok]

    # -- execution strategies --------------------------------------------------

    def _run_inline(self, cells: Sequence[Cell]) -> List[CellResult]:
        """The serial path: in-process, index order, worker id 0."""
        _WORKER_STATE["id"] = 0
        _WORKER_STATE["trace_base"] = self.trace_base
        try:
            return _run_chunk(sorted(cells, key=lambda c: c.index))
        finally:
            _WORKER_STATE["trace_base"] = None

    def _chunks(self, cells: Sequence[Cell]) -> List[List[Cell]]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(cells) // (self.workers * 4)))
        return [list(cells[i : i + size]) for i in range(0, len(cells), size)]

    def _run_pool(self, cells: Sequence[Cell]) -> List[CellResult]:
        chunks = self._chunks(cells)
        collected: Dict[int, CellResult] = {}
        pending = chunks
        try:
            for _attempt in range(1 + self.retries):
                if not pending:
                    break
                pending = self._one_wave(pending, collected)
        finally:
            if not self.persistent:
                self.close()
        for chunk in pending:
            for cell in chunk:
                collected[cell.index] = CellResult(
                    cell.index,
                    cell.kind,
                    ok=False,
                    error="worker process died (cell retried once on a "
                    "fresh worker, then abandoned)",
                )
        return list(collected.values())

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live pool, building one when none exists (or after a
        broken pool was discarded).  The worker-id counter persists
        across rebuilds so replacement workers extend the id sequence
        instead of reusing shard files."""
        if self._executor is None:
            # Imported where the pool is built, so ``import repro`` and
            # a workers=1 run (always inline) never load multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            if self._mp is None:
                import multiprocessing

                # fork inherits the executor registry and monkeypatches;
                # fall back to the platform default elsewhere (the
                # built-in kinds are module-level, so spawn still
                # resolves them).
                methods = multiprocessing.get_all_start_methods()
                self._mp = multiprocessing.get_context(
                    "fork" if "fork" in methods else None
                )
            if self._counter is None:
                self._counter = self._mp.Value("i", 0)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._mp,
                initializer=_worker_init,
                initargs=(self._counter, self.trace_base),
            )
        return self._executor

    def _one_wave(
        self,
        chunks: List[List[Cell]],
        collected: Dict[int, CellResult],
    ) -> List[List[Cell]]:
        """Run one pool over ``chunks``; return the chunks whose worker died."""
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

        dead: List[List[Cell]] = []
        executor = self._ensure_pool()
        try:
            futures = {
                executor.submit(_run_chunk, chunk): chunk for chunk in chunks
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = futures[future]
                    try:
                        for result in future.result():
                            collected[result.index] = result
                    except (BrokenExecutor, OSError):
                        # The worker running this chunk died (or took the
                        # pool down with it); every unfinished chunk of
                        # this pool will surface the same way and be
                        # retried together on a fresh pool.
                        dead.append(chunk)
        except BrokenExecutor:
            # submit() itself can raise on an already-broken pool.
            dead = [c for c in chunks if not _covered(c, collected)]
        if dead:
            # A broken pool cannot be reused: discard it so the retry
            # wave (or the next persistent run) builds a fresh one.
            self.close()
        return dead


# ---------------------------------------------------------------------------
# built-in executors
# ---------------------------------------------------------------------------


def _execute_compare(cell: Cell, trace: Optional[TraceCollector]) -> Any:
    """One (configuration, seed) cell of a named comparison sweep.

    Spec keys: ``workload`` (a :data:`repro.experiments.comparisons.
    COMPARE_WORKLOADS` name), ``config`` (a standard-configuration
    label), ``transactions``/``ops``/``opening`` knobs and
    ``max_restarts``.  Returns the cell's :class:`RunMetrics` —
    identical to the serial ``run_configuration`` entry for this seed.
    """
    # Lazy: the runtime layer must not import the experiments layer at
    # module import time (the experiments layer imports the runtime).
    from ..experiments.comparisons import (
        comparison_case,
        configuration_by_label,
        run_configuration,
    )

    spec = cell.spec
    config = configuration_by_label(spec["config"])
    adt_factory, workload = comparison_case(
        spec["workload"],
        transactions=int(spec.get("transactions", 8)),
        ops_per_txn=int(spec.get("ops", 3)),
        opening=int(spec.get("opening", 100)),
        read_mix=float(spec.get("read_mix", 0.0)),
        ro_mode=str(spec.get("ro_mode", "snapshot")),
    )
    runs = run_configuration(
        config,
        adt_factory,
        workload,
        seeds=(cell.seed,),
        max_restarts=int(spec.get("max_restarts", 25)),
    )
    return runs[0]


def _execute_torture(cell: Cell, trace: Optional[TraceCollector]) -> Any:
    """One torture schedule: spec carries the declarative
    :class:`~repro.runtime.torture.TortureConfig` and the
    :class:`~repro.runtime.faults.FaultPlan` (both picklable).  Returns
    ``{"result": ScheduleResult, "counters": FaultCounters}`` so the
    parent can merge the fault totals additively, exactly as the serial
    campaign's shared counters accumulate."""
    from .torture import run_schedule

    counters = FaultCounters()
    result = run_schedule(
        cell.spec["config"],
        cell.spec["plan"],
        seed=cell.seed,
        counters=counters,
        trace=trace,
    )
    return {"result": result, "counters": counters}


def _execute_run(cell: Cell, trace: Optional[TraceCollector]) -> Any:
    """One ``repro run`` workload on a durable system (fault-free).

    Spec keys: ``adt`` (registry kind), ``recovery``, ``transactions``,
    ``ops``, ``group_commit``, ``hold``.  Returns the RunMetrics.
    """
    from .torture import TortureConfig, fault_free_scheduler

    spec = cell.spec
    config = TortureConfig(
        spec["adt"],
        str(spec.get("recovery", "DU")).upper(),
        transactions=int(spec.get("transactions", 8)),
        ops_per_txn=int(spec.get("ops", 3)),
        group_commit=int(spec.get("group_commit", 1)),
        hold=int(spec.get("hold", 4)),
    )
    return fault_free_scheduler(config, cell.seed, trace).run()


def _execute_openloop_shard(cell: Cell, trace: Optional[TraceCollector]) -> Any:
    """One shard's slice of an open-loop drive (see
    :func:`repro.runtime.openloop.run_shard_cell`).

    Spec keys: ``config`` (a picklable
    :class:`~repro.runtime.openloop.OpenLoopConfig`) and ``shard``.  The
    worker regenerates the full offered load deterministically from
    ``(config, cell.seed)`` and keeps only its shard's scripts, so the
    merged counters match the in-process sharded run regardless of how
    cells land on workers.
    """
    from .openloop import run_shard_cell

    return run_shard_cell(
        cell.spec["config"], int(cell.spec["shard"]), cell.seed, trace
    )


register_executor("compare", _execute_compare)
register_executor("torture", _execute_torture)
register_executor("run", _execute_run)
register_executor("openloop-shard", _execute_openloop_shard)
