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
* a :class:`ParallelRunner` streams cells from an iterable over
  ``workers`` processes in configurable chunks, two chunks a worker in
  flight, and yields :class:`CellResult` objects **in cell order**, so
  the merge is order-independent: aggregates built from the results are
  byte-identical to the serial path regardless of which worker finished
  first, and a consumer that merges each result and drops it holds a
  bounded window of cells, however long the stream;
* with a ``trace`` collector passed to :meth:`ParallelRunner.stream`,
  every cell records into a fresh collector of its own — inline and in
  a worker alike — its events come home on the :class:`CellResult`, and
  the runner appends them to the caller's collector in cell order: the
  trace, like the aggregates, is the same bytes at every worker count;
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

Serial is the pool of one: ``workers=1`` (the CLI default) executes the
same cells in-process, each when its result is pulled — no pool, no
pickling — and is the only serial path a campaign has.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

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
    #: the cell's trace events: its own collector's records, decoded on
    #: read (traced runs only; a failed cell has none).
    events: Sequence[Dict[str, Any]] = field(default_factory=list)


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
    """Run one cell in the current process (the per-cell body of the
    inline path and of every pool worker)."""
    fn = CELL_EXECUTORS.get(cell.kind)
    if fn is None:
        raise KeyError(
            "unknown cell kind %r (registered: %s)"
            % (cell.kind, ", ".join(sorted(CELL_EXECUTORS)))
        )
    return fn(cell, trace)


# ---------------------------------------------------------------------------
# the worker side
# ---------------------------------------------------------------------------


def _run_chunk(cells: Sequence[Cell], tracing: bool) -> List[CellResult]:
    """Execute one chunk of cells (inline, or inside a worker process).

    Python-level exceptions are caught per cell (the worker survives and
    the cell is reported failed); only process death escapes, which the
    parent sees as a broken pool.  Every traced cell records into a
    fresh collector: one shared across cells would stamp each cell's
    opening events with the previous cell's last tick.
    """
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
                )
            )
            continue
        events = trace.events if trace is not None else []
        results.append(
            CellResult(cell.index, cell.kind, ok=True, value=value, events=events)
        )
    return results


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

#: the most cells one pool task runs: with two tasks a worker in flight,
#: a pool stream holds at most ``2 * MAX_CHUNK`` cells a worker, however
#: long the stream.
MAX_CHUNK = 16

_DIED = "worker process died (cell retried once on a fresh worker, then abandoned)"

class _Flight:
    """One chunk of a pool stream: its cells, the future of its results
    (None until submitted to a live pool), its results once they are
    kept past a broken pool or it is abandoned, and how many pools it
    has died with."""

    __slots__ = ("chunk", "future", "results", "deaths")

    def __init__(self, chunk: List[Cell]) -> None:
        self.chunk = chunk
        self.future: Any = None
        self.results: Optional[List[CellResult]] = None
        self.deaths = 0

    def on_broken_pool(self, retries: int) -> None:
        """Its pool broke: keep its results if they came in first, else
        count a death, and past ``retries`` deaths report its cells
        failed."""
        if self.results is not None:
            return
        future, self.future = self.future, None
        if future is not None and future.done() and not future.cancelled():
            if future.exception() is None:
                self.results = future.result()
                return
        self.deaths += 1
        if self.deaths > retries:
            self.results = [
                CellResult(c.index, c.kind, ok=False, error=_DIED) for c in self.chunk
            ]


class ParallelRunner:
    """Fan independent cells out over a process pool; merge in cell order.

    ``workers=1`` (the default everywhere) runs the cells in-process in
    index order — no pool, no pickling.

    ``chunk_size`` controls amortization: each pool task executes one
    chunk of cells (default: ~4 tasks per worker for a sized sweep, so
    stragglers rebalance, and at most :data:`MAX_CHUNK` cells).
    Retries happen at chunk granularity because a dead worker takes its
    whole in-flight chunk with it: the chunks of a broken pool are run
    again on a fresh one, ``retries`` times.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        chunk_size: Optional[int] = None,
        retries: int = 1,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1 (got %d)" % workers)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (got %d)" % chunk_size)
        if retries < 0:
            raise ValueError("retries must be >= 0 (got %d)" % retries)
        self.workers = workers
        self.chunk_size = chunk_size
        self.retries = retries

    # -- public API ------------------------------------------------------------

    def run(
        self, cells: Sequence[Cell], trace: Optional[TraceCollector] = None
    ) -> List[CellResult]:
        """Execute every cell; return results sorted by cell index (the
        drained :meth:`stream` of the cells in index order)."""
        cells = sorted(cells, key=lambda c: c.index)
        if any(a.index == b.index for a, b in zip(cells, cells[1:])):
            raise ValueError("cell indexes must be unique")
        return list(self.stream(cells, trace, size=len(cells)))

    def stream(
        self,
        cells: Iterable[Cell],
        trace: Optional[TraceCollector] = None,
        *,
        size: Optional[int] = None,
    ) -> Iterator[CellResult]:
        """Execute cells pulled from ``cells``; yield their results in
        the order the cells came.

        Inline, a cell runs when its result is pulled; over a pool, two
        chunks a worker are in flight, and the next is pulled from
        ``cells`` when the oldest one's results are yielded.  ``size``,
        the number of cells when the caller knows it, sizes the chunks
        and runs a stream of one cell inline.  With ``trace``, the events
        of every completed cell are appended to it before its result is
        yielded.
        """
        tracing = trace is not None
        if self.workers == 1 or (size is not None and size <= 1):
            results = (
                result for cell in cells for result in _run_chunk((cell,), tracing)
            )
        else:
            results = self._stream_pool(self._chunks(cells, size), tracing)
        for result in results:
            if tracing and result.ok:
                trace.merge(result.events)
            yield result

    @staticmethod
    def failed(results: Sequence[CellResult]) -> List[CellResult]:
        """The failed subset, for the reporting contract."""
        return [r for r in results if not r.ok]

    # -- the pool ----------------------------------------------------------------

    def _chunks(
        self, cells: Iterable[Cell], size: Optional[int]
    ) -> Iterator[List[Cell]]:
        chunk = self.chunk_size
        if chunk is None:
            tasks = 4 * self.workers
            chunk = MAX_CHUNK if size is None else min(MAX_CHUNK, -(-size // tasks))
        cells = iter(cells)
        return iter(lambda: list(itertools.islice(cells, chunk)), [])

    def _stream_pool(
        self, chunks: Iterator[List[Cell]], tracing: bool
    ) -> Iterator[CellResult]:
        """The chunks' results in chunk order, two chunks a worker in
        flight.  A pool that breaks (a worker died) takes every unfinished
        chunk with it: those run again on a fresh pool, and a chunk that
        has died with more than ``retries`` pools is reported failed."""
        # Imported where the pool is built, so ``import repro`` and a
        # workers=1 run (always inline) never load multiprocessing.
        import multiprocessing
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        # fork inherits the executor registry and monkeypatches; fall
        # back to the platform default elsewhere (the built-in kinds are
        # module-level, so spawn still resolves them).
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        window: deque[_Flight] = deque()
        executor = None
        try:
            while True:
                while len(window) < 2 * self.workers:
                    chunk = next(chunks, None)
                    if chunk is None:
                        break
                    window.append(_Flight(chunk))
                if not window:
                    return
                head = window[0]
                if head.results is None:
                    try:
                        if executor is None:
                            executor = ProcessPoolExecutor(self.workers, context)
                        for flight in window:
                            if flight.future is None and flight.results is None:
                                flight.future = executor.submit(
                                    _run_chunk, flight.chunk, tracing
                                )
                        head.results = head.future.result()
                    except (BrokenExecutor, OSError):
                        # The worker running a chunk died (or submit() met
                        # an already-broken pool): every unfinished chunk of
                        # this pool runs again on a fresh one.
                        if executor is not None:
                            executor.shutdown(wait=False, cancel_futures=True)
                            executor = None
                        for flight in window:
                            flight.on_broken_pool(self.retries)
                        continue
                window.popleft()
                yield from head.results
        finally:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)


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


register_executor("compare", _execute_compare)
register_executor("torture", _execute_torture)
