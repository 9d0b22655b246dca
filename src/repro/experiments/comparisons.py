"""The quantitative experiments (EXP-C1 … EXP-C3).

The paper proves that update-in-place and deferred update admit
incomparable conflict relations; these experiments run the concrete
transaction processor to show what that incomparability is *worth* on
workloads where each side's extra freedom matters:

* **EXP-C1** (:func:`exp_c1_hotspot`) — one hot bank account under four
  configurations (UIP+NRBC, DU+NFC, UIP with 2PL read/write locks, UIP
  with the symmetric closure of NRBC), swept over operation mixes.
  Withdrawal-heavy funded mixes favor UIP+NRBC (two successful
  withdrawals commute backward); mixes with frequent failed
  withdrawals favor DU+NFC.
* **EXP-C2** (:func:`exp_c2_adts`) — the same four configurations on
  the escrow, semiqueue, FIFO queue, set and register workloads: who
  wins depends on the ADT, and on the register everything except 2PL
  collapses to the same relation.
* **EXP-C3** (:func:`exp_c3_symmetry`) — the ablation the paper's
  Section 6.3 remark motivates: forcing the UIP conflict relation to be
  symmetric (as most prior work assumed) versus using the asymmetric
  NRBC directly.

Each experiment returns ``(summaries, rendered_table)`` where the
summaries aggregate several seeded runs per configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..adts import (
    BankAccount,
    EscrowAccount,
    FifoQueue,
    Register,
    SemiQueue,
    SetADT,
)
from ..adts.base import ADT
from ..core.conflict import ConflictRelation, symmetric_closure
from ..runtime import (
    ManagedObject,
    MetricsSummary,
    RunMetrics,
    TransactionSystem,
    escrow_workload,
    format_summary_table,
    hotspot_banking,
    producer_consumer,
    read_write_conflict,
    run_scripts,
    set_membership_workload,
    summarize,
)
from ..runtime.workloads import readonly_snapshot_workload
from ..runtime.scheduler import TransactionScript


@dataclass(frozen=True)
class Configuration:
    """One (recovery method, conflict relation) configuration under test."""

    label: str
    recovery: str  # "UIP" | "DU"
    conflict_factory: Callable[[ADT], ConflictRelation]


def standard_configurations(extra_symmetric: bool = True) -> Tuple[Configuration, ...]:
    """The four standard configurations used across EXP-C1/C2."""
    configs = [
        Configuration("UIP+NRBC", "UIP", lambda adt: adt.nrbc_conflict()),
        Configuration("DU+NFC", "DU", lambda adt: adt.nfc_conflict()),
        Configuration("UIP+2PL-rw", "UIP", read_write_conflict),
    ]
    if extra_symmetric:
        configs.append(
            Configuration(
                "UIP+sym(NRBC)",
                "UIP",
                lambda adt: symmetric_closure(adt.nrbc_conflict()),
            )
        )
    return tuple(configs)


def configuration_by_label(label: str) -> Configuration:
    """Resolve a standard configuration from its label.

    This is how parallel workers rebuild a configuration: labels are
    picklable, the conflict-factory closures are not.
    """
    by_label = {c.label: c for c in standard_configurations()}
    if label not in by_label:
        raise KeyError(
            "unknown configuration %r (choose from: %s)"
            % (label, ", ".join(sorted(by_label)))
        )
    return by_label[label]


#: The named comparison workloads `repro compare` (and the parallel
#: engine) can rebuild from a picklable name + plain knobs.
COMPARE_WORKLOADS: Tuple[str, ...] = (
    "hotspot",
    "escrow",
    "semiqueue",
    "fifo",
    "set",
    "register",
)


def comparison_case(
    workload: str,
    *,
    transactions: int = 8,
    ops_per_txn: int = 3,
    opening: int = 100,
    read_mix: float = 0.0,
    ro_mode: str = "snapshot",
) -> Tuple[Callable[[], ADT], Callable[[random.Random], Sequence[TransactionScript]]]:
    """``(adt_factory, workload_fn)`` for a named comparison workload.

    The single source of truth behind ``repro compare`` and the
    parallel ``compare`` cell executor: both sides rebuild the exact
    same factories from ``(name, knobs)``, which is what makes the
    parallel sweep byte-identical to the serial one.

    ``read_mix`` adds ``round(read_mix * transactions)`` read-only
    reader scripts over the ADT's observer invocations: on the
    lock-free multiversion snapshot path by default, or — with
    ``ro_mode="locked"`` — the *identical* scripts through the ordinary
    locked path, so the two modes compare draw for draw.  Workloads
    whose ADT has no observers (the queues) reject a nonzero
    ``read_mix``.
    """
    cases: Dict[str, Tuple[Callable[[], ADT], Callable]] = {
        "hotspot": (
            lambda: BankAccount("BA", opening=opening),
            lambda rng: hotspot_banking(
                rng, transactions=transactions, ops_per_txn=ops_per_txn
            ),
        ),
        "escrow": (
            lambda: EscrowAccount("ESC", opening=opening),
            lambda rng: escrow_workload(
                rng, transactions=transactions, ops_per_txn=ops_per_txn
            ),
        ),
        "semiqueue": (
            lambda: SemiQueue("Q"),
            lambda rng: producer_consumer(
                rng,
                obj="Q",
                producers=transactions // 2,
                consumers=transactions // 2,
                ops_per_txn=ops_per_txn,
            ),
        ),
        "fifo": (
            lambda: FifoQueue("Q"),
            lambda rng: producer_consumer(
                rng,
                obj="Q",
                producers=transactions // 2,
                consumers=transactions // 2,
                ops_per_txn=ops_per_txn,
            ),
        ),
        "set": (
            lambda: SetADT("SET"),
            lambda rng: set_membership_workload(
                rng, transactions=transactions, ops_per_txn=ops_per_txn
            ),
        ),
        "register": (
            lambda: Register("REG"),
            lambda rng: _register_workload(rng, transactions=transactions),
        ),
    }
    if workload not in cases:
        raise KeyError(
            "unknown workload %r (choose from: %s)"
            % (workload, ", ".join(sorted(cases)))
        )
    adt_factory, base_workload = cases[workload]
    if not read_mix:
        return adt_factory, base_workload
    if not 0.0 <= read_mix <= 1.0:
        raise ValueError("read_mix must be in [0, 1] (got %g)" % read_mix)
    if ro_mode not in ("snapshot", "locked"):
        raise ValueError(
            "ro_mode must be 'snapshot' or 'locked' (got %r)" % ro_mode
        )
    probe = adt_factory()
    if not probe.readonly_invocations():
        raise ValueError(
            "workload %r uses ADT %r, which has no read-only observer "
            "invocations; read_mix > 0 is unsupported for it"
            % (workload, probe.name)
        )
    readers = max(1, round(read_mix * transactions))

    def workload_with_readers(
        rng: random.Random,
    ) -> Sequence[TransactionScript]:
        scripts = list(base_workload(rng))
        adt = adt_factory()
        scripts.extend(
            readonly_snapshot_workload(
                adt,
                rng,
                objs=[adt.name],
                readers=readers,
                reads_per_txn=ops_per_txn,
                snapshot=(ro_mode == "snapshot"),
            )
        )
        return scripts

    return adt_factory, workload_with_readers


def run_configuration(
    config: Configuration,
    adt_factory: Callable[[], ADT],
    workload: Callable[[random.Random], Sequence[TransactionScript]],
    *,
    seeds: Sequence[int] = tuple(range(8)),
    max_restarts: int = 25,
) -> List[RunMetrics]:
    """Run one configuration across seeds; fresh system per run."""
    runs: List[RunMetrics] = []
    for seed in seeds:
        rng = random.Random(seed)
        scripts = workload(rng)
        adt = adt_factory()
        system = TransactionSystem(
            [ManagedObject(adt, config.conflict_factory(adt), config.recovery)]
        )
        runs.append(
            run_scripts(
                system,
                scripts,
                seed=seed,
                label=config.label,
                max_restarts=max_restarts,
            )
        )
    return runs


def compare(
    adt_factory: Callable[[], ADT],
    workload: Callable[[random.Random], Sequence[TransactionScript]],
    *,
    configurations: Optional[Sequence[Configuration]] = None,
    seeds: Sequence[int] = tuple(range(8)),
) -> List[MetricsSummary]:
    """Run every configuration on one workload and summarize."""
    configurations = configurations or standard_configurations()
    return [
        summarize(c.label, run_configuration(c, adt_factory, workload, seeds=seeds))
        for c in configurations
    ]


def compare_cells(
    workload: str,
    *,
    configurations: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = tuple(range(8)),
    transactions: int = 8,
    ops_per_txn: int = 3,
    opening: int = 100,
    read_mix: float = 0.0,
    ro_mode: str = "snapshot",
    max_restarts: int = 25,
) -> List["Cell"]:
    """The cell decomposition of one named comparison sweep.

    Configuration-major, seed-minor — the same nesting as the serial
    :func:`compare` loop, so merging results back in cell order
    reproduces its summaries exactly.
    """
    from ..runtime.parallel import Cell

    labels = list(
        configurations
        if configurations is not None
        else [c.label for c in standard_configurations()]
    )
    cells = []
    for c, label in enumerate(labels):
        configuration_by_label(label)  # fail fast on unknown labels
        for s, seed in enumerate(seeds):
            cells.append(
                Cell(
                    index=c * len(seeds) + s,
                    kind="compare",
                    spec={
                        "workload": workload,
                        "config": label,
                        "transactions": transactions,
                        "ops": ops_per_txn,
                        "opening": opening,
                        "read_mix": read_mix,
                        "ro_mode": ro_mode,
                        "max_restarts": max_restarts,
                        "label": "%s/%s" % (workload, label),
                    },
                    seed=seed,
                )
            )
    return cells


def compare_parallel(
    workload: str,
    *,
    configurations: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = tuple(range(8)),
    transactions: int = 8,
    ops_per_txn: int = 3,
    opening: int = 100,
    read_mix: float = 0.0,
    ro_mode: str = "snapshot",
    max_restarts: int = 25,
    workers: int = 1,
) -> Tuple[List[MetricsSummary], List["CellResult"]]:
    """:func:`compare` for a *named* workload, as cells of the parallel
    engine: inline at ``workers=1`` (what ``repro compare`` runs by
    default), fanned over a process pool otherwise.

    Returns ``(summaries, failed_cells)``.  The summaries are
    byte-identical to :func:`compare`'s whenever ``failed_cells`` is
    empty; per the failed-cell contract, a configuration whose every
    cell failed is dropped from the summaries and the survivors
    aggregate only their completed seeds — callers must surface
    ``failed_cells`` (the CLI prints them and exits 1).
    """
    from ..runtime.parallel import ParallelRunner

    labels = list(
        configurations
        if configurations is not None
        else [c.label for c in standard_configurations()]
    )
    cells = compare_cells(
        workload,
        configurations=labels,
        seeds=seeds,
        transactions=transactions,
        ops_per_txn=ops_per_txn,
        opening=opening,
        read_mix=read_mix,
        ro_mode=ro_mode,
        max_restarts=max_restarts,
    )
    results = ParallelRunner(workers).run(cells)
    failed = [r for r in results if not r.ok]
    summaries = []
    for c, label in enumerate(labels):
        runs = [
            r.value
            for r in results[c * len(seeds) : (c + 1) * len(seeds)]
            if r.ok
        ]
        if runs:
            summaries.append(summarize(label, runs))
    return summaries, failed


# -- EXP-C1: the hot-spot account across operation mixes -------------------------


HOTSPOT_MIXES: Tuple[Tuple[str, Dict], ...] = (
    (
        "withdraw-heavy",
        dict(deposit_weight=0.1, withdraw_weight=0.9, balance_weight=0.0),
    ),
    (
        "deposit-heavy",
        dict(deposit_weight=0.9, withdraw_weight=0.1, balance_weight=0.0),
    ),
    (
        "updates-only-even",
        dict(deposit_weight=0.5, withdraw_weight=0.5, balance_weight=0.0),
    ),
    (
        "mixed-with-reads",
        dict(deposit_weight=0.4, withdraw_weight=0.4, balance_weight=0.2),
    ),
)


def exp_c1_hotspot(
    *,
    transactions: int = 8,
    ops_per_txn: int = 3,
    opening: int = 100,
    seeds: Sequence[int] = tuple(range(8)),
) -> Dict[str, List[MetricsSummary]]:
    """EXP-C1: hot bank account, one summary list per operation mix."""
    results: Dict[str, List[MetricsSummary]] = {}
    for mix_name, weights in HOTSPOT_MIXES:
        def workload(rng: random.Random, _w=weights):
            return hotspot_banking(
                rng, transactions=transactions, ops_per_txn=ops_per_txn, **_w
            )

        results[mix_name] = compare(
            lambda: BankAccount("BA", opening=opening), workload, seeds=seeds
        )
    return results


# -- EXP-C2: one workload per ADT -----------------------------------------------------


def exp_c2_adts(
    *,
    seeds: Sequence[int] = tuple(range(8)),
) -> Dict[str, List[MetricsSummary]]:
    """EXP-C2: the standard configurations on per-ADT workloads."""
    cases: Dict[str, Tuple[Callable[[], ADT], Callable]] = {
        "escrow": (
            # An empty escrow: many debits fail, and (credit, debit-NO)
            # plus the NRBC-only (debit-NO, debit-OK) conflicts are the
            # live ones — the regime where deferred update's freedoms
            # pay and update-in-place's do not.
            lambda: EscrowAccount("ESC", opening=0),
            lambda rng: escrow_workload(rng, transactions=8, ops_per_txn=3),
        ),
        "semiqueue": (
            lambda: SemiQueue("Q"),
            lambda rng: producer_consumer(rng, obj="Q", producers=4, consumers=4),
        ),
        "fifo-queue": (
            lambda: FifoQueue("Q"),
            lambda rng: producer_consumer(rng, obj="Q", producers=4, consumers=4),
        ),
        "set": (
            lambda: SetADT("SET", domain=("a", "b", "c", "d")),
            lambda rng: set_membership_workload(
                rng, transactions=8, ops_per_txn=3, elements=("a", "b", "c", "d")
            ),
        ),
        "register": (
            lambda: Register("REG", domain=("u", "v"), initial="u"),
            lambda rng: _register_workload(rng),
        ),
    }
    return {
        name: compare(adt_factory, workload, seeds=seeds)
        for name, (adt_factory, workload) in cases.items()
    }


def _register_workload(
    rng: random.Random, transactions: int = 8, ops_per_txn: int = 3
) -> List[TransactionScript]:
    from ..core.events import inv

    scripts = []
    for t in range(transactions):
        steps = []
        for _ in range(ops_per_txn):
            if rng.random() < 0.5:
                steps.append(("REG", inv("read")))
            else:
                steps.append(("REG", inv("write", rng.choice(["u", "v"]))))
        scripts.append(TransactionScript("T%d" % t, tuple(steps)))
    return scripts


# -- EXP-C3: the symmetry ablation ----------------------------------------------------


def exp_c3_symmetry(
    *,
    transactions: int = 8,
    ops_per_txn: int = 3,
    opening: int = 100,
    seeds: Sequence[int] = tuple(range(8)),
) -> List[MetricsSummary]:
    """EXP-C3: NRBC vs its symmetric closure on the withdrawal-heavy mix.

    The symmetric closure adds (deposit, withdraw-OK) and
    (withdraw-OK, withdraw-NO)-mirror conflicts that Theorem 9 proves
    unnecessary; the throughput gap is the cost of the old symmetry
    assumption.
    """
    configs = (
        Configuration("UIP+NRBC", "UIP", lambda adt: adt.nrbc_conflict()),
        Configuration(
            "UIP+sym(NRBC)", "UIP", lambda adt: symmetric_closure(adt.nrbc_conflict())
        ),
    )

    def workload(rng: random.Random):
        return hotspot_banking(
            rng,
            transactions=transactions,
            ops_per_txn=ops_per_txn,
            deposit_weight=0.3,
            withdraw_weight=0.7,
            balance_weight=0.0,
        )

    return compare(
        lambda: BankAccount("BA", opening=opening),
        workload,
        configurations=configs,
        seeds=seeds,
    )


def render_experiment(results: Dict[str, List[MetricsSummary]]) -> str:
    """Human-readable rendering of a multi-case experiment."""
    blocks = []
    for case, summaries in results.items():
        blocks.append("== %s ==" % case)
        blocks.append(format_summary_table(summaries))
        blocks.append("")
    return "\n".join(blocks)
