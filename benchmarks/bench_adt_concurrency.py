"""EXP-C2: the recovery/conflict trade-off across ADT workloads.

One workload per ADT; the shape assertions encode who the theory says
should win where:

* semiqueue producer/consumer — UIP+NRBC (dequeues commute backward);
* escrow (frequent failed debits) — DU+NFC (failed debits poison NRBC's
  asymmetric conflicts with credits, causing deadlock-restart churn);
* register — typed locking degenerates to 2PL: all configurations tie
  (within noise) because the relations coincide.
"""

import pytest

from repro.adts import EscrowAccount, FifoQueue, Register, SemiQueue
from repro.experiments.comparisons import (
    _register_workload,
    compare,
)
from repro.runtime import escrow_workload, format_summary_table, producer_consumer

SEEDS = tuple(range(6))


@pytest.mark.experiment("EXP-C2")
def test_semiqueue_producer_consumer(benchmark, capsys):
    summaries = benchmark.pedantic(
        lambda: compare(
            lambda: SemiQueue("Q"),
            lambda rng: producer_consumer(rng, obj="Q", producers=4, consumers=4),
            seeds=SEEDS,
        ),
        rounds=1,
        iterations=1,
    )
    by_label = {s.label: s for s in summaries}
    with capsys.disabled():
        print("\n-- EXP-C2 semiqueue producer/consumer --")
        print(format_summary_table(summaries))
    assert by_label["UIP+NRBC"].mean_throughput > by_label["DU+NFC"].mean_throughput
    assert (
        by_label["UIP+NRBC"].mean_throughput
        > by_label["UIP+2PL-rw"].mean_throughput
    )


@pytest.mark.experiment("EXP-C2")
def test_fifo_queue_producer_consumer(benchmark, capsys):
    summaries = benchmark.pedantic(
        lambda: compare(
            lambda: FifoQueue("Q"),
            lambda rng: producer_consumer(rng, obj="Q", producers=4, consumers=4),
            seeds=SEEDS,
        ),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print("\n-- EXP-C2 FIFO queue producer/consumer --")
        print(format_summary_table(summaries))
    by_label = {s.label: s for s in summaries}
    # FIFO ordering serializes enqueues under both typed relations; the
    # interesting comparison is against the semiqueue (see EXPERIMENTS.md).
    assert all(s.mean_throughput > 0 for s in summaries)


@pytest.mark.experiment("EXP-C2")
def test_escrow_mixed_credit_debit(benchmark, capsys):
    """An empty escrow under credit/debit traffic: most debits fail.

    Failed debits commute with each other under both relations, but the
    NRBC-only conflicts (debit-NO, debit-OK) and (debit-OK, credit)
    stay live under update-in-place while deferred update's symmetric
    NFC avoids the asymmetric interleavings — DU+NFC edges out
    UIP+NRBC here (the mirror image of the withdrawal-heavy win).
    The edge is small, so it is read over 64 seeds: on 8, part of it
    was churn from cycles found late, and it flipped once deadlocks
    were broken at the wait that closes them.
    """
    summaries = benchmark.pedantic(
        lambda: compare(
            lambda: EscrowAccount("ESC", opening=0),
            lambda rng: escrow_workload(rng, obj="ESC", transactions=8, ops_per_txn=3),
            seeds=tuple(range(64)),
        ),
        rounds=1,
        iterations=1,
    )
    by_label = {s.label: s for s in summaries}
    with capsys.disabled():
        print("\n-- EXP-C2 escrow credit/debit (opening 0) --")
        print(format_summary_table(summaries))
    assert by_label["DU+NFC"].mean_throughput > by_label["UIP+NRBC"].mean_throughput


@pytest.mark.experiment("EXP-C2")
def test_register_all_tie(benchmark, capsys):
    summaries = benchmark.pedantic(
        lambda: compare(
            lambda: Register("REG", domain=("u", "v"), initial="u"),
            _register_workload,
            seeds=SEEDS,
        ),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print("\n-- EXP-C2 register read/write --")
        print(format_summary_table(summaries))
    by_label = {s.label: s for s in summaries}
    # NFC = NRBC = rw-matrix on the register: UIP+NRBC and DU+NFC use
    # identical conflicts; any gap is pure recovery-method noise.
    gap = abs(
        by_label["UIP+NRBC"].mean_throughput - by_label["UIP+2PL-rw"].mean_throughput
    )
    assert gap < 0.15
