"""EXP-C3: the cost of forcing conflict relations to be symmetric.

Section 6.3 notes that prior work assumed symmetric conflict relations;
Theorem 9 shows the asymmetric NRBC suffices for update-in-place.  This
ablation measures the throughput cost of the symmetric closure on a
withdrawal-leaning hot-spot mix, where the closure adds the
(deposit, withdraw-OK) conflict that NRBC proves unnecessary.
"""

import pytest

from repro.adts import BankAccount
from repro.core.conflict import relation_difference, symmetric_closure
from repro.experiments.comparisons import exp_c3_symmetry
from repro.runtime import format_summary_table


@pytest.mark.experiment("EXP-C3")
def test_symmetric_closure_adds_conflicts(benchmark):
    ba = BankAccount(domain=(1, 2))

    def diff():
        nrbc = ba.nrbc_conflict()
        return relation_difference(
            symmetric_closure(nrbc), nrbc, ba.ground_alphabet()
        )

    extra = benchmark(diff)
    assert extra  # the closure is strictly larger
    assert any(
        new.name == "deposit" and old.name == "withdraw" and old.response == "ok"
        for new, old in extra
    )


@pytest.mark.experiment("EXP-C3")
def test_symmetry_throughput_cost(benchmark, capsys):
    summaries = benchmark.pedantic(
        lambda: exp_c3_symmetry(seeds=tuple(range(6))), rounds=1, iterations=1
    )
    by_label = {s.label: s for s in summaries}
    with capsys.disabled():
        print("\n-- EXP-C3 symmetric-closure ablation --")
        print(format_summary_table(summaries))
    assert (
        by_label["UIP+NRBC"].mean_throughput
        >= by_label["UIP+sym(NRBC)"].mean_throughput
    )
