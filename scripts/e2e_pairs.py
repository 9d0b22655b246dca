#!/usr/bin/env python3
"""Alternated pairs of end-to-end benchmark runs, parent against change.

    python scripts/e2e_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 14]

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  Pair
``i`` runs seed ``i`` on both, the parent first on even pairs and the
change first on odd ones (on a small host the second of two
back-to-back runs reads slower whichever tree it is), each through that
tree's own ``benchmarks/e2e/run.py --workload W --seed N --seconds S
--trace 0``.  Printed per end-to-end metric of ``BENCHMARK.json``: every
pair, each side's median and quartiles, the ratio of medians on the
parent's, wins and ties, and the two verdicts of the ``choosing-metrics``
guide's section 8 —

* ``gain``: the change wins at least nine tenths of all pairs run (ties
  count for neither side) and the medians differ, the right way, by more
  than the distance between the parent's own quartiles;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound; ``unresolved`` when the parent's quartiles are
  further apart than the bound allows and some run of the change reads
  no better than some run of the parent.

Under the verdicts, each side runs once more with ``--trace 1`` on the
first seed, and every tick-space and counter row that differs between
the two is printed (ticks, deadlocks, ``blocked_attempts``,
``abort_per_commit``, ``lat_p*``, ...): a change that moves tick space
on purpose shows what it moved beside the speed it claims, and one that
should not shows that it did not.

Exit status is non-zero when a run failed, printed a wrong output or
failed operations, or when a tree compared with itself differs in tick
space.  Byte-compile both trees (or neither) first: ``setup_s`` is
mostly imports.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple


#: per-layer rows of a ``--trace 1`` line that are host time, not tick
#: space: seconds, and the ratios taken of them.
HOST_UNITS = ("s", "us/tick")
HOST_RATIOS = ("ledger.overhead_ratio", "ledger.coverage", "torture.audit_share")


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> Dict[str, object]:
    """One ``run.py`` of ``tree``; the object on its last line."""
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            "%s: run.py --workload %s --seed %d exited %d\n%s"
            % (tree, workload, seed, proc.returncode, proc.stdout)
        )
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdicts(parent: List[float], change: List[float], higher_is_better: bool,
             bound: float) -> Tuple[int, int, str, str]:
    """``(wins, ties, gain, regression)`` for one metric."""
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    q1, base, q3 = quartiles(parent)
    better_by = sign * (statistics.median(change) - base)
    gain = "met" if wins >= 0.9 * len(parent) and better_by > q3 - q1 else "not met"
    if higher_is_better:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if -better_by > bound * abs(base):
        regression = "REGRESSED"
    elif q3 - q1 > bound * abs(base) and not all_better:
        regression = "unresolved"
    else:
        regression = "none"
    return wins, ties, gain, regression


def tick_rows(parent: Dict[str, object], change: Dict[str, object]
              ) -> List[Tuple[str, object, object]]:
    """``(name, parent value, change value)`` for every tick-space or
    counter row of two ``--trace 1`` lines that differs, in line order."""
    before, after = parent["metrics"], change["metrics"]
    return [
        (name, before[name]["value"], after.get(name, {}).get("value"))
        for name, entry in before.items()
        if entry["unit"] not in HOST_UNITS and name not in HOST_RATIOS
        and entry["value"] != after.get(name, {}).get("value")
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: BENCHMARK.json's)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["end_to_end"]
    samples: Dict[str, Dict[str, List[float]]] = {
        side: {m["name"]: [] for m in metrics} for side in trees
    }
    wrong = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            line = run_once(trees[side], args.workload, pair, seconds)
            wrong += (not line["correct"]) + line["failed"]
            for m in metrics:
                samples[side][m["name"]].append(line["metrics"][m["name"]]["value"])
        print("pair %d (seed %d, %s first): %s" % (
            pair, pair, order[0],
            "  ".join(
                "%s %.6g | %.6g" % (m["name"], samples["parent"][m["name"]][-1],
                                    samples["change"][m["name"]][-1])
                for m in metrics
            ),
        ), flush=True)
    print("%s, %d pairs of %gs runs, parent | change" % (args.workload, args.pairs, seconds))
    for m in metrics:
        name = m["name"]
        parent, change = samples["parent"][name], samples["change"][name]
        wins, ties, gain, regression = verdicts(
            parent, change, m["better"] == "higher", m["bound"]
        )
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        print(
            "%-12s median %.6g (q1-q3 %.6g-%.6g) | %.6g (%.6g-%.6g) %s; "
            "ratio %.3f on base %.6g; change wins %d, ties %d of %d; "
            "gain: %s; regression (bound %g): %s"
            % (name, p2, p1, p3, c2, c1, c3, m["unit"], c2 / p2 if p2 else float("nan"),
               p2, wins, ties, len(parent), gain, m["bound"], regression)
        )
    traced = {side: run_once(tree, args.workload, 0, 0, trace=1) for side, tree in trees.items()}
    wrong += sum((not line["correct"]) + line["failed"] for line in traced.values())
    moved = tick_rows(traced["parent"], traced["change"])
    print("tick space and counters, seed 0 (--trace 1): %s"
          % ("%d rows differ, parent | change" % len(moved) if moved else "no row differs"))
    for name, before, after in moved:
        print("  %-34s %.6g | %s" % (name, before, "-" if after is None else "%.6g" % after))
    if moved and trees["parent"] == trees["change"]:
        print("WRONG: a tree differs from itself in tick space")
        wrong += 1
    if wrong:
        print("WRONG: %d runs incorrect or operations failed" % wrong)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
