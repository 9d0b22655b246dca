"""Compare two sets of benchmark results, metric by metric.

    python benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are result files written by
``run.py --out``, or directories of them; every repeat in every file of
a side is one sample.  One row per (workload, metric): both medians with
their quartiles, the ratio B/A with its base, and a verdict.

* host-time metrics: ``REGRESSION`` when B's median is worse than A's by
  more than the metric's bound (and its absolute floor); ``unresolved``
  when either side's quartile spread exceeds the bound, unless every B
  sample beats every A sample;
* tick-space metrics and counters must be identical: ``CHANGED``
  otherwise (and ``REGRESSION`` when worse by more than the bound).

Exit status is non-zero on any ``REGRESSION`` or ``CHANGED`` row.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from metrics import END_TO_END, Metric, quartiles  # noqa: E402


def load(path: str) -> List[Dict[str, object]]:
    """The result objects of one side: a file, or every file of a directory."""
    target = pathlib.Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        raise SystemExit("compare.py: no result files in %s" % path)
    return [json.loads(f.read_text()) for f in files]


def samples(results: Sequence[Dict[str, object]], workload: str, metric: str) -> List[float]:
    """Every sample of one metric on one workload, over all result files."""
    out: List[float] = []
    for result in results:
        entry = result["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
        if entry is not None:
            out.extend(entry.get("samples", [entry["value"]]))
    return out


def worse_by(metric: Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, in the metric's unit (<= 0: not worse)."""
    return a - b if metric.better == "higher" else b - a


def host_verdict(metric: Metric, a: Sequence[float], b: Sequence[float]) -> str:
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > metric.bound and not all(
        worse_by(metric, x, y) < 0 for x in a for y in b
    ):
        return "unresolved"
    worse = worse_by(metric, a_med, b_med)
    if worse > metric.bound * a_med and worse > metric.floor:
        return "REGRESSION"
    return "ok"


def tick_verdict(metric: Metric, a: Sequence[float], b: Sequence[float]) -> str:
    if len(set(a) | set(b)) == 1:
        return "same"
    a_med, b_med = quartiles(a)[1], quartiles(b)[1]
    if worse_by(metric, a_med, b_med) > metric.bound * abs(a_med):
        return "CHANGED REGRESSION"
    return "CHANGED"


def compare(
    a_results: Sequence[Dict[str, object]], b_results: Sequence[Dict[str, object]]
) -> List[Tuple[str, str, str, str, str, str]]:
    """One (workload, metric, A, B, ratio, verdict) row per pairing."""
    rows = []
    for workload in a_results[0]["workloads"]:
        for metric in END_TO_END:
            a = samples(a_results, workload, metric.name)
            b = samples(b_results, workload, metric.name)
            if not a and not b:
                continue  # the workload does not report this metric
            if not a or not b:
                verdict = "CHANGED (reported on one side only)"
            elif metric.space == "host":
                verdict = host_verdict(metric, a, b)
            else:
                verdict = tick_verdict(metric, a, b)
            rows.append((workload, metric.name, _cell(a), _cell(b), _ratio(a, b), verdict))
        counters = [
            r["workloads"][workload]["counters"]
            for r in list(a_results) + list(b_results) if workload in r["workloads"]
        ]
        same = len(counters) > len(a_results) and all(c == counters[0] for c in counters)
        rows.append((workload, "counters", "", "", "", "same" if same else "CHANGED"))
    return rows


def failed(rows: Sequence[Tuple[str, ...]]) -> bool:
    """Whether any row is a regression or a tick-space difference."""
    return any("REGRESSION" in row[-1] or "CHANGED" in row[-1] for row in rows)


def _cell(values: Sequence[float]) -> str:
    if not values:
        return "-"
    q1, med, q3 = quartiles(values)
    return "%.6g [%.6g..%.6g]" % (med, q1, q3)


def _ratio(a: Sequence[float], b: Sequence[float]) -> str:
    if not a or not b:
        return "-"
    a_med, b_med = quartiles(a)[1], quartiles(b)[1]
    if a_med == 0:
        return "- (A=0)"
    return "%.3f (A=%.4g)" % (b_med / a_med, a_med)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(load(args[0]), load(args[1]))
    layout = "%-20s %-18s %-30s %-30s %-18s %s"
    print(layout % ("workload", "metric", "A median [q1..q3]", "B median [q1..q3]",
                    "B/A (base A)", "verdict"))
    for row in rows:
        print(layout % row)
    return 1 if failed(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
