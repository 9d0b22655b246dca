"""The end-to-end benchmark: six workloads, ten metrics, a per-layer ledger.

    python benchmarks/e2e/run.py --seed 0                 # all six, ledger included
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The second form is the one ``BENCHMARK.json`` names: it measures one
workload and prints, as its last line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace
1``).  The first form runs that for every workload and writes all of it,
with the environment block, to ``--out``.

Every repeat runs in a fresh interpreter (``repeat.py``), one after the
other.  Exit status is non-zero when an output is wrong: repeats that
disagree in tick space, a trace that does not reconcile, a torture
violation, an undetected negative control, or a workload outside the
regime it was chosen for.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from metrics import BY_NAME, DRIVER_END_TO_END, END_TO_END, PER_LAYER, layer_metrics  # noqa: E402

#: one repeat may not take longer than this (the driver allows 180 s a run).
REPEAT_TIMEOUT_S = 150
#: set-up-only interpreters started per run, besides the repeats.
EXTRA_SETUPS = 4
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def run_repeat(workload: str, seed: int, mode: str = "plain") -> Dict[str, object]:
    """One repeat in a fresh interpreter; its result object.

    String hashing is pinned: a random ``PYTHONHASHSEED`` moves dict and
    set layouts from process to process and, measured on
    ``steady_hotspot``, widens the spread of ``txn_per_s`` between
    repeats of one seed from 4% to 9%.  The ledger run gets another
    hash seed than the plain ones, so that ``ledger.counters_identical``
    also shows that no result depends on hash order.
    """
    env = dict(os.environ, PYTHONHASHSEED="1" if mode == "ledger" else "0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "repeat.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode],
        stdout=subprocess.PIPE, text=True, timeout=REPEAT_TIMEOUT_S, env=env,
    )
    if proc.returncode != 0:
        raise SystemExit("repeat of %s failed with status %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, *, ledger: bool) -> Dict[str, object]:
    """Plain repeats of ``workload`` until ``seconds`` have passed, then
    (with ``ledger``) one more repeat on the same seed under the spans."""
    plain: List[Dict[str, object]] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(run_repeat(workload, seed))
    first = plain[0]
    problems = [p for r in plain for p in r["problems"]]
    for r in plain[1:]:
        if (r["tick"], r["counters"]) != (first["tick"], first["counters"]):
            problems.append("repeats of one seed disagree in tick space")
            break
    samples = {
        "txn_per_s": [r["done"] / r["wall_s"] for r in plain],
        # Set-up is a quarter of a second of imports, so a run can
        # afford more samples of it than it has repeats.
        "setup_s": [r["setup_s"] for r in plain] + [
            run_repeat(workload, seed, "setup")["setup_s"] for _ in range(EXTRA_SETUPS)
        ],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    end_to_end = {
        name: {"unit": BY_NAME[name].unit, "value": statistics.median(values),
               "samples": values}
        for name, values in samples.items()
    }
    for name, value in first["tick"].items():
        end_to_end[name] = {"unit": BY_NAME[name].unit, "value": value}
    result = {
        "repeats": len(plain),
        "attempted": sum(r["offered"] for r in plain),
        "failed": sum(r["failed"] for r in plain),
        "end_to_end": end_to_end,
        "counters": first["counters"],
        "problems": problems,
    }
    if ledger:
        traced = run_repeat(workload, seed, "ledger")
        identical = (traced["tick"], traced["counters"]) == (first["tick"], first["counters"])
        problems.extend(traced["problems"])
        if not identical:
            problems.append("the ledger run's counters differ from the plain run's")
        layers = layer_metrics(traced, [r["wall_s"] for r in plain])
        layers["ledger.counters_identical"] = int(identical)
        result["per_layer"] = {
            name: {"unit": PER_LAYER_UNITS[name], "value": layers[name]}
            for name, _, _ in PER_LAYER if name in layers
        }
        result["spans"] = traced["spans"]
    return result


def environment() -> Dict[str, object]:
    """Stored with every result: where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": has_numpy,
        "cpu": cpu,
        "loadavg_at_start": os.getloadavg()[0],
    }


def print_metrics(workload: str, result: Dict[str, object]) -> None:
    for group in ("end_to_end", "per_layer"):
        for name, entry in result.get(group, {}).items():
            print("%-20s %-34s %14.6g %s" % (workload, name, entry["value"], entry["unit"]))
    for problem in result["problems"]:
        print("%-20s WRONG: %s" % (workload, problem))


def driver_line(result: Dict[str, object], trace: bool) -> Dict[str, object]:
    """The object the driver reads.  It wants every listed metric on
    every workload, so one a workload does not report goes out as 0."""
    if trace:
        found = dict(result["per_layer"], **result["end_to_end"])
        names = [(name, unit) for name, unit, _ in PER_LAYER] + [
            (m.name, m.unit) for m in END_TO_END if m.name not in DRIVER_END_TO_END
        ]
    else:
        found = result["end_to_end"]
        names = [(name, BY_NAME[name].unit) for name in DRIVER_END_TO_END]
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": found[name]["value"] if name in found else 0, "unit": unit}
            for name, unit in names
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", help="measure this one workload (the driver's form)")
    parser.add_argument("--seconds", type=float, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where the all-workloads form writes its results")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: no product to measure under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    # Workload names and run length come from ``BENCHMARK.json``;
    # ``workloads.py`` imports the product, which only the repeats do.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {w["name"]: w["why"] for w in spec["workloads"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is not None:
        if args.workload not in table:
            parser.error("unknown workload %r (choose from: %s)"
                         % (args.workload, ", ".join(table)))
        result = measure(args.workload, args.seed, seconds, ledger=bool(args.trace))
        print_metrics(args.workload, result)
        print(json.dumps(driver_line(result, bool(args.trace))))
        return 1 if result["problems"] else 0
    results = {"schema": 1, "seed": args.seed, "environment": environment(), "workloads": {}}
    for name, why in table.items():
        result = measure(name, args.seed, seconds, ledger=True)
        result["why"] = why
        results["workloads"][name] = result
        print_metrics(name, result)
    out = pathlib.Path(args.out or HERE / "results" / ("seed%d.json" % args.seed))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % out)
    return 1 if any(r["problems"] for r in results["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
