"""One repeat of one workload, in this fresh single-threaded interpreter.

``run.py`` starts this file once per repeat and reads the JSON object it
prints last.  ``--mode ledger`` times the same call under the span ledger
(``spans.py``); end-to-end numbers only ever come from ``--mode plain``.
``--mode setup`` stops before the timed call: one more set-up sample.
"""

import time

ENTRY = time.perf_counter()  # before the imports: they are set-up time

import argparse
import json
import pathlib
import resource
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB.

    ``VmHWM`` where the kernel offers it: ``ru_maxrss`` survives exec,
    so a repeat smaller than the ``run.py`` that started it would report
    its parent's size.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "ledger", "setup"), default="plain")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print("repeat.py: no product to measure at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Ledger
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.setup(args.seed)
    if args.mode == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - ENTRY}))
        return 0
    ledger = Ledger()
    if args.mode == "ledger":
        ledger.install()
    start = time.perf_counter()
    try:
        wall_s = workload.run()
    finally:
        ledger.uninstall()
    outcome = workload.outcome()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": start - ENTRY,
        "wall_s": wall_s,
        "offered": outcome.offered,
        "done": outcome.done,
        "failed": outcome.failed,
        "counters": outcome.counters,
        "tick": outcome.tick,
        "counts": outcome.counts,
        "problems": outcome.problems,
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.mode == "ledger":
        result["spans"] = ledger.rows()
        result["spans_missing"] = len(ledger.missing)
        for name in ledger.missing:
            print("repeat.py: span target is gone: %s" % name, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
