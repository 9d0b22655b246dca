#!/usr/bin/env python3
"""Do two checkouts print the same bytes on the standard CLI flows?

    python scripts/same_output.py PARENT CHANGE [--out DIR]

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  Each
flow of :data:`FLOWS` runs as ``python -m repro ...`` once in each tree
(``PYTHONPATH=<tree>/src``, ``PYTHONHASHSEED=0``), in its own directory
under ``--out``, with ``--trace-out trace.jsonl`` where the command
takes one.  Both exit codes must be 0 — a flow that fails in both trees
shows nothing about its behaviour — the two stdouts must be equal once
a drive's ``wall clock`` line (host time) is dropped, and the two traces
must be equal byte for byte.  A flow's stderr is kept beside
its stdout but not compared.

Exit status 0 when every flow matches; 1 at the first flow that
differs, which is named with what differed.  A change that must not
move behaviour (a refactor, a deletion) is shown byte-identical here.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

#: ``(name, repro arguments, takes --trace-out)``, cheapest first.
FLOWS: Sequence[Tuple[str, Tuple[str, ...], bool]] = (
    ("compare-hotspot", ("compare", "hotspot"), False),
    ("torture", ("torture", "--seed", "0", "--schedules", "50"), True),
    ("torture-sites", ("torture", "--seed", "0", "--schedules", "50", "--sites", "2"), True),
    ("torture-sites3-ro", ("torture", "--seed", "0", "--sites", "3", "--read-mix", "0.5",
                           "--schedules", "60"), True),
    ("torture-gc-checkpoint", ("torture", "--group-commit", "4", "--hold", "2",
                               "--checkpoint-every", "5"), True),
    ("torture-sites-gc", ("torture", "--sites", "2", "--group-commit", "4", "--hold", "4",
                          "--schedules", "400"), True),
    ("run-bank-gc", ("run", "bank", "--group-commit", "4", "--hold", "4"), True),
    ("run-bank-gc-sites", ("run", "bank", "--group-commit", "4", "--hold", "4",
                           "--sites", "2", "--site-crash", "0@20-60"), True),
    ("run-kv-uip", ("run", "kv", "--recovery", "uip"), True),
    ("drive-shards", ("drive", "--shards", "2"), True),
    ("drive-sites", ("drive", "--sites", "3", "--site-crash", "1@50-200"), True),
    ("drive-sites-overlap", ("drive", "--sites", "3", "--group-commit", "4", "--hold", "4",
                             "--site-crash", "0@40-150", "--site-crash", "1@60-220"), True),
    ("drive-kv", ("drive", "--adt", "kv", "--transactions", "300"), True),
    ("drive-pqueue", ("drive", "--adt", "pqueue", "--recovery", "du", "--objects", "4",
                      "--shards", "2", "--transactions", "1500", "--zipf", "1.1"), True),
    ("drive-set", ("drive", "--adt", "set", "--transactions", "600"), True),
)

#: stdout lines that are host time, not behaviour.
HOST_LINES = ("wall clock",)


def run_flow(tree: pathlib.Path, args: Sequence[str], traced: bool,
             where: pathlib.Path) -> int:
    """Run one flow of ``tree`` in ``where``; returns its exit code."""
    where.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "repro", *args]
    if traced:
        command += ["--trace-out", "trace.jsonl"]
    with open(where / "stdout", "wb") as out, open(where / "stderr", "wb") as err:
        return subprocess.run(command, cwd=where, env=env, stdout=out,
                              stderr=err).returncode


def behaviour(path: pathlib.Path) -> List[bytes]:
    """A stdout's lines, less the host-time ones."""
    return [line for line in path.read_bytes().splitlines()
            if not line.decode(errors="replace").startswith(HOST_LINES)]


def differences(parent: pathlib.Path, change: pathlib.Path,
                codes: Tuple[int, int], traced: bool) -> List[str]:
    """What differs between one flow's two run directories."""
    found = []
    if any(codes):
        found.append("exit code %d | %d" % codes)
    if behaviour(parent / "stdout") != behaviour(change / "stdout"):
        found.append("stdout")
    if traced:
        traces = [side / "trace.jsonl" for side in (parent, change)]
        if not all(t.exists() for t in traces):
            found.append("trace.jsonl missing")
        elif not filecmp.cmp(*traces, shallow=False):
            found.append("trace.jsonl")
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="keep each run's stdout, stderr and trace here "
                             "(default: a temporary directory)")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    with tempfile.TemporaryDirectory() as scratch:
        out = args.out.resolve() if args.out is not None else pathlib.Path(scratch)
        for name, flow_args, traced in FLOWS:
            sides = (out / name / "parent", out / name / "change")
            codes = tuple(run_flow(tree, flow_args, traced, side)
                          for tree, side in zip(trees, sides))
            found = differences(*sides, codes, traced)
            if found:
                print("DIFFERS: %s (repro %s): %s"
                      % (name, " ".join(flow_args), ", ".join(found)))
                return 1
            print("same: %s (exit %d)" % (name, codes[0]), flush=True)
    print("%d flows, no output differs" % len(FLOWS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
