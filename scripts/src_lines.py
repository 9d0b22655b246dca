#!/usr/bin/env python3
"""Which lines of ``repro`` does a pytest run execute?

    python scripts/src_lines.py run OUT.json [PYTEST_ARG ...]
    python scripts/src_lines.py subset OLD.json NEW.json

``run`` calls ``pytest.main(PYTEST_ARG ...)`` under a ``sys.settrace``
line recorder limited to the ``repro`` package that ``import repro``
would load (``PYTHONPATH=src``), and writes the executed lines as JSON:
``{"src": <the directory holding repro>, "lines": {"repro/x.py": [...]}}``.
Only line events of frames in that package are recorded, so the run
costs a few times its untraced wall time; subprocesses a test starts
are not traced.  The exit status is pytest's.

``subset`` exits 1 when a line of ``OLD.json`` is not in ``NEW.json``
and lists the missing lines, file by file.  When the two runs traced
different source trees (a parent and a change), a file whose text
differs is mapped line by line through :mod:`difflib`: a line the change
deleted or rewrote cannot be executed there, and is listed as changed
but does not fail the check.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import json
import os
import pathlib
import sys
import threading
from typing import Dict, List, Optional, Set


def package_root() -> pathlib.Path:
    """The directory of the ``repro`` package, found without importing it."""
    spec = importlib.util.find_spec("repro")
    if spec is None or spec.origin is None:
        raise SystemExit("src_lines: no importable repro package (PYTHONPATH=src?)")
    return pathlib.Path(spec.origin).resolve().parent


def record(pytest_args: List[str]) -> tuple:
    """Run pytest under the line recorder: ``(exit code, src dir, lines)``."""
    import pytest

    root = package_root()
    prefix = str(root) + os.sep
    src = root.parent
    lines: Dict[str, Set[int]] = {}
    tracers: Dict[str, object] = {}

    def tracer_for(filename: str):
        if filename not in tracers:
            if not os.path.abspath(filename).startswith(prefix):
                tracers[filename] = None
            else:
                seen = lines.setdefault(
                    os.path.relpath(os.path.abspath(filename), src), set()
                )

                def local(frame, event, arg):
                    if event == "line":
                        seen.add(frame.f_lineno)
                    return local

                tracers[filename] = local
        return tracers[filename]

    def global_trace(frame, event, arg):
        tracer = tracer_for(frame.f_code.co_filename)
        if tracer is not None and event == "call" and frame.f_lineno:
            # the call event's own line is the def / first line
            tracer(frame, "line", arg)
        return tracer

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), src, lines


def line_map(old: pathlib.Path, new: pathlib.Path) -> Optional[Dict[int, int]]:
    """Old line number -> new line number for the lines both texts
    share, or None when the texts are equal (the identity)."""
    old_text = old.read_text().splitlines() if old.exists() else []
    new_text = new.read_text().splitlines() if new.exists() else []
    if old_text == new_text:
        return None
    mapping: Dict[int, int] = {}
    matcher = difflib.SequenceMatcher(None, old_text, new_text, autojunk=False)
    for block in matcher.get_matching_blocks():
        for offset in range(block.size):
            mapping[block.a + offset + 1] = block.b + offset + 1
    return mapping


def subset(old_path: str, new_path: str) -> int:
    old, new = (json.loads(pathlib.Path(p).read_text()) for p in (old_path, new_path))
    old_src, new_src = pathlib.Path(old["src"]), pathlib.Path(new["src"])
    missing: Dict[str, List[int]] = {}
    changed: Dict[str, List[int]] = {}
    for name, numbers in sorted(old["lines"].items()):
        executed = set(new["lines"].get(name, ()))
        mapping = None if old_src == new_src else line_map(old_src / name, new_src / name)
        for number in numbers:
            if mapping is not None and number not in mapping:
                changed.setdefault(name, []).append(number)
            elif (number if mapping is None else mapping[number]) not in executed:
                missing.setdefault(name, []).append(number)

    def count(table):
        return sum(len(numbers) for numbers in table.values())

    for label, table in (("changed in the source", changed), ("missing", missing)):
        for name, numbers in table.items():
            print("src_lines: %s %s: %s" % (label, name, ", ".join(map(str, numbers))))
    print("src_lines: OLD %d line(s), NEW %d; %d changed in the source, %d missing"
          % (count(old["lines"]), count(new["lines"]), count(changed), count(missing)))
    return 1 if missing else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="record the lines a pytest run executes")
    run.add_argument("out")
    run.add_argument("pytest_args", nargs=argparse.REMAINDER)
    check = commands.add_parser("subset", help="exit 1 if OLD has a line NEW lacks")
    check.add_argument("old")
    check.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "subset":
        return subset(args.old, args.new)
    code, src, lines = record(args.pytest_args)
    pathlib.Path(args.out).write_text(json.dumps(
        {"src": str(src), "lines": {k: sorted(v) for k, v in sorted(lines.items())}},
        indent=0,
    ))
    print("src_lines: %d line(s) in %d file(s) -> %s"
          % (sum(map(len, lines.values())), len(lines), args.out))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
