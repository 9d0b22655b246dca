"""Docs CLI gate: every fenced ``repro ...`` invocation must parse.

Usage::

    python scripts/check_docs_cli.py [FILE ...]

With no arguments, checks ``README.md`` and every ``docs/*.md`` in the
repository.  The script walks fenced code blocks, joins backslash
continuations, extracts each ``repro ...`` / ``python -m repro ...``
command (including ones embedded in shell plumbing like ``diff <(...)``),
and feeds its arguments to the real argparse parser.  A command that no
longer parses — a renamed flag, a dropped subcommand, a typo'd example —
fails the build, so the documentation cannot drift ahead of or behind
the CLI.  This is ``--help``-level validation: flags and subcommands
must exist and typed values must convert, but nothing executes and no
files need to exist.

``docs/API.md`` gets two more checks.  Its ``| Module | Purpose |``
tables hold one row per ``repro`` module (``__main__`` excluded): the
dotted name and the first line of the module's docstring, nothing else
(:func:`module_row`).  A module with no row, a row naming no module,
and a purpose cell that is not the docstring's first line each fail,
printing the expected row — so no row is ever re-synced by hand.  Its
``| Kind | Required fields |`` table holds one row per trace event kind
of ``repro.runtime.trace.EVENT_SCHEMA`` whose fields are exactly the
schema's, in order.

In ``docs/API.md``, ``docs/ARCHITECTURE.md`` and ``docs/REPLICATION.md``
every backticked `` `repro.pkg.name` `` must import or be an attribute
of what imports, and every backticked `` `Class.attr` `` (a call's
arguments aside) must name a ``repro`` class that defines ``attr`` or
assigns ``self.attr`` in its body or a base's — so prose cannot keep
pointing at a method after it is gone.  Globs (`` `repro.adts.*` ``) and
file names (`` `CHANGES.md` ``) are skipped.

A count quoted in ``README.md``, ``docs/API.md`` or ``EXPERIMENTS.md``
— "four event kinds", "10 ADTs", "1600+ tests" — must be one the code
base derives (:func:`derived_counts`) and must match it; a count of
something it cannot derive (tests, benchmarks) fails, so the prose
states no count that every change would have to re-sync by hand.

Every ``CHANGES.md`` entry (a top-level ``- `` bullet and its
continuation lines) is at most :data:`CHANGES_ENTRY_CAP` characters:
what moved, what was declared, the ``--numstat`` and the claim.  The
rest belongs in the commit.
"""

from __future__ import annotations

import argparse
import ast
import functools
import importlib
import inspect
import pathlib
import pkgutil
import re
import shlex
import sys
import textwrap
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import build_parser  # noqa: E402

COMMAND_RE = re.compile(r"(?:python -m |python3 -m )?repro\s")
# a command stops at shell plumbing that follows it on the same line
STOP_RE = re.compile(r"\s(?:\||>|>>|&&|;|2>)\s?")


def fenced_blocks(text: str) -> Iterator[str]:
    fence = None
    lines: List[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if fence is None:
            if stripped.startswith("```"):
                fence = stripped
                lines = []
        elif stripped == "```":
            fence = None
            yield "\n".join(lines)
        else:
            lines.append(line)


def join_continuations(block: str) -> List[str]:
    joined: List[str] = []
    for line in block.splitlines():
        if joined and joined[-1].endswith("\\"):
            joined[-1] = joined[-1][:-1].rstrip() + " " + line.strip()
        else:
            joined.append(line.rstrip())
    return joined


def extract_commands(path: pathlib.Path) -> Iterator[Tuple[str, str]]:
    """Yield (display, argv-tail) pairs for every documented command."""
    for block in fenced_blocks(path.read_text()):
        for line in join_continuations(block):
            for match in COMMAND_RE.finditer(line):
                tail = line[match.end():]
                stop = STOP_RE.search(tail)
                if stop:
                    tail = tail[: stop.start()]
                # commands inside $(...) / <(...) substitutions end at
                # the closing paren; trailing # comments are shell, not
                # arguments
                tail = tail.split(")", 1)[0]
                tail = tail.split(" #", 1)[0].rstrip()
                display = "repro " + tail
                yield display, tail


def check_file(path: pathlib.Path) -> Tuple[int, List[str]]:
    parser = build_parser()
    checked = 0
    failures: List[str] = []
    for display, tail in extract_commands(path):
        checked += 1
        try:
            tokens = shlex.split(tail)
        except ValueError as exc:
            failures.append("%s: %s -- unparseable shell: %s"
                            % (path.name, display, exc))
            continue
        try:
            parser.parse_args(tokens)
        except SystemExit as exc:
            if exc.code not in (0, None):
                failures.append(
                    "%s: does not parse: %s" % (path.name, display)
                )
    return checked, failures


def repro_modules() -> Dict[str, str]:
    """Every ``repro`` module but the root and ``__main__``, by dotted
    name -> the first line of its docstring."""
    import repro

    modules: Dict[str, str] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # importing it runs the CLI
        doc = (importlib.import_module(info.name).__doc__ or "").strip()
        modules[info.name] = doc.splitlines()[0] if doc else ""
    return modules


def module_row(name: str, purpose: str) -> str:
    return "| `%s` | %s |" % (name, purpose)


MODULE_ROW_RE = re.compile(r"^\| `([\w.]+)` \| (.*) \|$")
KIND_ROW_RE = re.compile(r"^\| `([\w-]+)` \| ([^|]*) \|")


def table_rows(text: str, header: str) -> Iterator[str]:
    """The body rows of every table of ``text`` whose header line starts
    with ``header``."""
    in_table = False
    for line in text.splitlines():
        if not line.startswith("|"):
            in_table = False
        elif line.startswith(header):
            in_table = True
        elif in_table and not line.startswith("|---"):
            yield line


def check_module_tables(path: pathlib.Path, modules: Dict[str, str]) -> List[str]:
    """Failures of the ``| Module | Purpose |`` tables of ``path`` (see above)."""
    failures: List[str] = []
    rows: Set[str] = set()
    for line in table_rows(path.read_text(), "| Module | Purpose |"):
        row = MODULE_ROW_RE.match(line)
        name = row.group(1) if row else line
        if name not in modules:
            failures.append("%s: `%s` does not import as a repro module" % (path.name, name))
            continue
        rows.add(name)
        if row.group(2) != modules[name]:
            failures.append("%s: `%s` purpose is not its docstring's first line; expected:\n%s"
                            % (path.name, name, module_row(name, modules[name])))
    for name in sorted(set(modules) - rows):
        failures.append("%s: `%s` has no row; expected:\n%s"
                        % (path.name, name, module_row(name, modules[name])))
    return failures


def check_event_table(path: pathlib.Path) -> List[str]:
    """Failures of the ``| Kind | Required fields |`` table of ``path``
    against ``EVENT_SCHEMA`` (see above)."""
    from repro.runtime.trace import EVENT_SCHEMA

    failures: List[str] = []
    kinds: Set[str] = set()
    for line in table_rows(path.read_text(), "| Kind | Required fields |"):
        row = KIND_ROW_RE.match(line)
        kind = row.group(1) if row else line
        if kind not in EVENT_SCHEMA:
            failures.append("%s: event row `%s` names no kind of EVENT_SCHEMA" % (path.name, kind))
            continue
        kinds.add(kind)
        fields = tuple(re.findall(r"`(\w+)`", row.group(2)))
        if fields != EVENT_SCHEMA[kind]:
            failures.append("%s: event `%s` lists fields %s; EVENT_SCHEMA has %s"
                            % (path.name, kind, fields, EVENT_SCHEMA[kind]))
    for kind in sorted(set(EVENT_SCHEMA) - kinds):
        failures.append("%s: event kind `%s` has no row; its fields: %s"
                        % (path.name, kind, ", ".join("`%s`" % f for f in EVENT_SCHEMA[kind])))
    return failures


#: the documents whose backticked names are checked
NAMED_DOCS = ("docs/API.md", "docs/ARCHITECTURE.md", "docs/REPLICATION.md")
DOTTED_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")
CLASS_ATTR_RE = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)(?:\(.*?\))?`")
FILE_SUFFIXES = frozenset({"md", "json", "jsonl", "py", "txt", "toml", "yml"})


def repro_classes() -> Dict[str, List[type]]:
    """Every class defined in a ``repro`` module, by its bare name."""
    classes: Dict[str, List[type]] = {}
    for module_name in repro_modules():
        for name, value in vars(importlib.import_module(module_name)).items():
            if inspect.isclass(value) and value.__module__ == module_name:
                classes.setdefault(name, []).append(value)
    return classes


@functools.lru_cache(maxsize=None)
def class_attributes(cls: type) -> FrozenSet[str]:
    """What ``cls`` defines or inherits, and every ``self.attr`` its
    body (or a ``repro`` base's) assigns (parsed once a class)."""
    names = set(dir(cls))
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro"):
            continue
        names.update(getattr(klass, "__annotations__", {}))
        tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        names.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )
    return frozenset(names)


def resolves(dotted: str) -> bool:
    """Does ``repro.a.b.c`` import, or is its tail an attribute of the
    longest prefix that does?"""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(value, attr):
                return False
            value = getattr(value, attr)
        return True
    return False


def check_names(path: pathlib.Path, classes: Dict[str, List[type]]) -> List[str]:
    """Failures of the backticked names in ``path`` (see above)."""
    failures: List[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        where = "%s:%d" % (path.name, lineno)
        for match in DOTTED_RE.finditer(line):
            if not resolves(match.group(1)):
                failures.append("%s: `%s` does not resolve" % (where, match.group(1)))
        for match in CLASS_ATTR_RE.finditer(line):
            owner, attr = match.groups()
            if attr in FILE_SUFFIXES:
                continue
            if owner not in classes:
                failures.append("%s: `%s.%s` names no repro class" % (where, owner, attr))
            elif not any(attr in class_attributes(c) for c in classes[owner]):
                failures.append("%s: `%s.%s`: %s has no %s" % (where, owner, attr, owner, attr))
    return failures


#: the documents whose quoted counts are checked
COUNTED_DOCS = ("README.md", "docs/API.md", "EXPERIMENTS.md")
NUMBER_WORDS = (
    "zero one two three four five six seven eight nine ten eleven twelve".split()
)
COUNT_RE = re.compile(
    r"\b(\d[\d,]*\+?|%s)\s+(?:[\w/-]+\s+)?"
    r"(tests|benchmarks|ADTs|event kinds|trace kinds|commands)\b"
    % "|".join(NUMBER_WORDS)
)


def derived_counts() -> Dict[str, int]:
    """The counts a document may quote, each taken from the code."""
    from repro.adts.registry import registered_kinds
    from repro.core.events import Event
    from repro.runtime.trace import EVENT_SCHEMA

    (commands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        "ADTs": len(registered_kinds()),
        "event kinds": len(Event.__subclasses__()),
        "trace kinds": len(EVENT_SCHEMA),
        "commands": len(commands),
    }


def check_counts(path: pathlib.Path, counts: Dict[str, int]) -> List[str]:
    """Failures of the counts quoted in ``path`` (see above)."""
    failures: List[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for match in COUNT_RE.finditer(line):
            quoted, noun = match.groups()
            where = "%s:%d: %r" % (path.name, lineno, match.group(0))
            if noun not in counts:
                failures.append("%s counts %s, which no code derives: delete the count"
                                % (where, noun))
                continue
            number = (NUMBER_WORDS.index(quoted) if quoted in NUMBER_WORDS
                      else int(quoted.rstrip("+").replace(",", "")))
            if counts[noun] < number or (counts[noun] > number and not quoted.endswith("+")):
                failures.append("%s, but the code has %d %s" % (where, counts[noun], noun))
    return failures


CHANGES_ENTRY_CAP = 3000


def check_changes(path: pathlib.Path) -> List[str]:
    """Failures of ``CHANGES.md``: entries over the cap (see above)."""
    entries: List[Tuple[int, str]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if line.startswith("- "):
            entries.append((lineno, line))
        elif line.strip() and entries:
            entries[-1] = (entries[-1][0], entries[-1][1] + "\n" + line)
    return [
        "%s:%d: entry has %d characters, over the cap of %d: keep what moved, "
        "what was declared, the numstat and the claim"
        % (path.name, lineno, len(text), CHANGES_ENTRY_CAP)
        for lineno, text in entries
        if len(text) > CHANGES_ENTRY_CAP
    ]


def main(argv: List[str]) -> int:
    if argv:
        paths = [pathlib.Path(a) for a in argv]
    else:
        paths = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    total = 0
    failures: List[str] = check_changes(REPO / "CHANGES.md")
    counts = derived_counts()
    for name in COUNTED_DOCS:
        failures.extend(check_counts(REPO / name, counts))
    classes = repro_classes()
    for name in NAMED_DOCS:
        failures.extend(check_names(REPO / name, classes))
    for path in paths:
        if path.name == "API.md":
            failures.extend(check_module_tables(path, repro_modules()))
            failures.extend(check_event_table(path))
    for path in paths:
        checked, fails = check_file(path)
        total += checked
        failures.extend(fails)
        print("check_docs_cli: %s: %d command(s)" % (path.name, checked))
    for failure in failures:
        print("check_docs_cli FAIL: %s" % failure)
    if total == 0:
        print("check_docs_cli FAIL: no fenced repro commands found at all "
              "(extractor broken?)")
        return 1
    print(
        "check_docs_cli: %d command(s) across %d file(s), %d failure(s)"
        % (total, len(paths), len(failures))
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
