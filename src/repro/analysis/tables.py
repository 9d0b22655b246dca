"""Conflict tables in the style of the paper's Figures 6-1 and 6-2.

The paper summarizes commutativity relations as small tables over
*operation classes* — e.g. for the bank account: ``deposit(i)/ok``,
``withdraw(i)/OK``, ``withdraw(i)/NO`` and ``balance/i`` — with an ``x``
wherever the row/column pair fails to commute for *some* choice of
arguments.  :class:`~repro.core.conflict.OperationClass` (re-exported
here) groups the ground operations of a class; :class:`ConflictTable`
holds the class-level matrix and renders it as ASCII (matching the
figures) or Markdown, and supports exact comparison so the test suite
can pin the regenerated figures to the published ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.conflict import OperationClass
from .memo import PairMemo


@dataclass(frozen=True)
class ConflictTable:
    """A class-level conflict matrix.

    ``marks`` contains the ``(row_label, col_label)`` pairs marked ``x``
    — the *non*-commuting pairs, matching the figures' convention.  For a
    forward-commutativity table the matrix is symmetric; for right
    backward commutativity the entry ``(row, col)`` means "the row
    operation does not right commute backward with the column operation"
    and the matrix is generally asymmetric.
    """

    title: str
    labels: Tuple[str, ...]
    marks: FrozenSet[Tuple[str, str]]

    def marked(self, row: str, col: str) -> bool:
        """True iff the (row, col) entry carries an ``x``."""
        return (row, col) in self.marks

    def is_symmetric(self) -> bool:
        return all((c, r) in self.marks for (r, c) in self.marks)

    def difference(self, other: "ConflictTable") -> FrozenSet[Tuple[str, str]]:
        """Entries marked here but not in ``other`` (labels compared as strings)."""
        return self.marks - other.marks

    def same_marks(self, other: "ConflictTable") -> bool:
        """True iff both tables mark exactly the same entries."""
        return self.marks == other.marks

    # -- rendering ----------------------------------------------------------

    def render_ascii(self) -> str:
        return render_ascii(self)

    def render_markdown(self) -> str:
        return render_markdown(self)

    def __str__(self) -> str:
        return self.render_ascii()


def table_from_pairs(
    title: str,
    labels: Sequence[str],
    pairs: Iterable[Tuple[str, str]],
) -> ConflictTable:
    """Build a table, validating that every pair uses known labels."""
    labels = tuple(labels)
    known = set(labels)
    marks: Set[Tuple[str, str]] = set()
    for row, col in pairs:
        if row not in known or col not in known:
            raise ValueError("pair (%r, %r) uses unknown labels" % (row, col))
        marks.add((row, col))
    return ConflictTable(title, labels, frozenset(marks))


def table_from_verdicts(
    title: str,
    classes: Sequence[OperationClass],
    verdict: Callable[[OperationClass, OperationClass], bool],
    *,
    memo: Optional[PairMemo] = None,
) -> ConflictTable:
    """Build a table by querying ``verdict(row, col)`` for every cell.

    Verdicts are memoized by ``(row.label, col.label)`` through ``memo``
    (a fresh unmirrored :class:`PairMemo` when not supplied), so passing
    the checker's class-level memo makes repeated table builds — and the
    symmetric half of an FC table — free.
    """
    memo = memo if memo is not None else PairMemo()
    marks: Set[Tuple[str, str]] = set()
    for row in classes:
        for col in classes:
            if memo.lookup(row.label, col.label, lambda r=row, c=col: verdict(r, c)):
                marks.add((row.label, col.label))
    return ConflictTable(title, tuple(c.label for c in classes), frozenset(marks))


def render_ascii(table: ConflictTable) -> str:
    """Render in the style of the paper's figures (``x`` marks non-commuting)."""
    labels = table.labels
    width = max(len(label) for label in labels)
    col_widths = [max(len(label), 1) for label in labels]
    lines: List[str] = [table.title, ""]
    header = " " * (width + 2) + "  ".join(
        label.ljust(col_widths[i]) for i, label in enumerate(labels)
    )
    lines.append(header)
    for row in labels:
        cells = []
        for i, col in enumerate(labels):
            mark = "x" if table.marked(row, col) else " "
            cells.append(mark.ljust(col_widths[i]))
        lines.append(row.ljust(width + 2) + "  ".join(cells))
    return "\n".join(lines)


def render_markdown(table: ConflictTable) -> str:
    """Render as a GitHub-flavored Markdown table."""
    labels = table.labels
    lines = ["| | " + " | ".join(labels) + " |"]
    lines.append("|" + "---|" * (len(labels) + 1))
    for row in labels:
        cells = ["x" if table.marked(row, col) else "" for col in labels]
        lines.append("| **%s** | " % row + " | ".join(cells) + " |")
    return "\n".join(lines)
