"""``scripts/check_docs_cli.py``: the backticked-name gate and the API
index's module and event-kind tables."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "check_docs_cli.py"
_spec = importlib.util.spec_from_file_location("check_docs_cli", _PATH)
check_docs_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs_cli)


def test_the_named_docs_resolve():
    classes = check_docs_cli.repro_classes()
    for name in check_docs_cli.NAMED_DOCS:
        assert check_docs_cli.check_names(check_docs_cli.REPO / name, classes) == []


def test_instance_attributes_globs_and_files_resolve(tmp_path):
    doc = tmp_path / "ok.md"
    doc.write_text(
        "`Scheduler.trace` (assigned in `__init__`), `RunMetrics.committed`,"
        " `TransactionSystem.epoch(obj_name)`, `repro.runtime.openloop.drive`,"
        " `repro.adts.*` and `CHANGES.md`\n"
    )
    assert check_docs_cli.check_names(doc, check_docs_cli.repro_classes()) == []


def test_a_stale_name_fails_the_gate(tmp_path, monkeypatch):
    stale = tmp_path / "API.md"
    stale.write_text(
        "`repro.runtime.openloop._latencies_from_trace` and `Scheduler.gone`\n"
    )
    failures = check_docs_cli.check_names(stale, check_docs_cli.repro_classes())
    assert len(failures) == 2
    assert "_latencies_from_trace` does not resolve" in failures[0]
    assert "Scheduler has no gone" in failures[1]
    monkeypatch.setattr(check_docs_cli, "NAMED_DOCS", (str(stale),))
    readme = tmp_path / "README.md"
    readme.write_text("```\nrepro adts\n```\n")
    assert check_docs_cli.main([str(readme)]) == 1
    stale.write_text("`Scheduler.handle_crash`\n")
    assert check_docs_cli.main([str(readme)]) == 0


def planted_api(tmp_path, old, new):
    """A copy of ``docs/API.md`` with ``old`` replaced by ``new`` (once)."""
    text = (check_docs_cli.REPO / "docs" / "API.md").read_text()
    assert text.count(old) == 1, old
    api = tmp_path / "API.md"
    api.write_text(text.replace(old, new))
    return api


@pytest.mark.parametrize(
    "old, new, expected",
    [
        pytest.param(
            "| `repro.core.events` | Events and operations: the vocabulary",
            "| `repro.core.events` | Events and operations: a vocabulary",
            "`repro.core.events` purpose is not its docstring's first line; expected:\n"
            "| `repro.core.events` | Events and operations: the vocabulary",
            id="stale-purpose",
        ),
        pytest.param(
            "| `repro.runtime.errors` | Exceptions raised by the concrete transaction runtime. |\n",
            "",
            "`repro.runtime.errors` has no row; expected:\n"
            "| `repro.runtime.errors` | Exceptions raised by the concrete transaction runtime. |",
            id="module-without-row",
        ),
        pytest.param(
            "| `repro.runtime.errors` |",
            "| `repro.runtime.gone` |",
            "`repro.runtime.gone` does not import as a repro module",
            id="row-without-module",
        ),
        pytest.param(
            "| `force-torn` | `obj`, `records` |",
            "| `force-torn` | `obj`, `served` |",
            "event `force-torn` lists fields ('obj', 'served'); EVENT_SCHEMA has ('obj', 'records')",
            id="event-row-with-a-wrong-field",
        ),
        pytest.param(
            "| `ro-abort` |",
            "| `ro-gone` |",
            "event row `ro-gone` names no kind of EVENT_SCHEMA\n"
            "check_docs_cli FAIL: API.md: event kind `ro-abort` has no row; its fields: `txn`, `reason`",
            id="event-kind-without-row",
        ),
    ],
)
def test_a_planted_api_table_failure_exits_1(tmp_path, capsys, old, new, expected):
    """The real API.md passes; each planted drift fails, naming the fix.
    (The README rides along: it holds the fenced commands.)"""
    readme = str(check_docs_cli.REPO / "README.md")
    assert check_docs_cli.main([readme, str(check_docs_cli.REPO / "docs" / "API.md")]) == 0
    capsys.readouterr()
    assert check_docs_cli.main([readme, str(planted_api(tmp_path, old, new))]) == 1
    assert expected in capsys.readouterr().out

