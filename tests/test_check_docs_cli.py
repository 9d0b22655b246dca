"""The backticked-name gate of ``scripts/check_docs_cli.py``."""

import importlib.util
import pathlib

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
