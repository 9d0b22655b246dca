"""``scripts/src_lines.py``: the lines of ``repro`` a pytest run executes,
and the subset check between two runs.

Each run here is a subprocess over a planted ``repro`` package of one
module and a planted test file, so it takes well under a second.
"""

import json
import os
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "src_lines.py"

MODULE = '''\
"""A planted module."""


def called(x):
    y = x + 1
    return y


def uncalled(x):
    y = x - 1
    return y
'''


def plant(root, test_body, module=MODULE):
    """A tree with ``src/repro/planted.py`` and ``test_planted.py``."""
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "planted.py").write_text(module)
    (root / "test_planted.py").write_text(
        "from repro.planted import called, uncalled\n\n\ndef test_it():\n%s\n" % test_body
    )
    return root


def run(*args, tree=None):
    env = dict(os.environ)
    if tree is not None:
        env["PYTHONPATH"] = str(tree / "src")
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, cwd=tree,
    )


def record(tree, out):
    result = run("run", out, tree / "test_planted.py", "-q", "-p", "no:cacheprovider", tree=tree)
    assert result.returncode == 0, result.stdout + result.stderr
    return json.loads(out.read_text())


def test_a_run_records_the_lines_it_executed_and_the_subset_check_names_the_missing(tmp_path):
    one = plant(tmp_path / "one", "    assert called(1) == 2")
    both = plant(tmp_path / "both", "    assert called(1) == 2 and uncalled(1) == 0")
    lines = record(one, tmp_path / "one.json")
    assert lines["src"] == str((one / "src").resolve())
    executed = set(lines["lines"]["repro/planted.py"])
    # module level (docstring, both defs) and the called body; not the other body
    assert {1, 4, 5, 6, 9} <= executed and not {10, 11} & executed
    record(both, tmp_path / "both.json")

    widened = run("subset", tmp_path / "one.json", tmp_path / "both.json")
    assert widened.returncode == 0, widened.stdout
    assert "0 missing" in widened.stdout
    narrowed = run("subset", tmp_path / "both.json", tmp_path / "one.json")
    assert narrowed.returncode == 1
    assert "src_lines: missing repro/planted.py: 10, 11" in narrowed.stdout


def test_lines_of_a_changed_source_are_mapped_or_set_aside(tmp_path):
    """A change that inserts a line shifts the rest; a line it deletes
    cannot be executed there and does not fail the check."""
    old = plant(tmp_path / "old", "    assert called(1) == 2")
    changed = MODULE.replace('"""A planted module."""\n', '"""A planted module."""\n\nX = 1\n')
    changed = changed.replace(
        "    y = x + 1\n    return y\n\n\ndef uncalled", "    return x + 1\n\n\ndef uncalled"
    )
    new = plant(tmp_path / "new", "    assert called(1) == 2", changed)
    record(old, tmp_path / "old.json")
    record(new, tmp_path / "new.json")
    result = run("subset", tmp_path / "old.json", tmp_path / "new.json")
    assert result.returncode == 0, result.stdout
    assert "changed in the source repro/planted.py: 5, 6" in result.stdout
