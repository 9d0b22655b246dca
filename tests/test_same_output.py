"""``scripts/same_output.py``: two trees, the standard flows, ``cmp``.

The trees here are stand-ins whose ``python -m repro`` echoes its
arguments, writes a one-line trace and prints a host-time ``wall
clock`` line, so every flow runs in milliseconds.
"""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "same_output.py"
_spec = importlib.util.spec_from_file_location("same_output", _PATH)
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)

STAND_IN = '''\
import sys, time
args = sys.argv[1:]
if "--trace-out" in args:
    with open(args[args.index("--trace-out") + 1], "w") as trace:
        trace.write(%(trace)s)
print(" ".join(args))
print(%(extra)s)
print("wall clock           : %%.9fs" %% time.perf_counter())
sys.exit(%(exit)s)
'''


def _tree(root, name, trace='"{}\\n"', extra='""', exit="0"):
    package = root / name / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(
        STAND_IN % {"trace": trace, "extra": extra, "exit": exit})
    return root / name


def test_a_tree_against_itself_is_the_same_but_for_host_time(tmp_path, capsys):
    tree = _tree(tmp_path, "tree")
    assert same_output.main([str(tree), str(tree), "--out", str(tmp_path / "out")]) == 0
    assert "%d flows, no output differs" % len(same_output.FLOWS) in capsys.readouterr().out
    # every flow ran on both sides, traced where the command takes it
    for name, _args, traced in same_output.FLOWS:
        for side in ("parent", "change"):
            run = tmp_path / "out" / name / side
            assert (run / "stdout").exists()
            assert (run / "trace.jsonl").exists() == traced


@pytest.mark.parametrize(
    "plant, what",
    [
        ({"trace": '"{}\\n" if "kv" not in args else "{\\"x\\": 1}\\n"'}, "trace.jsonl"),
        ({"extra": '"kv" in args and "planted" or ""'}, "stdout"),
        # planted in both trees: a flow that fails alike is no evidence
        ({"exit": '1 if "kv" in args else 0'}, "exit code 1 | 1"),
    ],
)
def test_a_planted_difference_names_the_first_flow_that_differs(tmp_path, capsys, plant, what):
    parent = _tree(tmp_path, "parent", **{k: v for k, v in plant.items() if k == "exit"})
    change = _tree(tmp_path, "change", **plant)
    assert same_output.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    # run-kv-uip is the first flow naming kv; the flows before it matched
    assert "DIFFERS: run-kv-uip (repro run kv --recovery uip): %s" % what in out
    assert "same: run-bank-gc-sites" in out and "drive-kv" not in out
