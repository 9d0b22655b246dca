"""The verdicts of ``scripts/e2e_pairs.py`` (``choosing-metrics`` §8)."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "e2e_pairs.py"
_spec = importlib.util.spec_from_file_location("e2e_pairs", _PATH)
e2e_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_pairs)

PARENT = [100.0, 104.0, 98.0, 102.0, 96.0, 101.0, 99.0, 103.0, 97.0, 100.0]


def _verdicts(change, *, higher=True, bound=0.25, parent=PARENT):
    return e2e_pairs.verdicts(parent, change, higher, bound)


def test_a_gain_needs_nine_wins_and_more_than_the_parents_spread():
    assert _verdicts([p * 1.4 for p in PARENT]) == (10, 0, "met", "none")
    nine = [p * 1.4 for p in PARENT[:9]] + [PARENT[9] - 1]
    assert _verdicts(nine)[:3] == (9, 0, "met")
    eight = [p * 1.4 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    assert _verdicts(eight)[:3] == (8, 0, "not met")
    # every pair won, but by less than the parent's own quartile distance
    assert _verdicts([p + 1 for p in PARENT])[:3] == (10, 0, "not met")
    # a tie is nobody's win
    assert _verdicts(list(PARENT))[:3] == (0, 10, "not met")


def test_lower_is_better_turns_the_comparison_round():
    assert _verdicts([p * 0.5 for p in PARENT], higher=False) == (10, 0, "met", "none")
    assert _verdicts([p * 1.4 for p in PARENT], higher=False) == (
        0, 0, "not met", "REGRESSED",
    )


def test_a_regression_is_past_the_bound_and_a_wide_parent_is_unresolved():
    assert _verdicts([p * 0.7 for p in PARENT])[3] == "REGRESSED"
    assert _verdicts([p * 0.8 for p in PARENT])[3] == "none"
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert _verdicts(list(wide), parent=wide)[3] == "unresolved"
    assert _verdicts([w + 100 for w in wide], parent=wide)[3] == "none"


def test_one_pair_has_no_spread():
    assert e2e_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert _verdicts([2.0], parent=[1.0]) == (1, 0, "met", "none")
