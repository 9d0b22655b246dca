"""Bench-trend gate: diff fresh BENCH_*.json against committed baselines.

Usage::

    python benchmarks/check_trend.py BASELINE_DIR FRESH_DIR

Walks every ``BENCH_*.json`` in ``BASELINE_DIR`` and compares it with
the same-named file in ``FRESH_DIR``, classifying leaves by key:

* **equality fields** (the default — deterministic counters, tick-space
  latencies, parity verdicts): any difference is a hard failure
  (exit 1).  These numbers are seeded and machine-independent; a change
  means the *semantics* moved, not the clock.
* **timing fields** (``times_s``, ``speedup``, ``wall_s``, ``*_per_s``):
  never fail the build, but a >25% regression (slower time / lower
  speedup) prints a GitHub ``::warning::`` annotation — unless the
  baseline run is shorter than a second, where 25% is host noise: such a
  field is reported as *too short to compare*, neither warned about nor
  passed.  A duration is too short on its own value; a speedup, ratio or
  rate is too short when every duration recorded beside it is.
* **environment fields** (``cpus``, ``floor_asserted``,
  ``bytes_per_event``): ignored — they describe the recording machine
  or interpreter, not the reproduction (a bench that records bytes
  asserts its own bound).

A baseline artifact missing from ``FRESH_DIR`` is a hard failure (the
bench stopped recording it); a fresh artifact with no baseline is
reported but passes (commit it to start tracking).
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, Iterator, List, Optional, Tuple

TIMING_KEYS = frozenset({"speedup", "ratio"})
# ``*_s`` (seconds) and ``*_per_s`` (rates) cover times_s, wall_s,
# traced_s, compiled_ops_per_s, steps_per_s, ... across every artifact.
TIMING_SUFFIXES = ("_s", "_per_s", "_seconds")
ENVIRONMENT_KEYS = frozenset(
    {
        "cpus",
        "floor_asserted",
        "equality_only",
        "numpy",
        "workers_available",
        "bytes_per_event",
    }
)
REGRESSION_RATIO = 1.25
#: a baseline run shorter than this many seconds is not compared
MIN_COMPARABLE_S = 1.0


def classify(key: str) -> str:
    if key in ENVIRONMENT_KEYS:
        return "environment"
    if key in TIMING_KEYS or key.endswith(TIMING_SUFFIXES):
        return "timing"
    return "equality"


def _leaves(value, path: str = "") -> Iterator[Tuple[str, object]]:
    if isinstance(value, dict):
        for key in sorted(value):
            sub = "%s.%s" % (path, key) if path else key
            yield from _leaves(value[key], sub)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, "%s[%d]" % (path, i))
    else:
        yield path, value


def _prune(value, mode: str):
    """The sub-tree of ``value`` containing only ``mode``-class keys."""
    if not isinstance(value, dict):
        return value
    kept = {}
    for key, sub in value.items():
        cls = classify(key)
        if cls == mode:
            kept[key] = sub
        elif cls == "equality" and isinstance(sub, (dict, list)):
            # descend: a timing block may hide below an equality key
            pruned = _prune(sub, mode) if isinstance(sub, dict) else [
                _prune(item, mode) for item in sub
            ]
            if pruned not in ({}, []):
                kept[key] = pruned
    return kept


def _strip(value, modes: Tuple[str, ...]):
    """``value`` with every key of the given classes removed, recursively."""
    if isinstance(value, dict):
        return {
            key: _strip(sub, modes)
            for key, sub in value.items()
            if classify(key) not in modes
        }
    if isinstance(value, list):
        return [_strip(item, modes) for item in value]
    return value


def _timing_key(path: str) -> Optional[str]:
    """The timing-class key a leaf path sits under, if any."""
    keys = (part.split("[")[0] for part in path.split("."))
    return next((key for key in keys if classify(key) == "timing"), None)


def _timing_leaves(artifact) -> Dict[str, float]:
    """``path -> value`` for the numeric leaves under a timing key."""
    return {
        path: value
        for path, value in _leaves(_prune(artifact, "timing"))
        if isinstance(value, (int, float)) and _timing_key(path) is not None
    }


def _is_duration(path: str) -> bool:
    key = _timing_key(path)
    return key.endswith(("_s", "_seconds")) and not key.endswith("_per_s")


def too_short(baseline) -> List[str]:
    """Paths of the baseline's timing leaves that come from runs too
    short to compare (see the module docstring)."""
    leaves = _timing_leaves(baseline)
    durations = {path: v for path, v in leaves.items() if _is_duration(path)}
    all_short = bool(durations) and max(durations.values()) < MIN_COMPARABLE_S
    return sorted(
        path
        for path in leaves
        if (durations[path] < MIN_COMPARABLE_S if path in durations else all_short)
    )


def compare_artifact(name: str, baseline, fresh) -> Tuple[List[str], List[str]]:
    """Return (failures, warnings) for one artifact pair."""
    failures: List[str] = []
    warnings: List[str] = []

    base_eq = _strip(baseline, ("timing", "environment"))
    fresh_eq = _strip(fresh, ("timing", "environment"))
    if base_eq != fresh_eq:
        base_map = dict(_leaves(base_eq))
        fresh_map = dict(_leaves(fresh_eq))
        for path in sorted(set(base_map) | set(fresh_map)):
            old = base_map.get(path, "<absent>")
            new = fresh_map.get(path, "<absent>")
            if old != new:
                failures.append(
                    "%s: equality field %r changed: %r -> %r"
                    % (name, path, old, new)
                )

    fresh_timing = _timing_leaves(fresh)
    skipped = set(too_short(baseline))
    for path, old in sorted(_timing_leaves(baseline).items()):
        new = fresh_timing.get(path)
        if new is None or old <= 0 or path in skipped:
            continue
        # speedups and rates regress downward; times/ratios upward
        higher_is_better = "speedup" in path or "_per_s" in path
        if higher_is_better:
            regressed = new < old / REGRESSION_RATIO
        else:
            regressed = new > old * REGRESSION_RATIO
        if regressed:
            warnings.append(
                "%s: timing field %r regressed >%d%%: %.4g -> %.4g"
                % (name, path, (REGRESSION_RATIO - 1) * 100, old, new)
            )
    return failures, warnings


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    baseline_dir, fresh_dir = map(pathlib.Path, argv)
    failures: List[str] = []
    warnings: List[str] = []
    uncompared = 0
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print("check_trend: no BENCH_*.json baselines in %s" % baseline_dir)
        return 2
    for base_path in baselines:
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            failures.append(
                "%s: baseline artifact was not re-recorded (missing from %s)"
                % (base_path.name, fresh_dir)
            )
            continue
        baseline = json.loads(base_path.read_text())
        fails, warns = compare_artifact(
            base_path.name, baseline, json.loads(fresh_path.read_text())
        )
        failures.extend(fails)
        warnings.extend(warns)
        short = too_short(baseline)
        if short:
            uncompared += len(short)
            print(
                "check_trend: %s: %d timing field(s) too short to compare "
                "(baseline runs under %g s)"
                % (base_path.name, len(short), MIN_COMPARABLE_S)
            )
    for fresh_path in sorted(fresh_dir.glob("BENCH_*.json")):
        if not (baseline_dir / fresh_path.name).exists():
            print(
                "check_trend: new artifact %s has no baseline "
                "(commit it to start tracking)" % fresh_path.name
            )
    for warning in warnings:
        print("::warning::%s" % warning)
    for failure in failures:
        print("check_trend FAIL: %s" % failure)
    print(
        "check_trend: %d artifact(s), %d failure(s), %d warning(s), "
        "%d timing field(s) too short to compare"
        % (len(baselines), len(failures), len(warnings), uncompared)
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
