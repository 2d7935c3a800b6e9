"""Compare two sets of benchmark result files, workload by workload.

Usage (from the repository root)::

    python3 perfbench/diff.py BASE HEAD

``BASE`` and ``HEAD`` are result files or directories of them (as
``run.py`` writes to ``.perfbench_out/``).  For each workload, every
end-to-end metric of ``BENCHMARK.json`` is labelled against its bound:

* *regressed* / *improved* -- the medians differ by more than the bound
  and the run-to-run spread (quartile distance over median) is within it;
* *unchanged* -- spread within the bound and medians within the bound;
* *unresolved* -- spread wider than the bound, unless every HEAD run is
  better (improved) or worse (regressed) than every BASE run.

Times and rates are scaled operation by operation to the reference
host speed (see ``Tally.factor`` in ``run.py``), so every metric is also
labelled on its raw, unscaled values, and a warning is printed when the
median ``host_slowdown`` (a run's median reference time over nominal) of
HEAD differs from BASE's by more than ``SLOWDOWN_WARN``: then the scaled
and raw labels should agree before a change is credited to the program.

Then every per-layer metric (from ``--trace 1`` results) whose median
moved by more than ``layer_threshold`` of ``layers.json`` is listed.
Exit code 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: relative difference of the median host_slowdown that gets a warning.
SLOWDOWN_WARN = 0.05


def load(target: str) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """``(workload, trace) -> metric -> values`` over every result file.

    Untraced results also give ``raw.<metric>`` (unscaled values) and
    ``host_slowdown``.
    """
    paths = (
        [os.path.join(target, name) for name in sorted(os.listdir(target))
         if name.endswith(".json") and not name.endswith(".trace.json")]
        if os.path.isdir(target)
        else [target]
    )
    grouped: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        environment = record.get("environment")
        if environment is None:
            continue
        key = (environment["workload"], int(environment["trace"]))
        bucket = grouped.setdefault(key, {})
        for name, metric in record["metrics"].items():
            bucket.setdefault(name, []).append(float(metric["value"]))
        details = record.get("details", {})
        for name, value in details.get("raw_metrics", {}).items():
            bucket.setdefault("raw." + name, []).append(float(value))
        if "host_slowdown" in details:
            bucket.setdefault("host_slowdown", []).append(float(details["host_slowdown"]))
    return grouped


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else float("inf")


def label(base: List[float], head: List[float], bound: float, lower_better: bool) -> Tuple[str, float]:
    """``(label, relative worsening of the HEAD median)``."""
    base_median, head_median = statistics.median(base), statistics.median(head)
    change = (head_median - base_median) / abs(base_median) if base_median else 0.0
    worse = change if lower_better else -change

    def better(a: float, b: float) -> bool:
        return a < b if lower_better else a > b

    if max(spread(base), spread(head)) > bound:
        if all(better(h, b) for h in head for b in base):
            return "improved", worse
        if all(better(b, h) for h in head for b in base):
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    with open(os.path.join(HERE, "layers.json"), "r", encoding="utf-8") as handle:
        threshold = json.load(handle)["layer_threshold"]
    base, head = load(argv[0]), load(argv[1])
    regressed = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        print("== %s" % workload)
        before, after = base.get((workload, 0), {}), head.get((workload, 0), {})
        if before.get("host_slowdown") and after.get("host_slowdown"):
            old = statistics.median(before["host_slowdown"])
            new = statistics.median(after["host_slowdown"])
            print("  host_slowdown          base %.4f -> head %.4f" % (old, new))
            if abs(new - old) > SLOWDOWN_WARN * old:
                print("  WARNING: host_slowdown moved by %+.1f%%; trust a label only where"
                      " the raw label agrees" % (100 * (new - old) / old))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if not before.get(name) or not after.get(name):
                print("  %-22s missing" % name)
                continue
            lower_better = metric["better"] == "lower"
            verdict, worse = label(before[name], after[name], metric["bound"], lower_better)
            regressed = regressed or verdict == "regressed"
            raw = "raw." + name
            raw_verdict = (label(before[raw], after[raw], metric["bound"], lower_better)[0]
                           if before.get(raw) and after.get(raw) else "missing")
            print("  %-22s %-10s raw %-10s %+7.1f%% worse  (bound %.0f%%, base %.6g -> head %.6g %s)"
                  % (name, verdict, raw_verdict, 100 * worse, 100 * metric["bound"],
                     statistics.median(before[name]), statistics.median(after[name]),
                     metric["unit"]))
        before, after = base.get((workload, 1), {}), head.get((workload, 1), {})
        for name in sorted(set(before) & set(after)):
            old, new = statistics.median(before[name]), statistics.median(after[name])
            moved = (new - old) / abs(old) if old else (0.0 if new == old else float("inf"))
            if abs(moved) > threshold:
                print("  layer %-30s %+8.1f%%  (%.6g -> %.6g)" % (name, 100 * moved, old, new))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
