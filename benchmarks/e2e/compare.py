"""Compare two sets of benchmark runs metric by metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A.jsonl`` and ``B.jsonl`` hold the lines ``run.py --out`` appends, one
per workload run (several seeds per side).  For every workload and
metric the script prints each side's median and quartiles over its runs
and, for end-to-end metrics, whether B's median is worse than A's by
more than the bound in ``BENCHMARK.json``:

* ``ok``: within the bound (or better);
* ``WORSE``: worse than the bound allows;
* ``unresolved``: worse, and a side's own spread (quartile distance
  over median) is wider than the bound, so noise cannot be told apart
  from a change.

Per-layer metrics have no bound and are printed for reading only.  The
exit code is 1 when any end-to-end metric reads ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values over the runs in a ``--out`` file."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            for metric, entry in run["metrics"].items():
                values[(run["workload"], metric)].append(float(entry["value"]))
    return values


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread(values: Sequence[float]) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> Tuple[float, str]:
    """(relative change of B's median against A's, verdict)."""
    median_a, median_b = summary(a)[0], summary(b)[0]
    if not median_a:
        return 0.0, "ok" if not median_b else "n/a"
    change = (median_b - median_a) / abs(median_a)
    worse = change if better == "lower" else -change
    if worse <= bound:
        return change, "ok"
    if max(spread(a), spread(b)) > bound:
        return change, "unresolved"
    return change, "WORSE"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="compare.py", description=__doc__.split("\n")[0])
    parser.add_argument("a", help="run lines of side A (the reference)")
    parser.add_argument("b", help="run lines of side B")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)

    with open(args.benchmark, "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    side_a, side_b = load_runs(args.a), load_runs(args.b)

    failed = False
    header = (f"{'workload':13s} {'metric':28s} {'unit':6s} {'A median [q1, q3]':>34s} "
              f"{'B median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict")
    print(header)
    for key in sorted(set(side_a) & set(side_b)):
        workload, metric = key
        a, b = side_a[key], side_b[key]
        cells = []
        for values in (a, b):
            median, q1, q3 = summary(values)
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
        if metric in bounds:
            bound = float(bounds[metric]["bound"])
            change, mark = verdict(a, b, bound, bounds[metric]["better"])
            failed |= mark == "WORSE"
            tail = f"{change:+8.1%} {bound:6.2f}  {mark}"
        else:
            tail = f"{'':8s} {'':6s}  -"
        print(f"{workload:13s} {metric:28s} {units.get(metric, '?'):6s} "
              f"{cells[0]:>34s} {cells[1]:>34s} {tail}")
    for key in sorted(set(side_a) ^ set(side_b)):
        print(f"{key[0]:13s} {key[1]:28s} only in {'A' if key in side_a else 'B'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
