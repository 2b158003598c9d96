"""Per-instance verdicts and search counters of the e2e batch suites.

Usage (from the repository root)::

    python3 benchmarks/solve_digest.py                  # table1 and wide
    python3 benchmarks/solve_digest.py table1

Solves each named batch workload of ``benchmarks/e2e`` once, in this
process, with the inputs ``run.py --seed 2015`` gives it, and prints one
line per instance: its name, the verdict, and the counters that pin the
search (``sat_conflicts``, ``sat_propagations``, ``qbf_cegar_sat_calls``,
``kernel_nodes_visited``).  No timings are printed, so two runs of the
same tree must print the same text.  CI runs it under two values of
``PYTHONHASHSEED`` and diffs the output: no decision of the solver may
depend on set or dict iteration order.  Exits 1 on a wrong verdict.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.join(HERE, "e2e")]

import workloads  # noqa: E402

SEED = 2015
COUNTERS = (
    "sat_conflicts",
    "sat_propagations",
    "qbf_cegar_sat_calls",
    "kernel_nodes_visited",
)


def main(names) -> int:
    wrong = 0
    for name in names:
        workload = workloads.WORKLOADS[name]
        if workload.kind != "batch":
            raise SystemExit(f"{name} is not a batch workload")
        for item in workloads.build_items(workload.suite, SEED):
            result = workloads.solve_item(item, None)
            counters = " ".join(f"{key}={result.stats.get(key, 0)}" for key in COUNTERS)
            print(f"{name} {item.name} {result.status} {counters}")
            wrong += result.status != ("SAT" if item.expected else "UNSAT")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["table1", "wide"]))
