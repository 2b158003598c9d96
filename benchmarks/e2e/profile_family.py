"""cProfile one family of a batch workload and print the hottest functions.

Usage (from the repository root)::

    python3 benchmarks/e2e/profile_family.py --workload table1 --family c432

Solves each instance of the family once to warm up, then once more
under :mod:`cProfile`, and prints the top functions by own time.
cProfile charges a cost to every Python call, which inflates call-heavy
code; use it to find candidates and ``run.py`` to measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
from typing import Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="profile_family.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="table1")
    parser.add_argument("--family", default="c432")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    suite = tuple(entry for entry in workload.suite if entry[0] == args.family)
    if workload.kind != "batch" or not suite:
        parser.error(f"{args.family!r} is not a family of batch workload {args.workload!r}")
    items = workloads.build_items(suite, args.seed)
    for item in items:
        workloads.solve_item(item, None)
    profiler = cProfile.Profile()
    profiler.enable()
    for item in items:
        workloads.solve_item(item, None)
    profiler.disable()
    text = io.StringIO()
    stats = pstats.Stats(profiler, stream=text)
    stats.sort_stats("tottime").print_stats(args.top)
    print(text.getvalue().replace(ROOT + os.sep, ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
