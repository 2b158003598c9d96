"""End-to-end benchmark: batch solving and ``hqs-serve``.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload table1 --seed 2015 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 2015            # every workload

Prints one ``workload metric value unit`` line per metric, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same passes with layer wrappers
installed and reports the per-layer metrics instead.  Every verdict is
checked against the generator's known answer; a wrong one makes the
exit code 1.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from typing import List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
#: Scratch space (server caches, logs, span dumps) inside the checkout.
WORKROOT = os.path.join(ROOT, ".bench_e2e")


def run_record(result) -> dict:
    """One ``--out`` line: metrics plus the per-pass samples behind them."""
    return {
        "workload": result.workload,
        "seed": result.seed,
        "trace": int(result.trace),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
        "setups": result.setups,
        "passes": [{"wall_s": p.wall_s, "scale": p.scale, "setup_s": p.setup_s,
                    "solved": p.solved, "samples": p.samples}
                   for p in result.passes],
        "wrong": result.wrong,
    }


def metric_lines(result) -> List[str]:
    """``workload metric value unit``, one per metric of a run."""
    return [f"{result.workload} {metric} {value!r} {unit}"
            for metric, (value, unit) in result.metrics.items()]


def spans_payload(results) -> dict:
    """The ``--spans`` file: per workload, spans and layer table per pass."""
    return {
        r.workload: {
            "seed": r.seed,
            "metrics": run_record(r)["metrics"],
            "passes": [asdict(p) for p in r.passes],
        }
        for r in results
    }


def summary_line(results) -> str:
    """The final JSON line (metric names get a workload prefix when several ran)."""
    prefix = len(results) > 1
    return json.dumps({
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            (f"{r.workload}/{metric}" if prefix else metric): {"value": value, "unit": unit}
            for r in results for metric, (value, unit) in r.metrics.items()
        },
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="workload name (default: all four, in order)")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure at least this long (and at least 3 passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="append one JSON line per workload run (for compare.py)")
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1: write spans and per-pass layer tables")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no solver sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # serve_host.py children import the solver from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    os.makedirs(WORKROOT, exist_ok=True)
    workroot = tempfile.mkdtemp(dir=WORKROOT)
    results: List = []
    try:
        for name in names:
            result = workloads.run_workload(
                workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                workroot)
            results.append(result)
            print("\n".join(metric_lines(result)))
            for line in result.wrong:
                print(f"{name} WRONG {line}", file=sys.stderr)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(run_record(result)) + "\n")
        if args.spans and args.trace:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump(spans_payload(results), handle)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(WORKROOT)
        except OSError:
            pass

    print(summary_line(results))
    return 0 if all(r.correct for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
