"""Command-line interface: solve DQDIMACS files with HQS or the baselines.

Usage::

    hqs problem.dqdimacs                  # solve with HQS
    hqs --solver idq problem.dqdimacs     # solve with the iDQ baseline
    hqs --timeout 60 --stats problem.dqdimacs

Exit codes follow the (D)QBF-solver convention: 10 = SAT, 20 = UNSAT,
0 = inconclusive; a malformed input file exits 1 with a one-line
``hqs: FILE: line N: …`` message.  Resource-limited runs exit with the
coreutils ``timeout(1)`` convention instead — 124 when the wall clock
ran out, 125 when the node (memory) budget did — and print a
machine-readable ``c failure`` line naming the stage, resource and
progress, never a traceback.

A second entry point, ``hqs-bench`` (:func:`bench_main`), drives the
benchmark suite through the fault-tolerant parallel runner::

    hqs-bench --jobs 4 --log results.jsonl           # parallel sweep
    hqs-bench --jobs 4 --log results.jsonl --resume  # pick up where it died
    hqs-bench --portfolio --solvers HQS,HQS_PROBE    # race configurations
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .baselines.expansion import solve_expansion
from .baselines.idq import IdqSolver
from .core.hqs import HqsOptions, HqsSolver
from .core.result import Limits, SAT, UNSAT
from .errors import ResourceExhausted
from .formula.dqdimacs import DqdimacsError, load_dqdimacs

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0
EXIT_INPUT_ERROR = 1
#: coreutils ``timeout(1)`` conventions for resource-limited runs.
EXIT_TIMEOUT = 124
EXIT_NODELIMIT = 125


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqs",
        description="HQS: solving DQBF through quantifier elimination (DATE'15 reproduction)",
    )
    parser.add_argument("file", help="DQDIMACS input file")
    parser.add_argument(
        "--solver",
        choices=("hqs", "idq", "expansion"),
        default="hqs",
        help="solver backend (default: hqs)",
    )
    parser.add_argument("--timeout", type=float, default=None, help="time limit in seconds")
    parser.add_argument(
        "--node-limit", type=int, default=None, help="AIG node budget (memout stand-in)"
    )
    parser.add_argument("--stats", action="store_true", help="print solver statistics")
    parser.add_argument(
        "--no-preprocessing", action="store_true", help="disable CNF preprocessing"
    )
    parser.add_argument(
        "--no-unit-pure", action="store_true", help="disable unit/pure detection"
    )
    parser.add_argument(
        "--no-maxsat", action="store_true", help="disable MaxSAT elimination-set selection"
    )
    parser.add_argument(
        "--no-qbf", action="store_true", help="disable the QBF back-end (expand everything)"
    )
    parser.add_argument(
        "--sat-probe",
        action="store_true",
        help="refute via one SAT call on the all-zero branch first (Sec. IV suggestion)",
    )
    parser.add_argument(
        "--certificate",
        action="store_true",
        help="on SAT, extract and verify Skolem functions (instantiation-based)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print a trace of the solving pipeline (HQS only)",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="print dependency-structure metrics before solving",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "anytime checkpoint file (HQS only): resume from it when "
            "present, rewrite it after each eliminated universal, remove "
            "it on completion"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        formula = load_dqdimacs(args.file)
    except DqdimacsError as exc:
        print(f"hqs: {args.file}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    limits = Limits(time_limit=args.timeout, node_limit=args.node_limit)

    if args.analyze:
        from .core.depgraph import analyze_prefix

        for key, value in analyze_prefix(formula.prefix).as_dict().items():
            print(f"c {key} = {value}")

    try:
        if args.solver == "idq":
            result = IdqSolver().solve(formula, limits)
        elif args.solver == "expansion":
            result = solve_expansion(formula, limits)
        else:
            options = HqsOptions(
                use_preprocessing=not args.no_preprocessing,
                use_unit_pure=not args.no_unit_pure,
                use_maxsat_selection=not args.no_maxsat,
                use_qbf_backend=not args.no_qbf,
                use_sat_probe=args.sat_probe,
            )
            solver = HqsSolver(options, trace=args.verbose)
            result = solver.solve(formula, limits, checkpoint=args.checkpoint)
            for line in solver.trace:
                print(f"c {line}")
    except ResourceExhausted as exc:
        # Solvers funnel exhaustion into UNKNOWN results themselves;
        # this is the belt-and-braces path so no resource limit ever
        # surfaces as a traceback.
        from .core.result import UNKNOWN, exhausted_result
        from .core.guard import ResourceGuard

        result = exhausted_result(exc, ResourceGuard.ensure(limits), 0.0)
        assert result.status == UNKNOWN

    print(f"s cnf {result.status} ({result.runtime:.3f}s)")
    if result.failure is not None:
        failure = result.failure
        print(
            f"c failure stage={failure.stage} resource={failure.resource} "
            f"elapsed={failure.elapsed:.3f}"
        )
        for key in sorted(failure.progress):
            print(f"c failure progress {key} = {failure.progress[key]}")
    if args.certificate and result.status == SAT:
        from .core.skolem import extract_certificate

        # The main solve already consumed part of the budget; hand the
        # extraction a child budget so --timeout bounds the *total* run
        # (the extraction solver restarts the clock on the Limits it gets).
        cert_result, tables = extract_certificate(load_dqdimacs(args.file), limits.child())
        if tables is not None:
            print("c Skolem certificate (verified):")
            for y in sorted(tables):
                table = tables[y]
                rows = sum(1 for v in table.as_full_table().values() if v)
                print(f"c   y{y}({','.join(map(str, table.deps))}): {rows} true rows")
        else:
            print(f"c certificate extraction inconclusive ({cert_result.status})")
    if args.stats:
        for key in sorted(result.stats):
            print(f"c {key} = {result.stats[key]}")
    if result.status == SAT:
        return EXIT_SAT
    if result.status == UNSAT:
        return EXIT_UNSAT
    if result.failure is not None:
        if result.failure.resource == "nodes":
            return EXIT_NODELIMIT
        return EXIT_TIMEOUT
    # Legacy statuses from solvers not yet on the guard.
    if result.status == "TIMEOUT":
        return EXIT_TIMEOUT
    if result.status == "MEMOUT":
        return EXIT_NODELIMIT
    return EXIT_UNKNOWN


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqs-bench",
        description=(
            "Run the scaled PEC benchmark suite through the fault-tolerant "
            "parallel runner (hard timeouts, crash containment, JSONL resume)"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_BENCH_JOBS or 1; 1 = serial)",
    )
    parser.add_argument("--log", default=None, help="JSONL result log to append to")
    parser.add_argument(
        "--resume", action="store_true",
        help="skip (instance, solver) pairs already recorded in --log",
    )
    parser.add_argument(
        "--portfolio", action="store_true",
        help="race all --solvers on each instance, cancel losers on first answer",
    )
    parser.add_argument(
        "--solvers", default="HQS,IDQ",
        help="comma-separated solver names (default: HQS,IDQ)",
    )
    parser.add_argument(
        "--families", default=None,
        help="comma-separated family names (default: all paper families)",
    )
    parser.add_argument("--scale", type=float, default=None, help="circuit size multiplier")
    parser.add_argument("--count", type=int, default=None, help="instances per family")
    parser.add_argument("--timeout", type=float, default=None, help="per-instance seconds")
    parser.add_argument("--node-limit", type=int, default=None, help="AIG node budget")
    parser.add_argument("--seed", type=int, default=None, help="suite generation seed")
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help=(
            "directory for per-(instance, solver) anytime checkpoints; "
            "killed or crashed workers resume from their last completed "
            "elimination (default: REPRO_BENCH_CHECKPOINT)"
        ),
    )
    parser.add_argument(
        "--table", action="store_true", help="print the Table I aggregation at the end"
    )
    return parser


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``hqs-bench`` console script."""
    from .experiments.runner import BenchConfig, run_suite
    from .pec.families import FAMILIES

    args = build_bench_parser().parse_args(argv)
    config = BenchConfig(
        scale=args.scale,
        count=args.count,
        timeout=args.timeout,
        node_limit=args.node_limit,
        seed=args.seed,
        jobs=args.jobs,
        checkpoint_dir=args.checkpoint_dir,
    )
    if args.resume and not args.log:
        print("error: --resume requires --log", file=sys.stderr)
        return 2
    solvers = tuple(s for s in args.solvers.split(",") if s)
    families = (
        tuple(f for f in args.families.split(",") if f)
        if args.families
        else FAMILIES
    )
    print(f"c suite {config!r}")
    print(f"c solvers {','.join(solvers)} families {','.join(families)}")
    records = run_suite(
        config,
        solvers=solvers,
        families=families,
        log_path=args.log,
        resume=args.resume,
        portfolio=args.portfolio,
    )
    by_status: dict = {}
    for record in records:
        by_status[record.result.status] = by_status.get(record.result.status, 0) + 1
    summary = " ".join(f"{status}={count}" for status, count in sorted(by_status.items()))
    print(f"c records {len(records)} ({summary})")
    if args.table:
        from .experiments.table1 import build_table, format_table

        print(format_table(build_table(records, solvers=sorted({r.solver for r in records}))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
