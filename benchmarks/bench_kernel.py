"""AIG kernel benchmark: the python vs numpy array backend.

The same kernel workload (bit-parallel FRAIG simulation, support
sweeps after invalidation, Theorem-1 growth estimates, cone collection)
runs on ``Aig(backend="python")`` and ``Aig(backend="numpy")`` and is
reported as wall-clock and nodes/sec per generator family.
Acceptance: **>= 5x wall-clock speedup** on the two largest families.
Results are committed to ``BENCH_kernel.json`` so the perf trajectory
is tracked; the JSON also stores a calibration-normalized pure-python
baseline that the CI smoke job checks for regressions
(``REPRO_BENCH_KERNEL_TOLERANCE``, default 10%).  A smoke test also
checks that a solve exports the kernel's work counters.

Run under pytest (`pytest benchmarks/bench_kernel.py`) or standalone:

    PYTHONPATH=src python benchmarks/bench_kernel.py

``REPRO_BENCH_KERNEL_QUICK=1`` shrinks the instances for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.aig import backend as backend_module
from repro.aig.cnf_bridge import cnf_to_aig
from repro.aig.fraig import _new_word_table, _pattern_fill
from repro.aig.graph import Aig
from repro.core.hqs import HqsSolver
from repro.core.result import Limits
from repro.pec.families import make_adder, make_bitcell, make_comp, make_pec_xor

QUICK = os.environ.get("REPRO_BENCH_KERNEL_QUICK", "") not in ("", "0")
TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "5.0" if QUICK else "30.0"))

BACKEND_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
BACKEND_WIDTH = 1024  # simulation pattern width (bits)
TOLERANCE = float(os.environ.get("REPRO_BENCH_KERNEL_TOLERANCE", "0.10"))


def test_kernel_stats_exported():
    """A default solve populates the kernel_* fields in stats."""
    instance = make_adder(3, 2, False, seed=5) if QUICK else make_adder(5, 2, False, seed=5)
    result = HqsSolver().solve(instance.formula.copy(), Limits(time_limit=TIMEOUT))
    stats = result.stats
    for key in (
        "kernel_rebuild_passes",
        "kernel_fused_passes",
        "kernel_nodes_visited",
        "kernel_nodes_shared",
        "kernel_strash_hit_rate",
        "kernel_support_cache_hit_rate",
    ):
        assert key in stats
    assert stats["kernel_fused_passes"] > 0


# ---------------------------------------------------------------------------
# python-vs-numpy backend comparison
# ---------------------------------------------------------------------------

def backend_instances(quick: bool = QUICK):
    """Instances for the backend comparison, large enough for the
    vectorized kernels to operate on realistic cone sizes."""
    if quick:
        return [
            ("adder", make_adder(8, 2, False, seed=5)),
            ("pec_xor", make_pec_xor(12, 2, False, seed=1)),
            ("bitcell", make_bitcell(6, 2, False, seed=3)),
        ]
    return [
        ("adder", make_adder(32, 3, False, seed=5)),
        ("pec_xor", make_pec_xor(40, 4, False, seed=1)),
        ("comp", make_comp(16, 4, False, seed=7)),
        ("bitcell", make_bitcell(12, 3, False, seed=3)),
    ]


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall-clock of ``repeats`` runs (the usual noise filter)."""
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.monotonic()
    fn()
    return time.monotonic() - start


def calibration_score() -> float:
    """Iterations/sec of a fixed pure-Python integer workload.

    Recorded next to every nodes/sec figure so the CI regression guard
    can compare runs across machines: the *ratio* nodes/sec over
    calibration cancels raw interpreter speed.
    """
    iterations = 200_000

    def work() -> None:
        acc = 0
        for i in range(iterations):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFFFFFF

    return iterations / _best_of(work)


def measure_backend(formula, backend: str, quick: bool = QUICK) -> Dict[str, float]:
    """Time the four vectorized kernel workloads on one backend.

    The mix mirrors the solver's hot paths: FRAIG re-simulation rounds,
    support recomputation after elimination invalidates the caches,
    per-candidate Theorem-1 growth estimates during MaxSAT selection
    scoring, and cone collection for compaction / Tseitin ordering.
    """
    sim_reps = 3 if quick else 10
    sweep_reps = 6 if quick else 20
    growth_vars = 8 if quick else 16

    aig, root = cnf_to_aig(formula.matrix.clauses, Aig(backend=backend))
    cone = aig.cone_size(root)
    support = sorted(aig.support_of(root))
    rng = random.Random(99)
    patterns = {v: rng.getrandbits(BACKEND_WIDTH) for v in support}

    def run_simulate() -> None:
        for i in range(sim_reps):
            table = _new_word_table(aig)
            table.simulate(
                aig, root, dict(patterns), BACKEND_WIDTH,
                pattern_word=_pattern_fill(i),
            )

    def run_support() -> None:
        for _ in range(sweep_reps):
            aig.invalidate_caches()
            aig.support_of(root)

    def run_growth() -> None:
        for var in support[:growth_vars]:
            aig.count_depending_ands(root, var)

    def run_cone() -> None:
        # cone_size, not cone_nodes: the latter's DFS post-order is an
        # API contract (variable numbering) and identical on both
        # backends, while the membership count is mask-based on numpy.
        for _ in range(sweep_reps):
            aig.cone_size(root)

    timings = {
        "simulate_seconds": _best_of(run_simulate),
        "support_seconds": _best_of(run_support),
        "growth_seconds": _best_of(run_growth),
        "cone_seconds": _best_of(run_cone),
    }
    total = sum(timings.values())
    nodes_processed = cone * (
        sim_reps + 2 * sweep_reps + min(growth_vars, len(support))
    )
    timings["total_seconds"] = total
    timings["nodes_per_sec"] = nodes_processed / total if total else 0.0
    timings["cone_size"] = cone
    return timings


def run_backend_report(quick: bool = QUICK) -> List[Dict[str, object]]:
    """Per-family backend comparison rows (numpy column absent without it)."""
    have_numpy = backend_module.numpy_available()
    rows: List[Dict[str, object]] = []
    for name, instance in backend_instances(quick):
        python = measure_backend(instance.formula, "python", quick)
        numpy: Optional[Dict[str, float]] = (
            measure_backend(instance.formula, "numpy", quick) if have_numpy else None
        )
        rows.append(
            {
                "family": name,
                "cone_size": python["cone_size"],
                "python": python,
                "numpy": numpy,
                "speedup": (
                    python["total_seconds"] / numpy["total_seconds"]
                    if numpy and numpy["total_seconds"]
                    else None
                ),
            }
        )
    return rows


def print_backend_report(rows) -> None:
    print(f"\nbackend comparison (width {BACKEND_WIDTH} simulation + sweeps)")
    print(
        f"  {'family':<10} {'cone':>6} {'python':>9} {'numpy':>9} "
        f"{'py nodes/s':>11} {'np nodes/s':>11} {'speedup':>8}"
    )
    for row in rows:
        numpy = row["numpy"]
        print(
            f"  {row['family']:<10} {row['cone_size']:>6} "
            f"{row['python']['total_seconds']:>8.3f}s "
            + (f"{numpy['total_seconds']:>8.3f}s " if numpy else f"{'n/a':>9} ")
            + f"{row['python']['nodes_per_sec']:>11.0f} "
            + (f"{numpy['nodes_per_sec']:>11.0f} " if numpy else f"{'n/a':>11} ")
            + (f"{row['speedup']:>7.2f}x" if row["speedup"] else f"{'n/a':>8}")
        )


def write_backend_json(full_rows, quick_rows, calibration: float) -> None:
    """Commit-format JSON: the full comparison plus the quick-mode
    pure-python baseline the CI smoke job regresses against."""
    payload = {
        "schema": 1,
        "width": BACKEND_WIDTH,
        "calibration_score": calibration,
        "families": full_rows,
        "quick_baseline": {
            "calibration_score": calibration,
            "families": [
                {
                    "family": row["family"],
                    "cone_size": row["cone_size"],
                    "python_nodes_per_sec": row["python"]["nodes_per_sec"],
                }
                for row in quick_rows
            ],
        },
    }
    BACKEND_OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")


def _two_largest(rows):
    return sorted(rows, key=lambda r: r["cone_size"], reverse=True)[:2]


def test_backend_numpy_speedup():
    """Acceptance: >= 5x wall-clock speedup on the two largest families."""
    import pytest

    if QUICK:
        pytest.skip("speedup acceptance needs full-size instances")
    if not backend_module.numpy_available():
        pytest.skip("numpy not installed")
    rows = run_backend_report()
    print_backend_report(rows)
    for row in _two_largest(rows):
        assert row["speedup"] is not None and row["speedup"] >= 5.0, (
            f"family {row['family']}: numpy speedup {row['speedup']} < 5.0x"
        )


def test_python_backend_no_regression():
    """CI smoke guard: quick-mode python nodes/sec, calibration-normalized,
    must stay within TOLERANCE of the committed quick baseline."""
    import pytest

    if not BACKEND_OUTPUT.exists():
        pytest.skip("no committed BENCH_kernel.json baseline")
    baseline = json.loads(BACKEND_OUTPUT.read_text()).get("quick_baseline")
    if not baseline:
        pytest.skip("committed BENCH_kernel.json has no quick baseline")
    base_cal = baseline["calibration_score"]
    base_rows = {row["family"]: row for row in baseline["families"]}
    current_cal = calibration_score()
    for name, instance in backend_instances(quick=True):
        if name not in base_rows:
            continue
        measured = measure_backend(instance.formula, "python", quick=True)
        normalized = (measured["nodes_per_sec"] / current_cal) / (
            base_rows[name]["python_nodes_per_sec"] / base_cal
        )
        assert normalized >= 1.0 - TOLERANCE, (
            f"family {name}: python backend at {normalized:.2f} of the "
            f"committed baseline (tolerance {TOLERANCE:.0%})"
        )


def main() -> None:
    backend_rows = run_backend_report(quick=False)
    print_backend_report(backend_rows)
    quick_rows = run_backend_report(quick=True)
    write_backend_json(backend_rows, quick_rows, calibration_score())
    print(f"\nbackend comparison written to {BACKEND_OUTPUT}")


if __name__ == "__main__":
    main()
