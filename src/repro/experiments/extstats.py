"""Reproduce the in-text experimental claims of Section IV.

Besides Table I and Fig. 4 the paper reports three numbers in prose:

* **S1**: HQS solves ~90% of its solved instances in under one second
  (IDQ: ~49%);
* **S2**: the MaxSAT problem for choosing elimination variables takes
  under 0.06 s on every instance;
* **S3**: the syntactic unit/pure checks take less than 4% of each
  instance's runtime.

Run as a module::

    python -m repro.experiments.extstats
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.hqs import STAGE_TIMERS
from .runner import BenchConfig, RunRecord, run_suite


def fraction_solved_fast(
    records: Sequence[RunRecord], solver: str, threshold: float = 1.0
) -> Optional[float]:
    """Fraction of ``solver``'s solved instances finished within ``threshold``."""
    solved = [r for r in records if r.solver == solver and r.solved]
    if not solved:
        return None
    fast = sum(1 for r in solved if r.result.runtime < threshold)
    return fast / len(solved)


def maxsat_times(records: Sequence[RunRecord]) -> List[float]:
    """Per-instance MaxSAT selection times recorded by HQS."""
    return [
        r.result.stats["maxsat_time"]
        for r in records
        if r.solver == "HQS" and "maxsat_time" in r.result.stats
    ]


def stage_time_totals(records: Sequence[RunRecord]) -> Dict[str, float]:
    """Suite-wide wall-clock per HQS pipeline stage.

    Sums the ``time_*`` stage timers (``STAGE_TIMERS``, defined next to
    the solver in :mod:`repro.core.hqs`) over every HQS run (solved or
    not — an aborted run still spent the time).  The keys are set to 0.0
    at the start of every solve, so a missing key means stats from an
    older checkpoint, not a stage that never ran.
    """
    totals: Dict[str, float] = {key: 0.0 for key in STAGE_TIMERS}
    for r in records:
        if r.solver != "HQS":
            continue
        for key in STAGE_TIMERS:
            totals[key] += r.result.stats.get(key, 0.0)
    return totals


def unit_pure_fractions(records: Sequence[RunRecord]) -> List[float]:
    """Per-instance share of runtime spent in unit/pure detection."""
    fractions = []
    for r in records:
        if r.solver != "HQS" or not r.solved or r.result.runtime <= 0:
            continue
        spent = r.result.stats.get("unit_pure_time", 0.0)
        fractions.append(spent / r.result.runtime)
    return fractions


def extended_stats(records: Sequence[RunRecord]) -> Dict[str, object]:
    maxsat = maxsat_times(records)
    unit_pure = unit_pure_fractions(records)
    return {
        "hqs_under_1s_fraction": fraction_solved_fast(records, "HQS"),
        "idq_under_1s_fraction": fraction_solved_fast(records, "IDQ"),
        "max_maxsat_time": max(maxsat) if maxsat else 0.0,
        "mean_maxsat_time": sum(maxsat) / len(maxsat) if maxsat else 0.0,
        "max_unit_pure_fraction": max(unit_pure) if unit_pure else 0.0,
        "mean_unit_pure_fraction": (
            sum(unit_pure) / len(unit_pure) if unit_pure else 0.0
        ),
        "stage_time_totals": stage_time_totals(records),
    }


def main() -> Dict[str, object]:
    config = BenchConfig()
    print(f"In-text statistics reproduction with {config!r}")
    records = run_suite(config)
    stats = extended_stats(records)
    for key, value in stats.items():
        print(f"  {key}: {value}")
    return stats


if __name__ == "__main__":
    main()
