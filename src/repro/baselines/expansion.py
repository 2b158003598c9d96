"""The elimination-only baseline of Gitina et al., ICCD 2013 ([10]).

This is the algorithm HQS improves upon: eliminate existential
variables whenever Theorem 2 applies, otherwise expand universal
variables one after the other (Theorem 1) until a purely propositional
formula remains, which goes to a SAT solver.  No dependency-graph
analysis, no MaxSAT-selected minimum elimination set, no unit/pure
detection, no QBF back-end.

Implemented as a thin configuration of :class:`repro.core.hqs.HqsSolver`
— the shared machinery guarantees an apples-to-apples comparison in the
benchmarks (same AIG package, same SAT solver), so measured differences
isolate the *algorithmic* contribution of the paper.
"""

from __future__ import annotations

from ..core.hqs import HqsOptions, HqsSolver
from ..core.result import SolveResult
from ..formula.dqbf import Dqbf


def expansion_options() -> HqsOptions:
    """The feature configuration matching [10]."""
    return HqsOptions(
        use_preprocessing=True,
        use_unit_pure=False,
        use_maxsat_selection=False,
        use_qbf_backend=False,
    )


def solve_expansion(formula: Dqbf, limits=None) -> SolveResult:
    """Decide ``formula`` with the expansion-only strategy of [10].

    ``limits`` may be a :class:`~repro.core.result.Limits` or a shared
    :class:`~repro.core.guard.ResourceGuard`."""
    solver = HqsSolver(expansion_options())
    return solver.solve(formula, limits)
