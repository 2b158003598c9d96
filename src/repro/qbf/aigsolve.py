"""The AIG-based QBF back-end (the AIGSolve stand-in).

HQS hands over to this solver once the DQBF's dependency graph is
acyclic: the linearized prefix plus the *same* matrix AIG come in
directly — no CNF round trip (Section III-C: "we can feed the remaining
AIG directly into this solver").

The loop prunes the prefix to the support, applies syntactic unit/pure
elimination, and short-circuits to a single SAT call when only one
quantifier block remains.  At the first point where it would expand a
variable it asks the counterexample-guided solver
(:mod:`repro.qbf.cegar`), which refutes the innermost universal block
instead of expanding it.  That solver has a fixed conflict budget; when
it runs out, the loop continues from the same state by quantifying the
innermost block variable by variable (``exists`` = OR of cofactors,
``forall`` = AND of cofactors).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..aig.cnf_bridge import is_satisfiable, is_tautology
from ..aig.graph import FALSE, TRUE, Aig
from ..aig.unitpure import detect_unit_pure
from ..core.guard import ResourceGuard
from ..formula.prefix import EXISTS, FORALL, BlockedPrefix
from ..formula.qbf import Qbf
from ..sat.incremental import AigSatSession
from .cegar import solve_cegar


class QbfSolverStats:
    """Counters for one AIGSolve run.

    ``cegar_rounds`` counts abstraction-refinement rounds over all
    recursion levels, ``cegar_sat_calls`` the SAT queries they made, and
    ``cegar_fallbacks`` the CEGAR calls that ran out of conflict budget
    and left the formula to expansion.
    """

    def __init__(self) -> None:
        self.quantifier_eliminations = 0
        self.unit_eliminations = 0
        self.pure_eliminations = 0
        self.sat_endgames = 0
        self.cegar_rounds = 0
        self.cegar_sat_calls = 0
        self.cegar_fallbacks = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


def solve_aig_qbf(
    aig: Aig,
    root: int,
    prefix: BlockedPrefix,
    limits=None,
    use_unit_pure: bool = True,
    stats: Optional[QbfSolverStats] = None,
    compact_ratio: int = 4,
    fused: bool = True,
    sat_session: Optional[AigSatSession] = None,
) -> bool:
    """Decide the QBF given by ``prefix`` over the function at ``root``.

    ``prefix`` is consumed (mutated); pass a copy if it must survive.
    ``limits`` accepts a :class:`~repro.core.result.Limits` *or* a
    :class:`~repro.core.guard.ResourceGuard` — HQS hands down a guard
    slice so this back-end shares the solve's clock instead of starting
    its own; exhaustion raises the guard's
    :class:`~repro.errors.ResourceExhausted` subclass.

    ``fused`` selects the single-pass AIG kernel (``cofactor2`` for
    quantification, batched ``restrict`` for unit/pure); the naive path
    rebuilds the full cone once per cofactor and is kept for kernel
    comparisons.

    ``sat_session`` routes the SAT endgames through a persistent
    incremental solver (HQS hands down the session it used during
    elimination, so clauses learned there keep working here); without
    one each endgame builds a throwaway solver.  The CEGAR solver only
    shares its counters (see :func:`~repro.qbf.cegar.solve_cegar`).
    """
    guard = ResourceGuard.ensure(limits)
    guard.enter_stage("qbf-backend")
    stats = stats if stats is not None else QbfSolverStats()
    cegar_tried = False

    while True:
        guard.check()
        if root == TRUE:
            return True
        if root == FALSE:
            return False

        # Compact when the manager carries too much garbage, then check
        # the node budget against live size.
        live = aig.cone_size(root)
        if aig.num_nodes > compact_ratio * max(live, 64):
            fresh, (root,) = aig.extract([root])
            aig = fresh
            if sat_session is not None:
                sat_session.rebind(aig)
            live = aig.cone_size(root)
        guard.check_nodes(live)
        guard.note(qbf_quantifier_eliminations=float(stats.quantifier_eliminations))

        support = aig.support_of(root)
        for var in prefix.variables():
            if var not in support:
                prefix.remove_variable(var)

        if use_unit_pure:
            outcome, root = _apply_unit_pure_qbf(aig, root, prefix, stats, fused, guard)
            if outcome is not None:
                return outcome
            if root in (TRUE, FALSE):
                continue

        blocks = prefix.blocks
        if not blocks:
            # No quantified variables left but non-constant matrix cannot
            # happen for closed formulas; treat defensively via SAT.
            return is_satisfiable(aig, root, guard.deadline(), sat_session)
        if len(blocks) == 1:
            quantifier, _variables = blocks[0]
            stats.sat_endgames += 1
            if quantifier == EXISTS:
                return is_satisfiable(aig, root, guard.deadline(), sat_session)
            return is_tautology(aig, root, guard.deadline(), sat_session)

        if not cegar_tried:
            cegar_tried = True
            verdict = solve_cegar(aig, root, blocks, guard, stats, sat_session)
            if verdict is not None:
                return verdict

        quantifier, variables = prefix.innermost_block()
        var = _cheapest_variable(aig, root, variables)
        if fused:
            cof0, cof1 = aig.cofactor2(root, var)
        else:
            cof0 = aig.cofactor(root, var, False)
            cof1 = aig.cofactor(root, var, True)
        root = aig.lor(cof0, cof1) if quantifier == EXISTS else aig.land(cof0, cof1)
        prefix.remove_variable(var)
        stats.quantifier_eliminations += 1


def solve_qbf(formula: Qbf, limits=None, **kwargs) -> bool:
    """Convenience entry point from a CNF-based :class:`Qbf`."""
    from ..aig.cnf_bridge import cnf_to_aig

    formula.validate()
    aig, root = cnf_to_aig(formula.matrix.clauses)
    prefix = BlockedPrefix(formula.prefix.blocks)
    return solve_aig_qbf(aig, root, prefix, limits, **kwargs)


def _cheapest_variable(aig: Aig, root: int, variables) -> int:
    """Pick the block variable with the fewest direct fanouts in the cone.

    Low fanout correlates with small cofactor divergence, which keeps
    the OR/AND of cofactors small — the classic AIGSolve scheduling
    heuristic, reduced to its cheapest useful form.
    """
    if len(variables) == 1:
        return variables[0]
    fanout = aig.input_fanout_counts(root, variables)
    return min(variables, key=lambda v: (fanout.get(v, 0), v))


def _apply_unit_pure_qbf(
    aig: Aig,
    root: int,
    prefix: BlockedPrefix,
    stats: QbfSolverStats,
    fused: bool = True,
    guard: Optional[ResourceGuard] = None,
):
    """Theorem 5 on a blocked prefix; returns ``(decided, root)``.

    ``fused`` applies each detection round as one batched ``restrict``
    instead of one full-cone cofactor rebuild per variable.  ``guard``
    threads the caller's budget through the fixpoint rounds.
    """
    guard = ResourceGuard.ensure(guard)
    while True:
        guard.check()
        if root in (TRUE, FALSE):
            return None, root
        info = detect_unit_pure(aig, root)
        if not info:
            return None, root
        for var in info.units:
            if prefix.quantifier_of(var) == FORALL:
                return False, root
        assignment: Dict[int, bool] = {}
        for var, forced in info.units.items():
            if prefix.quantifier_of(var) is None:
                continue
            assignment[var] = forced
            stats.unit_eliminations += 1
        for var, polarity in info.pures.items():
            quantifier = prefix.quantifier_of(var)
            if quantifier is None:
                continue
            assignment[var] = polarity if quantifier == EXISTS else not polarity
            stats.pure_eliminations += 1
        if not assignment:
            return None, root
        if fused:
            root = aig.restrict(root, assignment)
        else:
            for var, value in assignment.items():
                root = aig.cofactor(root, var, value)
        for var in assignment:
            prefix.remove_variable(var)
