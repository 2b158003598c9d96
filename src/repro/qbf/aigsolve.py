"""The AIG-based QBF back-end (the AIGSolve stand-in).

HQS hands over to this solver once the DQBF's dependency graph is
acyclic: the linearized prefix plus the *same* matrix AIG come in
directly — no CNF round trip (Section III-C: "we can feed the remaining
AIG directly into this solver").

The back-end is straight-line: it prunes the prefix to the support and
applies syntactic unit/pure elimination to a fixpoint.  A single
remaining quantifier block is one SAT (or tautology) call; anything
else goes to the counterexample-guided solver (:mod:`repro.qbf.cegar`),
which refutes universal blocks instead of expanding them and always
decides.  Only the caller's guard can stop it; HQS then falls back to
its own universal elimination (ladder rung 3).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..aig.cnf_bridge import is_satisfiable, is_tautology
from ..aig.graph import FALSE, TRUE, Aig
from ..aig.unitpure import detect_unit_pure
from ..core.guard import ResourceGuard
from ..core.state import COMPACT_RATIO
from ..formula.prefix import EXISTS, FORALL, BlockedPrefix
from ..formula.qbf import Qbf
from ..sat.incremental import AigSatSession
from .cegar import solve_cegar


class QbfSolverStats:
    """Counters for one AIGSolve run.

    ``cegar_rounds`` counts abstraction-refinement rounds over all
    recursion levels and ``cegar_sat_calls`` the SAT queries they made.
    """

    def __init__(self) -> None:
        self.unit_eliminations = 0
        self.pure_eliminations = 0
        self.sat_endgames = 0
        self.cegar_rounds = 0
        self.cegar_sat_calls = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


def solve_aig_qbf(
    aig: Aig,
    root: int,
    prefix: BlockedPrefix,
    limits=None,
    use_unit_pure: bool = True,
    stats: Optional[QbfSolverStats] = None,
    sat_session: Optional[AigSatSession] = None,
) -> bool:
    """Decide the QBF given by ``prefix`` over the function at ``root``.

    ``prefix`` is consumed (mutated); pass a copy if it must survive.
    ``limits`` accepts a :class:`~repro.core.result.Limits` *or* a
    :class:`~repro.core.guard.ResourceGuard` — HQS hands down a guard
    slice so this back-end shares the solve's clock instead of starting
    its own; exhaustion raises the guard's
    :class:`~repro.errors.ResourceExhausted` subclass.

    ``sat_session`` routes the SAT endgame through a persistent
    incremental solver (HQS hands down the session it used during
    elimination, so clauses learned there keep working here); without
    one the endgame builds a throwaway solver.  The CEGAR solver only
    shares its counters (see :func:`~repro.qbf.cegar.solve_cegar`).
    """
    guard = ResourceGuard.ensure(limits)
    guard.enter_stage("qbf-backend")
    stats = stats if stats is not None else QbfSolverStats()
    guard.check()
    if root in (TRUE, FALSE):
        return root == TRUE

    # Compact when the manager carries too much garbage, then check the
    # node budget against live size.
    live = aig.cone_size(root)
    if aig.num_nodes > COMPACT_RATIO * max(live, 64):
        aig, (root,) = aig.extract([root])
        if sat_session is not None:
            sat_session.rebind(aig)
        live = aig.cone_size(root)
    guard.check_nodes(live)

    _prune_prefix(aig, root, prefix)
    if use_unit_pure:
        outcome, root = _apply_unit_pure_qbf(aig, root, prefix, stats, guard)
        if outcome is not None:
            return outcome
        if root in (TRUE, FALSE):
            return root == TRUE
        _prune_prefix(aig, root, prefix)

    blocks = prefix.blocks
    if not blocks:
        # No quantified variables left but non-constant matrix cannot
        # happen for closed formulas; treat defensively via SAT.
        return is_satisfiable(aig, root, guard.deadline(), sat_session)
    if len(blocks) == 1:
        stats.sat_endgames += 1
        if blocks[0][0] == EXISTS:
            return is_satisfiable(aig, root, guard.deadline(), sat_session)
        return is_tautology(aig, root, guard.deadline(), sat_session)
    return solve_cegar(aig, root, blocks, guard, stats, sat_session)


def solve_qbf(formula: Qbf, limits=None, **kwargs) -> bool:
    """Convenience entry point from a CNF-based :class:`Qbf`."""
    from ..aig.cnf_bridge import cnf_to_aig

    formula.validate()
    aig, root = cnf_to_aig(formula.matrix.clauses)
    prefix = BlockedPrefix(formula.prefix.blocks)
    return solve_aig_qbf(aig, root, prefix, limits, **kwargs)


def _prune_prefix(aig: Aig, root: int, prefix: BlockedPrefix) -> None:
    """Drop the quantified variables ``root`` does not depend on."""
    support = aig.support_of(root)
    for var in prefix.variables():
        if var not in support:
            prefix.remove_variable(var)


def _apply_unit_pure_qbf(
    aig: Aig,
    root: int,
    prefix: BlockedPrefix,
    stats: QbfSolverStats,
    guard: Optional[ResourceGuard] = None,
):
    """Theorem 5 on a blocked prefix; returns ``(decided, root)``.

    Each detection round is applied as one batched ``restrict``.
    ``guard`` threads the caller's budget through the fixpoint rounds.
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
        root = aig.restrict(root, assignment)
        for var in assignment:
            prefix.remove_variable(var)
