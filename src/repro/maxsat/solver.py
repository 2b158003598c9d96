"""Partial MaxSAT by assumption-based linear search (the antom stand-in).

The instance consists of *hard* clauses, which must hold, and unit-weight
*soft* clauses, of which as many as possible should hold.  The solver
relaxes each soft clause with a fresh variable, builds a totalizer over
the relaxation variables and searches the optimum from below: assume
``#violated <= k`` for k = 0, 1, 2, ... until the SAT solver answers SAT.

This search direction is ideal for the HQS use case (Section III-A of
the paper): the optimum — the number of universal variables that must be
eliminated — is usually tiny, so the first few iterations settle it.
Two shortcuts avoid wasted encoding work on those easy optima: if the
model of the initial hard-clause solve already satisfies every soft
clause the answer is 0 with no relaxation at all, and bound 0 is checked
by directly assuming every relaxation variable false, so the totalizer
is only built once the optimum is known to be positive.

The linear search is warm-started by construction: one solver session
spans all bounds, so clauses learned refuting ``<= k`` carry into the
``<= k+1`` attempt.  An external solver (e.g. one owned by an
:class:`~repro.sat.incremental.AigSatSession`) can be injected to extend
that sharing across MaxSAT calls.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import StageBudgetExceeded
from ..sat.solver import SAT, UNSAT, CdclSolver
from .totalizer import Totalizer


class MaxSatResult:
    """Optimum and model of a partial MaxSAT call.

    Besides the classic ``(satisfiable, cost, model)`` triple the result
    reports the search effort: ``conflicts``/``decisions`` summed over
    every SAT call, ``bounds_tried`` in search order, and
    ``per_bound_conflicts`` mapping each tried bound to the conflicts
    its solve cost (the hard-clause feasibility check is bound ``-1``).
    ``totalizer_built`` records whether the search ever needed the
    cardinality encoding.
    """

    def __init__(
        self,
        satisfiable: bool,
        cost: int,
        model: Dict[int, bool],
        conflicts: int = 0,
        decisions: int = 0,
        per_bound_conflicts: Optional[Dict[int, int]] = None,
        totalizer_built: bool = False,
    ):
        self.satisfiable = satisfiable
        self.cost = cost
        self.model = model
        self.conflicts = conflicts
        self.decisions = decisions
        self.per_bound_conflicts = per_bound_conflicts or {}
        self.totalizer_built = totalizer_built

    @property
    def bounds_tried(self) -> List[int]:
        return sorted(self.per_bound_conflicts)

    def __repr__(self) -> str:
        status = "SAT" if self.satisfiable else "UNSAT"
        return (
            f"MaxSatResult({status}, cost={self.cost}, "
            f"conflicts={self.conflicts})"
        )


class PartialMaxSatSolver:
    """Accumulate hard/soft clauses, then :meth:`solve`.

    ``solver`` injects an existing :class:`CdclSolver` (it must not hold
    conflicting unit assumptions; its clause database and learned
    clauses are reused and extended).  Without one a private solver is
    created per :meth:`solve` call.
    """

    def __init__(self, solver: Optional[CdclSolver] = None) -> None:
        self._hard: List[List[int]] = []
        self._soft: List[List[int]] = []
        self._max_var = 0
        self._injected = solver

    def add_hard(self, clause: Iterable[int]) -> None:
        clause = list(clause)
        self._note_vars(clause)
        self._hard.append(clause)

    def add_soft(self, clause: Iterable[int]) -> None:
        clause = list(clause)
        if not clause:
            raise ValueError("soft clauses must be non-empty")
        self._note_vars(clause)
        self._soft.append(clause)

    def _note_vars(self, clause: Sequence[int]) -> None:
        for lit in clause:
            if abs(lit) > self._max_var:
                self._max_var = abs(lit)

    def solve(
        self,
        conflict_limit: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> MaxSatResult:
        """Return the minimum number of violated soft clauses and a model.

        ``conflict_limit`` bounds the *total* conflicts across every
        bound of the linear search and ``deadline`` (a
        ``time.monotonic`` timestamp) its wall clock; exhausting either
        raises :class:`~repro.errors.StageBudgetExceeded` so a caller
        with a degradation ladder (HQS elimination-set selection) can
        fall back to a cheaper heuristic instead of sinking the solve.
        """
        solver = self._injected if self._injected is not None else CdclSolver()
        solver.ensure_vars(self._max_var)
        for clause in self._hard:
            solver.add_clause(clause)

        per_bound: Dict[int, int] = {}
        totals = {"conflicts": 0, "decisions": 0}

        def timed_solve(bound: int, assumptions: Sequence[int] = ()) -> str:
            remaining_conflicts = None
            if conflict_limit is not None:
                remaining_conflicts = conflict_limit - totals["conflicts"]
                if remaining_conflicts <= 0:
                    raise StageBudgetExceeded("maxsat conflict budget exhausted")
            conflicts = solver.conflicts
            decisions = solver.decisions
            status = solver.solve(
                assumptions,
                conflict_limit=remaining_conflicts,
                deadline=deadline,
            )
            spent = solver.conflicts - conflicts
            per_bound[bound] = per_bound.get(bound, 0) + spent
            totals["conflicts"] += spent
            totals["decisions"] += solver.decisions - decisions
            if status not in (SAT, UNSAT):
                raise StageBudgetExceeded("maxsat search budget exhausted")
            return status

        def result(satisfiable: bool, cost: int, model: Dict[int, bool],
                   totalizer_built: bool) -> MaxSatResult:
            return MaxSatResult(
                satisfiable,
                cost,
                model,
                conflicts=totals["conflicts"],
                decisions=totals["decisions"],
                per_bound_conflicts=dict(per_bound),
                totalizer_built=totalizer_built,
            )

        # Bound -1: plain feasibility of the hard clauses.
        if timed_solve(-1) == UNSAT:
            return result(False, len(self._soft), {}, False)
        model = solver.model()

        if not self._soft:
            return result(True, 0, model, False)

        def violated(assignment: Dict[int, bool]) -> int:
            return sum(
                0
                if any((lit > 0) == assignment.get(abs(lit), False) for lit in c)
                else 1
                for c in self._soft
            )

        # Shortcut 1: the feasibility model may already be optimal.
        if violated(model) == 0:
            return result(True, 0, model, False)

        relax: List[int] = []
        for clause in self._soft:
            r = solver.new_var()
            relax.append(r)
            solver.add_clause(list(clause) + [r])

        # Shortcut 2: bound 0 needs no cardinality encoding — assume
        # every relaxation variable false directly; the relaxed solver's
        # model is final if it succeeds.
        if timed_solve(0, [-r for r in relax]) == SAT:
            return result(True, 0, solver.model(), False)

        totalizer = Totalizer(relax, solver.new_var, solver.add_clause)
        for bound in range(1, len(self._soft) + 1):
            assumptions = totalizer.at_most_assumption(bound)
            if timed_solve(bound, assumptions) == SAT:
                return result(True, bound, solver.model(), True)
        raise AssertionError("hard clauses satisfiable but no bound admitted a model")


def solve_partial_maxsat(
    hard: Iterable[Iterable[int]],
    soft: Iterable[Iterable[int]],
    solver: Optional[CdclSolver] = None,
) -> MaxSatResult:
    """One-shot convenience wrapper."""
    maxsat = PartialMaxSatSolver(solver=solver)
    for clause in hard:
        maxsat.add_hard(clause)
    for clause in soft:
        maxsat.add_soft(clause)
    return maxsat.solve()
