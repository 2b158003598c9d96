"""Application of Theorem 5: eliminate unit and pure variables.

Detection is the syntactic AIG pass of Theorem 6
(:mod:`repro.aig.unitpure`); this module applies the elimination rules:

* existential unit  -> substitute the forced value;
* universal unit    -> the DQBF is UNSAT;
* existential pure  -> substitute the preferred value;
* universal pure    -> substitute the *adverse* value (positive pure
  universals are set to 0, negative pure ones to 1).

These eliminations are particularly attractive for DQBF because they
never duplicate variables (Section III-B).  The loop below runs to a
fixpoint: every substitution can expose new unit/pure variables.
"""

from __future__ import annotations

from typing import Optional

from ..aig.unitpure import detect_unit_pure
from .guard import ResourceGuard
from .state import AigDqbf


class UnitPureStats:
    """Counters reported in the experiments (unit/pure hits and rounds)."""

    def __init__(self) -> None:
        self.units_eliminated = 0
        self.pures_eliminated = 0
        self.rounds = 0

    def __repr__(self) -> str:
        return (
            f"UnitPureStats(units={self.units_eliminated}, "
            f"pures={self.pures_eliminated}, rounds={self.rounds})"
        )


def apply_unit_pure(
    state: AigDqbf,
    stats: Optional[UnitPureStats] = None,
    guard: Optional[ResourceGuard] = None,
) -> Optional[bool]:
    """Eliminate unit/pure variables until fixpoint.

    Returns ``False`` when a universal unit proves the formula UNSAT,
    ``True``/``False`` when the matrix collapses to a constant, and
    ``None`` otherwise (state updated in place).

    Every substitution of a detection round is collected into one
    constant assignment and applied by a single fused
    :meth:`~repro.aig.graph.Aig.restrict` pass (substituting constants
    for distinct variables commutes).

    ``guard`` threads the caller's cooperative budget through the
    fixpoint rounds; ``None`` gets an unlimited guard.
    """
    stats = stats if stats is not None else UnitPureStats()
    guard = ResourceGuard.ensure(guard)
    while True:
        guard.check()
        constant = state.is_constant()
        if constant is not None:
            return constant
        info = detect_unit_pure(state.aig, state.root)
        if not info:
            return None
        stats.rounds += 1
        outcome = _apply_round(state, info, stats)
        if outcome is not _CONTINUE:
            return outcome


_CONTINUE = object()  # sentinel: round applied, keep iterating


def _apply_round(state: AigDqbf, info, stats: UnitPureStats):
    """Apply one detection round as a single multi-variable restrict."""
    for var in info.units:
        if state.prefix.quantifies(var) and state.prefix.is_universal(var):
            # Theorem 5: a unit universal variable falsifies the DQBF.
            return False
    assignment = {}
    for var, forced in info.units.items():
        if not state.prefix.quantifies(var):
            continue
        assignment[var] = forced
        stats.units_eliminated += 1
    for var, polarity in info.pures.items():
        if not state.prefix.quantifies(var):
            continue
        if state.prefix.is_existential(var):
            assignment[var] = polarity
        else:
            # Universal pure: substitute the adverse polarity.
            assignment[var] = not polarity
        stats.pures_eliminated += 1
    if not assignment:
        return None
    state.root = state.aig.restrict(state.root, assignment)
    for var in assignment:
        if state.prefix.is_existential(var):
            state.prefix.remove_existential(var)
        else:
            state.prefix.remove_universal(var)
    return _CONTINUE
