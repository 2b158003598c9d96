"""Variable elimination on the AIG-backed DQBF state (Theorems 1 and 2).

*Universal elimination* (Theorem 1) replaces

    forall x ... : phi

by ``phi[0/x] ∧ phi[1/x][y'/y for y in E_x]`` where ``E_x`` are the
existential variables depending on ``x``; each gets a fresh copy ``y'``
with dependency set ``D_y \\ {x}`` in the 1-cofactor.  This is the step
that can blow up the formula — HQS therefore eliminates only a minimum
set of universals (see :mod:`repro.core.selection`).

*Existential elimination* (Theorem 2) is the cheap dual: when ``y``
depends on *all* universal variables of the formula it can be
eliminated as in QBF by ``phi[0/y] ∨ phi[1/y]`` without any copies.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .guard import ResourceGuard
from .state import AigDqbf


def eliminate_universal(
    state: AigDqbf,
    x: int,
    guard: Optional[ResourceGuard] = None,
) -> Dict[int, int]:
    """Apply Theorem 1 to ``x``; returns the ``{y: y'}`` copy map.

    Both cofactors and the dependent rename come out of one
    :meth:`~repro.aig.graph.Aig.eliminate_universal_fused` cone
    traversal, and the copy decision reuses that pass's support data:
    only dependents that occur in the 1-cofactor get a copy.

    ``guard`` (optional) charges the post-elimination cone size against
    the node budget immediately — Theorem 1 is where the matrix blows
    up, and waiting for the caller's next loop-head check would let one
    bad elimination overshoot the budget by a whole conjunction.
    """
    if not state.prefix.is_universal(x):
        raise ValueError(f"{x} is not a universal variable")
    aig = state.aig

    # A universal absent from the matrix has identical cofactors; both
    # theorems degenerate to dropping it from the prefix (copying the
    # dependents would only duplicate the conjunct).
    if state.root < 2 or x not in aig.support_of(state.root):
        state.prefix.remove_universal(x)
        return {}

    dependents = state.prefix.dependents_of(x)

    cofactor0, cofactor1, copies = aig.eliminate_universal_fused(
        state.root, x, dependents, state.fresh_var
    )
    state.root = aig.land(cofactor0, cofactor1)
    # Prefix update: new copies inherit D_y minus x, then x disappears
    # from every dependency set.
    for y, y_copy in copies.items():
        state.prefix.add_existential(y_copy, state.prefix.dependencies(y) - {x})
    state.prefix.remove_universal(x)
    if guard is not None:
        guard.check_nodes(state.matrix_size())
    return copies


def eliminate_existential(state: AigDqbf, y: int) -> None:
    """Apply Theorem 2 to ``y`` (requires ``D_y`` = all universals)."""
    prefix = state.prefix
    if not prefix.is_existential(y):
        raise ValueError(f"{y} is not an existential variable")
    if prefix.dependencies(y) != frozenset(prefix.universals):
        raise ValueError(
            f"existential {y} does not depend on all universal variables"
        )
    aig = state.aig
    cofactor0, cofactor1 = aig.cofactor2(state.root, y)
    state.root = aig.lor(cofactor0, cofactor1)
    prefix.remove_existential(y)


def eliminable_existentials(state: AigDqbf) -> List[int]:
    """Existential variables currently eligible for Theorem 2."""
    prefix = state.prefix
    all_universals = frozenset(prefix.universals)
    return [
        y for y in prefix.existentials if prefix.dependencies(y) == all_universals
    ]


def universal_elimination_cost(state: AigDqbf, x: int) -> int:
    """Number of existential copies Theorem 1 would introduce for ``x``."""
    return len(state.prefix.dependents_of(x))


def universal_growth_estimate(state: AigDqbf, x: int) -> int:
    """Estimated AIG growth of eliminating ``x``: the number of AND nodes
    in the live cone that structurally depend on ``x``.

    Those are exactly the nodes the two cofactors cannot share, so the
    count upper-bounds the duplication Theorem 1 causes.  This is the
    "more sophisticated ordering" direction named as future work in the
    paper's conclusion; exposed via ``HqsOptions(elimination_order)``.
    """
    aig = state.aig
    if state.root in (0, 1):
        return 0
    if x not in aig.support_of(state.root):
        return 0
    # One dependency sweep over the node arrays (vectorized on the numpy
    # backend, support-cache lookups on the python backend).
    return aig.count_depending_ands(state.root, x)
