"""The DQBF container and two semantic ground-truth oracles.

A :class:`Dqbf` bundles a :class:`~repro.formula.prefix.DependencyPrefix`
with a CNF matrix.  Two independent reference procedures decide small
instances:

* :func:`skolem_enumeration_solve` enumerates Skolem function tables,
  literally implementing Definition 2 of the paper, and
* :func:`expansion_solve` performs full universal expansion into a
  propositional formula and checks satisfiability by exhaustive search.

Both are exponential and only meant as oracles for the test suite; the
real solvers live in :mod:`repro.core`, :mod:`repro.baselines` and
:mod:`repro.qbf`.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .cnf import Cnf
from .lits import var_of
from .prefix import DependencyPrefix


class Dqbf:
    """A dependency quantified Boolean formula with a CNF matrix."""

    def __init__(self, prefix: Optional[DependencyPrefix] = None, matrix: Optional[Cnf] = None):
        self.prefix = prefix if prefix is not None else DependencyPrefix()
        self.matrix = matrix if matrix is not None else Cnf()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        universals: Sequence[int],
        existentials: Sequence[Tuple[int, Iterable[int]]],
        clauses: Iterable[Iterable[int]],
    ) -> "Dqbf":
        """Build a DQBF from plain Python data.

        ``existentials`` is a sequence of ``(var, dependency_set)`` pairs.
        """
        prefix = DependencyPrefix()
        for x in universals:
            prefix.add_universal(x)
        for y, deps in existentials:
            prefix.add_existential(y, deps)
        return cls(prefix, Cnf(clauses))

    def copy(self) -> "Dqbf":
        return Dqbf(self.prefix.copy(), self.matrix.copy())

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def free_variables(self) -> List[int]:
        """Matrix variables not bound by the prefix (should be empty for closed formulas)."""
        return sorted(v for v in self.matrix.variables() if not self.prefix.quantifies(v))

    def is_qbf(self) -> bool:
        """True iff an equivalent QBF prefix exists (Theorem 3/4)."""
        return self.prefix.is_qbf_shaped()

    def validate(self) -> None:
        """Raise ``ValueError`` if the formula is not closed."""
        free = self.free_variables()
        if free:
            raise ValueError(f"free variables in matrix: {free}")

    def __repr__(self) -> str:
        return f"Dqbf({self.prefix!r}, {self.matrix!r})"


# ----------------------------------------------------------------------
# Oracle 1: Skolem function enumeration (Definition 2 verbatim)
# ----------------------------------------------------------------------

def _function_tables(num_inputs: int) -> Iterable[Tuple[bool, ...]]:
    """Yield all Boolean functions of ``num_inputs`` inputs as truth tables."""
    rows = 1 << num_inputs
    for bits in itertools.product((False, True), repeat=rows):
        yield bits


def skolem_enumeration_solve(formula: Dqbf, limit: int = 1 << 22) -> bool:
    """Decide a tiny DQBF by enumerating all Skolem function combinations.

    ``limit`` bounds the number of Skolem combinations tried; exceeding it
    raises ``ValueError`` so tests fail loudly instead of hanging.
    """
    formula.validate()
    universals = formula.prefix.universals
    existentials = formula.prefix.existentials
    deps = {y: sorted(formula.prefix.dependencies(y)) for y in existentials}

    total = 1
    for y in existentials:
        total *= 1 << (1 << len(deps[y]))
        if total > limit:
            raise ValueError(f"too many Skolem candidates ({total} > {limit})")

    universal_assignments = list(itertools.product((False, True), repeat=len(universals)))

    table_choices = [list(_function_tables(len(deps[y]))) for y in existentials]
    for tables in itertools.product(*table_choices):
        if _tables_satisfy(formula, universals, existentials, deps, tables, universal_assignments):
            return True
    # An empty existential list means the single (empty) combination above
    # was already tried, so reaching this point is a definitive "no".
    return False


def _tables_satisfy(
    formula: Dqbf,
    universals: Sequence[int],
    existentials: Sequence[int],
    deps: Dict[int, List[int]],
    tables: Sequence[Tuple[bool, ...]],
    universal_assignments: Sequence[Tuple[bool, ...]],
) -> bool:
    universal_index = {x: i for i, x in enumerate(universals)}
    for values in universal_assignments:
        assignment = {x: values[universal_index[x]] for x in universals}
        for y, table in zip(existentials, tables):
            row = 0
            for x in deps[y]:
                row = (row << 1) | int(assignment[x])
            assignment[y] = table[row]
        if not formula.matrix.evaluate(assignment):
            return False
    return True


# ----------------------------------------------------------------------
# Oracle 2: full universal expansion
# ----------------------------------------------------------------------

def expand_to_propositional(
    formula: Dqbf,
) -> Tuple[Cnf, Dict[Tuple[int, FrozenSet[Tuple[int, bool]]], int]]:
    """Fully expand all universal variables (iterated Theorem 1).

    Returns a propositional CNF together with the mapping from
    ``(existential, restricted universal assignment)`` instances to fresh
    variables.  The DQBF is satisfied iff the CNF is satisfiable.
    """
    formula.validate()
    universals = formula.prefix.universals
    existentials = set(formula.prefix.existentials)
    deps = {y: formula.prefix.dependencies(y) for y in formula.prefix.existentials}

    expanded = Cnf(num_vars=formula.matrix.num_vars)
    instance_vars: Dict[Tuple[int, FrozenSet[Tuple[int, bool]]], int] = {}

    def instance_var(y: int, sigma: Dict[int, bool]) -> int:
        key = (y, frozenset((x, sigma[x]) for x in deps[y]))
        if key not in instance_vars:
            instance_vars[key] = expanded.fresh_var()
        return instance_vars[key]

    for values in itertools.product((False, True), repeat=len(universals)):
        sigma = dict(zip(universals, values))
        for clause in formula.matrix:
            new_clause: List[int] = []
            satisfied = False
            for lit in clause:
                v = var_of(lit)
                if v in sigma:
                    if (lit > 0) == sigma[v]:
                        satisfied = True
                        break
                elif v in existentials:
                    inst = instance_var(v, sigma)
                    new_clause.append(inst if lit > 0 else -inst)
                else:  # pragma: no cover - validate() rules this out
                    raise AssertionError(f"unquantified variable {v}")
            if not satisfied:
                expanded.add_clause(new_clause)
    return expanded, instance_vars


def expansion_solve(formula: Dqbf, limit: int = 1 << 16) -> bool:
    """Decide a small DQBF by full expansion plus exhaustive SAT.

    ``limit`` bounds ``2**#universals * #clauses`` to keep tests fast.
    """
    cost = (1 << len(formula.prefix.universals)) * max(1, len(formula.matrix))
    if cost > limit:
        raise ValueError(f"expansion too large ({cost} > {limit})")
    expanded, instance_vars = expand_to_propositional(formula)
    if expanded.has_empty_clause():
        return False
    variables = sorted(expanded.variables())
    if not variables:
        return len(expanded) == 0
    for values in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if expanded.evaluate(assignment):
            return True
    return False
