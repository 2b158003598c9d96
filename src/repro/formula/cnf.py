"""A small clause database used as the front-end matrix representation.

The DQBF/QBF containers keep their matrix in CNF until preprocessing
finishes; afterwards the solvers switch to an AIG representation
(:mod:`repro.aig`).  The class deliberately stays close to the DIMACS
view of the world: clauses are tuples of integer literals.

**Canonical once.**  Every stored clause is canonical: duplicate-free,
not a tautology, and sorted by variable (one literal per variable, so
this is the same order as sorting by variable, then polarity).
:func:`normalize_clause` makes a clause canonical when it enters a
database through :meth:`Cnf.add_clause`.  A clause derived from a
canonical one by dropping literals is still canonical, so the
transformations here and in :mod:`repro.core.preprocess` append such
clauses with :meth:`Cnf.add_canonical`, which only deduplicates.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .lits import var_of


def normalize_clause(lits: Iterable[int]) -> Optional[Tuple[int, ...]]:
    """Sort and deduplicate a clause; return ``None`` if it is a tautology.

    The result is a tuple sorted by variable (then polarity, which never
    ties: a non-tautological clause has one literal per variable), which
    makes clause-set comparisons deterministic.
    """
    seen = set(lits)
    if 0 in seen:
        raise ValueError("0 is not a literal")
    clause = sorted(seen, key=abs)
    if len(set(map(abs, clause))) < len(clause):
        return None
    return tuple(clause)


class Cnf:
    """A set of clauses over integer variables.

    The database deduplicates clauses and drops tautologies on insertion.
    ``num_vars`` tracks the largest variable mentioned (or declared).
    """

    def __init__(self, clauses: Iterable[Iterable[int]] = (), num_vars: int = 0):
        self._clauses: List[Tuple[int, ...]] = []
        self._clause_set: Set[Tuple[int, ...]] = set()
        self.num_vars = num_vars
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_clause(self, lits: Iterable[int]) -> bool:
        """Insert a clause; returns ``True`` if it was new and non-trivial."""
        clause = normalize_clause(lits)
        if clause is None or clause in self._clause_set:
            return False
        self._clauses.append(clause)
        self._clause_set.add(clause)
        if clause and abs(clause[-1]) > self.num_vars:
            self.num_vars = abs(clause[-1])
        return True

    def add_canonical(self, clause: Tuple[int, ...]) -> None:
        """Insert an already canonical clause over known variables.

        For clauses derived from this database's own (or a copy's) by
        dropping literals: only deduplication is left to do.
        """
        if clause not in self._clause_set:
            self._clauses.append(clause)
            self._clause_set.add(clause)

    def extend(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def fresh_var(self) -> int:
        """Allocate and return a variable not used so far."""
        self.num_vars += 1
        return self.num_vars

    def copy(self) -> "Cnf":
        other = Cnf(num_vars=self.num_vars)
        other._clauses = list(self._clauses)
        other._clause_set = set(self._clause_set)
        return other

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def clauses(self) -> List[Tuple[int, ...]]:
        return self._clauses

    @property
    def clause_set(self) -> AbstractSet[Tuple[int, ...]]:
        """The clauses as a set, for membership tests of canonical tuples."""
        return self._clause_set

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self._clauses)

    def __len__(self) -> int:
        return len(self._clauses)

    def __contains__(self, clause: Iterable[int]) -> bool:
        normalized = normalize_clause(clause)
        return normalized in self._clause_set if normalized else False

    def variables(self) -> Set[int]:
        """Return the set of variables occurring in some clause."""
        return set(map(abs, chain.from_iterable(self._clauses)))

    def has_empty_clause(self) -> bool:
        return () in self._clause_set

    def literal_occurrences(self) -> Dict[int, int]:
        """Count occurrences of every literal."""
        return dict(Counter(chain.from_iterable(self._clauses)))

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate the CNF under a complete assignment of its variables."""
        for clause in self._clauses:
            satisfied = False
            for lit in clause:
                value = assignment[var_of(lit)]
                if (lit > 0) == value:
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def assign(self, var: int, value: bool) -> "Cnf":
        """Return the CNF with ``var`` fixed to ``value`` (clauses simplified)."""
        true_lit = var if value else -var
        false_lit = -true_lit
        result = Cnf(num_vars=self.num_vars)
        add = result.add_canonical
        for clause in self._clauses:
            if true_lit in clause:
                continue
            if false_lit in clause:
                clause = tuple(lit for lit in clause if lit != false_lit)
            add(clause)
        return result

    def rename(self, mapping: Dict[int, int]) -> "Cnf":
        """Return the CNF with variables renamed by ``mapping`` (var -> var)."""
        result = Cnf(num_vars=self.num_vars)
        for clause in self._clauses:
            result.add_clause(
                (mapping.get(var_of(lit), var_of(lit)) * (1 if lit > 0 else -1))
                for lit in clause
            )
        return result

    def to_dimacs(self) -> str:
        """Serialize in DIMACS CNF format."""
        lines = [f"p cnf {self.num_vars} {len(self._clauses)}"]
        for clause in self._clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Cnf(num_vars={self.num_vars}, clauses={len(self._clauses)})"


def cnf_from_clauses(clauses: Sequence[Sequence[int]]) -> Cnf:
    """Convenience constructor used in tests and examples."""
    return Cnf(clauses)
