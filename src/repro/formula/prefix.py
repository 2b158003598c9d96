"""Quantifier prefixes for DQBF and QBF.

A DQBF prefix (Definition 1 of the paper) consists of a set of universal
variables and, for every existential variable, an explicit *dependency
set*: the subset of universal variables its Skolem function may read.

A QBF prefix (Definition 3) is a linearly ordered sequence of quantifier
blocks.  Every QBF prefix embeds into a DQBF prefix by giving each
existential variable the union of all universal blocks to its left.

**Interned dependency sets.**  A :class:`DependencyPrefix` keeps one
``frozenset`` object per distinct dependency set: existentials with
equal sets share it.  Real inputs have few distinct sets (a PEC
encoding's hundreds of existentials see a few dozen), so the check
"dependencies ⊆ universals" runs once per distinct set, and callers
that compare sets can test identity before inclusion
(``a is b or a <= b``).  Universals only grow while a prefix is built,
so a set checked once stays valid; removing a universal re-interns
every set.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

EXISTS = "e"
FORALL = "a"


class DependencyPrefix:
    """A DQBF quantifier prefix: universals plus per-existential dependency sets."""

    def __init__(self) -> None:
        self._universals: List[int] = []
        self._universal_set: Set[int] = set()
        self._deps: Dict[int, FrozenSet[int]] = {}
        self._exist_order: List[int] = []
        # Distinct dependency sets, each checked against the universals;
        # maps a set to its one shared instance.
        self._dep_sets: Dict[FrozenSet[int], FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_universal(self, var: int) -> None:
        if var in self._universal_set or var in self._deps:
            raise ValueError(f"variable {var} already quantified")
        self._universals.append(var)
        self._universal_set.add(var)

    def add_existential(self, var: int, deps: Iterable[int]) -> None:
        if var in self._universal_set or var in self._deps:
            raise ValueError(f"variable {var} already quantified")
        self._deps[var] = self._intern(var, deps)
        self._exist_order.append(var)

    def _intern(self, var: int, deps: Iterable[int]) -> FrozenSet[int]:
        """The shared instance of ``deps``, checked against the universals once."""
        dep_set = deps if isinstance(deps, frozenset) else frozenset(deps)
        known = self._dep_sets.get(dep_set)
        if known is not None:
            return known
        unknown = dep_set - self._universal_set
        if unknown:
            raise ValueError(
                f"dependency set of {var} mentions non-universal variables {sorted(unknown)}"
            )
        self._dep_sets[dep_set] = dep_set
        return dep_set

    def copy(self) -> "DependencyPrefix":
        other = DependencyPrefix()
        other._universals = list(self._universals)
        other._universal_set = set(self._universal_set)
        other._deps = dict(self._deps)
        other._exist_order = list(self._exist_order)
        other._dep_sets = dict(self._dep_sets)
        return other

    # ------------------------------------------------------------------
    # mutation used by elimination rules
    # ------------------------------------------------------------------
    def remove_universal(self, var: int) -> None:
        """Drop a universal variable and remove it from every dependency set."""
        if var not in self._universal_set:
            raise KeyError(var)
        self._remove_universals({var})

    def _remove_universals(self, removed: Set[int]) -> None:
        """Drop the universals ``removed`` from the prefix and every set.

        Each distinct dependency set is shrunk once; the results are the
        new interned sets.
        """
        self._universals = [x for x in self._universals if x not in removed]
        self._universal_set -= removed
        interned: Dict[FrozenSet[int], FrozenSet[int]] = {}
        shrunk: Dict[FrozenSet[int], FrozenSet[int]] = {}
        deps = self._deps
        for y, dep_set in deps.items():
            smaller = shrunk.get(dep_set)
            if smaller is None:
                smaller = dep_set if dep_set.isdisjoint(removed) else dep_set - removed
                smaller = shrunk[dep_set] = interned.setdefault(smaller, smaller)
            deps[y] = smaller
        self._dep_sets = interned

    def remove_existential(self, var: int) -> None:
        if var not in self._deps:
            raise KeyError(var)
        del self._deps[var]
        self._exist_order.remove(var)

    def remove_variable(self, var: int) -> None:
        """Drop ``var`` whichever kind of quantifier it carries."""
        if var in self._universal_set:
            self.remove_universal(var)
        else:
            self.remove_existential(var)

    def restrict_to(self, support: Set[int]) -> List[int]:
        """Drop all quantified variables outside ``support``.

        Variables that no longer occur in the matrix can always be removed
        from the prefix (last paragraph of Section III-C).  Returns the
        list of removed variables.
        """
        universals = [v for v in self._universals if v not in support]
        existentials = [v for v in self._exist_order if v not in support]
        if universals:
            self._remove_universals(set(universals))
        if existentials:
            for var in existentials:
                del self._deps[var]
            self._exist_order = [v for v in self._exist_order if v in self._deps]
        return universals + existentials

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def universals(self) -> List[int]:
        """Universal variables in declaration order."""
        return list(self._universals)

    @property
    def existentials(self) -> List[int]:
        """Existential variables in declaration order."""
        return list(self._exist_order)

    @property
    def universal_set(self) -> AbstractSet[int]:
        """The universals as a set, for hot loops (do not mutate)."""
        return self._universal_set

    @property
    def dependency_map(self) -> Mapping[int, FrozenSet[int]]:
        """Existential -> dependency set, for hot loops (do not mutate)."""
        return self._deps

    def is_universal(self, var: int) -> bool:
        return var in self._universal_set

    def is_existential(self, var: int) -> bool:
        return var in self._deps

    def quantifies(self, var: int) -> bool:
        return var in self._universal_set or var in self._deps

    def dependencies(self, var: int) -> FrozenSet[int]:
        """Dependency set ``D_y`` of an existential variable."""
        return self._deps[var]

    def set_dependencies(self, var: int, deps: Iterable[int]) -> None:
        if var not in self._deps:
            raise KeyError(var)
        self._deps[var] = self._intern(var, deps)

    def dependents_of(self, universal: int) -> List[int]:
        """``E_x``: the existential variables whose dependency set contains ``universal``."""
        return [y for y in self._exist_order if universal in self._deps[y]]

    def all_variables(self) -> List[int]:
        return self._universals + self._exist_order

    def __len__(self) -> int:
        return len(self._universals) + len(self._exist_order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyPrefix):
            return NotImplemented
        return (
            set(self._universals) == set(other._universals)
            and self._deps == other._deps
        )

    def __repr__(self) -> str:
        parts = [f"A{v}" for v in self._universals]
        parts += [
            f"E{v}({','.join(map(str, sorted(self._deps[v])))})"
            for v in self._exist_order
        ]
        return " ".join(parts) if parts else "<empty prefix>"

    # ------------------------------------------------------------------
    # QBF embedding
    # ------------------------------------------------------------------
    def is_qbf_shaped(self) -> bool:
        """True iff the dependency sets are totally ordered by inclusion.

        By Theorem 4 of the paper this is exactly the condition for the
        dependency graph to be acyclic, i.e. for an equivalent QBF prefix
        to exist.
        """
        # The distinct sets must form a chain: sorted by size, each one
        # contains the one before.
        chain = sorted(set(self._deps.values()), key=len)
        return all(small <= large for small, large in zip(chain, chain[1:]))


class BlockedPrefix:
    """A QBF prefix: alternating blocks of variables.

    Blocks are ``(quantifier, [vars])`` pairs with quantifier ``'a'`` or
    ``'e'``.  Adjacent same-quantifier blocks are merged on insertion.
    """

    def __init__(self, blocks: Iterable[Tuple[str, Sequence[int]]] = ()):
        self._blocks: List[Tuple[str, List[int]]] = []
        for quantifier, variables in blocks:
            self.add_block(quantifier, variables)

    def add_block(self, quantifier: str, variables: Sequence[int]) -> None:
        if quantifier not in (EXISTS, FORALL):
            raise ValueError(f"unknown quantifier {quantifier!r}")
        variables = [v for v in variables]
        if not variables:
            return
        if self._blocks and self._blocks[-1][0] == quantifier:
            self._blocks[-1][1].extend(variables)
        else:
            self._blocks.append((quantifier, variables))

    @property
    def blocks(self) -> List[Tuple[str, List[int]]]:
        return [(q, list(vs)) for q, vs in self._blocks]

    def variables(self) -> List[int]:
        return [v for _, vs in self._blocks for v in vs]

    def quantifier_of(self, var: int) -> Optional[str]:
        for quantifier, variables in self._blocks:
            if var in variables:
                return quantifier
        return None

    def remove_variable(self, var: int) -> None:
        for index, (_quantifier, variables) in enumerate(self._blocks):
            if var in variables:
                variables.remove(var)
                if not variables:
                    del self._blocks[index]
                    self._merge_adjacent()
                return
        raise KeyError(var)

    def _merge_adjacent(self) -> None:
        merged: List[Tuple[str, List[int]]] = []
        for quantifier, variables in self._blocks:
            if merged and merged[-1][0] == quantifier:
                merged[-1][1].extend(variables)
            else:
                merged.append((quantifier, list(variables)))
        self._blocks = merged

    def to_dependency_prefix(self) -> DependencyPrefix:
        """Embed into a DQBF prefix (the construction below Definition 3)."""
        prefix = DependencyPrefix()
        universal_so_far: List[int] = []
        for quantifier, variables in self._blocks:
            if quantifier == FORALL:
                for var in variables:
                    prefix.add_universal(var)
                    universal_so_far.append(var)
            else:
                for var in variables:
                    prefix.add_existential(var, universal_so_far)
        return prefix

    def __len__(self) -> int:
        return sum(len(vs) for _, vs in self._blocks)

    def __repr__(self) -> str:
        return " ".join(
            f"{'∀' if q == FORALL else '∃'}{{{','.join(map(str, vs))}}}"
            for q, vs in self._blocks
        ) or "<empty prefix>"
