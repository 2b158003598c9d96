"""Dependency graphs over existential variables (Section III-A).

Definition 4 of the paper: the dependency graph of a DQBF has the
existential variables as nodes and an edge ``y_i -> y_l`` iff
``D_{y_i}`` is *not* a subset of ``D_{y_l}`` — i.e. ``y_i`` depends on
some universal ``y_l`` must not see, forcing ``y_i`` to the right of
``y_l`` in any equivalent QBF prefix.

Theorem 3: an equivalent QBF prefix exists iff this graph is acyclic.
Theorem 4 reduces the cyclicity test to *pairs*: the graph is cyclic iff
two existential variables have incomparable dependency sets.  Both the
test and the linearization below exploit this.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from ..formula.prefix import EXISTS, FORALL, BlockedPrefix, DependencyPrefix


def dependency_edges(prefix: DependencyPrefix) -> List[Tuple[int, int]]:
    """All edges of the dependency graph (Definition 4)."""
    existentials = prefix.existentials
    edges = []
    for y_i in existentials:
        d_i = prefix.dependencies(y_i)
        for y_l in existentials:
            if y_i != y_l and not d_i <= prefix.dependencies(y_l):
                edges.append((y_i, y_l))
    return edges


def incomparable_pairs(prefix: DependencyPrefix) -> List[Tuple[int, int]]:
    """``C_psi``: unordered pairs with mutually incomparable dependency sets.

    By Theorem 4 these are exactly the binary cycles of the dependency
    graph, and the graph is cyclic iff this list is non-empty.  Pairs
    come in :func:`itertools.combinations` order of the existentials;
    comparability is decided once per pair of distinct sets.
    """
    existentials = prefix.existentials
    index: Dict[FrozenSet[int], int] = {}
    group = [index.setdefault(prefix.dependencies(y), len(index)) for y in existentials]
    sets = list(index)
    incomparable = [
        {j for j, other in enumerate(sets) if not (deps <= other or other <= deps)}
        for deps in sets
    ]
    pairs = []
    for a, y in enumerate(existentials):
        against = incomparable[group[a]]
        if against:
            pairs.extend(
                (y, existentials[b])
                for b in range(a + 1, len(existentials))
                if group[b] in against
            )
    return pairs


def is_acyclic(prefix: DependencyPrefix) -> bool:
    """Theorem 3/4 test: equivalent QBF prefix exists iff no incomparable pair."""
    return prefix.is_qbf_shaped()


class PrefixAnalysis:
    """Structural difficulty metrics of a DQBF prefix.

    ``incomparable_pairs`` counts the binary cycles (Theorem 4);
    ``min_elimination_set`` is the MaxSAT optimum of Eqs. 1-2 — the
    number of universal expansions HQS must pay before the QBF back-end
    can take over.  Zero pairs means the formula is QBF in disguise.
    """

    def __init__(
        self,
        num_universals: int,
        num_existentials: int,
        num_incomparable_pairs: int,
        min_elimination_set: int,
        max_dependency_size: int,
        distinct_dependency_sets: int,
    ):
        self.num_universals = num_universals
        self.num_existentials = num_existentials
        self.num_incomparable_pairs = num_incomparable_pairs
        self.min_elimination_set = min_elimination_set
        self.max_dependency_size = max_dependency_size
        self.distinct_dependency_sets = distinct_dependency_sets

    @property
    def is_qbf(self) -> bool:
        return self.num_incomparable_pairs == 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "num_universals": self.num_universals,
            "num_existentials": self.num_existentials,
            "num_incomparable_pairs": self.num_incomparable_pairs,
            "min_elimination_set": self.min_elimination_set,
            "max_dependency_size": self.max_dependency_size,
            "distinct_dependency_sets": self.distinct_dependency_sets,
        }

    def __repr__(self) -> str:
        return f"PrefixAnalysis({self.as_dict()})"


def analyze_prefix(prefix: DependencyPrefix) -> PrefixAnalysis:
    """Compute the difficulty metrics of a dependency prefix."""
    from .selection import select_elimination_set

    pairs = incomparable_pairs(prefix)
    dependency_sets = {prefix.dependencies(y) for y in prefix.existentials}
    if pairs:
        minimum = len(select_elimination_set(prefix).variables)
    else:
        minimum = 0
    return PrefixAnalysis(
        num_universals=len(prefix.universals),
        num_existentials=len(prefix.existentials),
        num_incomparable_pairs=len(pairs),
        min_elimination_set=minimum,
        max_dependency_size=max(
            (len(d) for d in dependency_sets), default=0
        ),
        distinct_dependency_sets=len(dependency_sets),
    )


def linearize(prefix: DependencyPrefix) -> BlockedPrefix:
    """Build an equivalent QBF prefix for an acyclic dependency graph.

    Implements the constructive direction of Theorem 3: existential
    variables are grouped by dependency set; groups are sorted by set
    inclusion (total order, by acyclicity); universal blocks carry the
    new dependencies each group adds; trailing universals form the final
    block.

    Raises ``ValueError`` when the graph is cyclic.
    """
    if not is_acyclic(prefix):
        raise ValueError("dependency graph is cyclic; no equivalent QBF prefix")

    groups: Dict[FrozenSet[int], List[int]] = {}
    for y in prefix.existentials:
        groups.setdefault(prefix.dependencies(y), []).append(y)

    ordered = sorted(groups.items(), key=lambda item: len(item[0]))
    # Sanity: inclusion chain (guaranteed by acyclicity, equal sizes merge).
    for (d1, _), (d2, _) in zip(ordered, ordered[1:]):
        if not d1 <= d2:
            raise AssertionError("group dependency sets are not chain-ordered")

    blocked = BlockedPrefix()
    placed: Set[int] = set()
    for deps, variables in ordered:
        new_universals = sorted(deps - placed)
        if new_universals:
            blocked.add_block(FORALL, new_universals)
            placed.update(new_universals)
        blocked.add_block(EXISTS, variables)
    trailing = [x for x in prefix.universals if x not in placed]
    if trailing:
        blocked.add_block(FORALL, sorted(trailing))
    return blocked
