"""Tests for dependency graphs, the cyclicity test and prefix linearization."""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.depgraph import (
    dependency_edges,
    incomparable_pairs,
    is_acyclic,
    linearize,
)
from repro.formula.dqbf import Dqbf, expansion_solve
from repro.formula.prefix import EXISTS, FORALL, DependencyPrefix
from repro.formula.qbf import Qbf, brute_force_qbf

import pytest


def prefix_of(universals, existentials) -> DependencyPrefix:
    prefix = DependencyPrefix()
    for x in universals:
        prefix.add_universal(x)
    for y, deps in existentials:
        prefix.add_existential(y, deps)
    return prefix


class TestDependencyEdges:
    def test_example_1_cycle(self):
        """Fig. 2: forall x1 x2 exists y1(x1) y2(x2) has a 2-cycle."""
        prefix = prefix_of([1, 2], [(3, [1]), (4, [2])])
        edges = set(dependency_edges(prefix))
        assert (3, 4) in edges and (4, 3) in edges

    def test_chain_has_one_direction(self):
        prefix = prefix_of([1, 2], [(3, [1]), (4, [1, 2])])
        edges = set(dependency_edges(prefix))
        assert (4, 3) in edges
        assert (3, 4) not in edges

    def test_equal_dependency_sets_no_edges(self):
        prefix = prefix_of([1], [(2, [1]), (3, [1])])
        assert dependency_edges(prefix) == []


class TestCyclicity:
    def test_example_1_is_cyclic(self):
        prefix = prefix_of([1, 2], [(3, [1]), (4, [2])])
        assert not is_acyclic(prefix)
        assert incomparable_pairs(prefix) == [(3, 4)]

    def test_chain_is_acyclic(self):
        prefix = prefix_of([1, 2], [(3, [1]), (4, [1, 2])])
        assert is_acyclic(prefix)
        assert incomparable_pairs(prefix) == []

    def test_single_existential_acyclic(self):
        prefix = prefix_of([1, 2], [(3, [2])])
        assert is_acyclic(prefix)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_theorem4_pairs_iff_cyclic(self, data):
        """Theorem 4: graph cyclic <=> some pair incomparable.  We verify
        against an explicit graph-cycle search."""
        nu = data.draw(st.integers(1, 4))
        ne = data.draw(st.integers(1, 4))
        universals = list(range(1, nu + 1))
        existentials = []
        for i in range(ne):
            deps = data.draw(st.lists(st.sampled_from(universals), unique=True, max_size=nu))
            existentials.append((nu + 1 + i, deps))
        prefix = prefix_of(universals, existentials)
        edges = dependency_edges(prefix)
        # explicit cycle detection by DFS
        graph = {}
        for a, b in edges:
            graph.setdefault(a, []).append(b)

        def has_cycle():
            state = {}

            def visit(node):
                if state.get(node) == 1:
                    return True
                if state.get(node) == 2:
                    return False
                state[node] = 1
                for nxt in graph.get(node, []):
                    if visit(nxt):
                        return True
                state[node] = 2
                return False

            return any(visit(y) for y, _ in existentials)

        assert is_acyclic(prefix) == (not has_cycle())
        assert bool(incomparable_pairs(prefix)) == has_cycle()
        # The pairs, in order: MaxSAT's clause order depends on it.
        deps = {y: prefix.dependencies(y) for y in prefix.existentials}
        assert incomparable_pairs(prefix) == [
            (y, z) for y, z in combinations(prefix.existentials, 2)
            if not (deps[y] <= deps[z] or deps[z] <= deps[y])
        ]


class TestLinearize:
    def test_cyclic_prefix_rejected(self):
        prefix = prefix_of([1, 2], [(3, [1]), (4, [2])])
        with pytest.raises(ValueError):
            linearize(prefix)

    def test_blocks_ordered_by_inclusion(self):
        prefix = prefix_of(
            [1, 2, 3],
            [(4, [1]), (5, [1, 2]), (6, [1])],
        )
        blocked = linearize(prefix)
        blocks = blocked.blocks
        assert blocks[0] == (FORALL, [1])
        assert blocks[1][0] == EXISTS and set(blocks[1][1]) == {4, 6}
        assert blocks[2] == (FORALL, [2])
        assert blocks[3] == (EXISTS, [5])
        assert blocks[4] == (FORALL, [3])  # trailing universals

    def test_empty_dependency_first(self):
        prefix = prefix_of([1], [(2, []), (3, [1])])
        blocked = linearize(prefix)
        assert blocked.blocks[0] == (EXISTS, [2])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_linearization_preserves_truth(self, data):
        """For an acyclic DQBF, the linearized QBF must be equivalent."""
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        nu = rng.randint(1, 3)
        universals = list(range(1, nu + 1))
        # generate chain-ordered dependency sets so the prefix is acyclic
        ne = rng.randint(1, 3)
        sizes = sorted(rng.randint(0, nu) for _ in range(ne))
        existentials = [
            (nu + 1 + i, universals[: sizes[i]]) for i in range(ne)
        ]
        num_vars = nu + ne
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 8))
        ]
        formula = Dqbf.build(universals, existentials, clauses)
        assert formula.is_qbf()
        blocked = linearize(formula.prefix)
        qbf = Qbf(blocked, formula.matrix.copy())
        # variables the prefix lost (none here) would break validate()
        assert sorted(blocked.variables()) == sorted(formula.prefix.all_variables())
        assert brute_force_qbf(qbf) == expansion_solve(formula)
