"""Tests for the CNF clause database."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.formula.cnf import Cnf, normalize_clause

from conftest import cnf_strategy


class TestNormalizeClause:
    def test_sorts_and_dedupes(self):
        assert normalize_clause([3, -1, 3, 2]) == (-1, 2, 3)

    def test_tautology_returns_none(self):
        assert normalize_clause([1, -1]) is None
        assert normalize_clause([2, 5, -2]) is None

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize_clause([1, 0, 2])

    def test_orders_by_variable_then_polarity(self):
        assert normalize_clause([-2, 2]) is None
        assert normalize_clause([2, -3, 3]) is None
        assert normalize_clause([-1, 1, 5]) is None


class TestCanonicalOrder:
    @given(st.lists(st.integers(-9, 9).filter(bool), max_size=8))
    def test_matches_variable_then_polarity_sort(self, lits):
        """``key=abs`` gives the (variable, sign) order: one literal per variable."""
        seen = set(lits)
        if any(-lit in seen for lit in seen):
            assert normalize_clause(lits) is None
        else:
            expected = tuple(sorted(seen, key=lambda lit: (abs(lit), lit < 0)))
            assert normalize_clause(lits) == expected

    @given(st.lists(st.lists(st.integers(-6, 6).filter(bool), max_size=4), max_size=12),
           st.integers(1, 6), st.booleans())
    def test_assign_matches_renormalizing(self, clauses, var, value):
        """``assign`` appends the shrunk tuples as they are: still canonical."""
        cnf = Cnf(clauses)
        true_lit = var if value else -var
        expected = Cnf(num_vars=cnf.num_vars)
        for clause in cnf:
            if true_lit not in clause:
                expected.add_clause(lit for lit in clause if lit != -true_lit)
        assert cnf.assign(var, value).clauses == expected.clauses


class TestCnfConstruction:
    def test_deduplicates_clauses(self):
        cnf = Cnf([[1, 2], [2, 1], [1, 2, 2]])
        assert len(cnf) == 1

    def test_drops_tautologies(self):
        cnf = Cnf([[1, -1], [2]])
        assert len(cnf) == 1
        assert (2,) in cnf._clause_set

    def test_num_vars_tracks_maximum(self):
        cnf = Cnf([[1, -7], [3]])
        assert cnf.num_vars == 7

    def test_num_vars_respects_declared(self):
        cnf = Cnf([[1]], num_vars=10)
        assert cnf.num_vars == 10

    def test_fresh_var(self):
        cnf = Cnf([[2]])
        assert cnf.fresh_var() == 3
        assert cnf.fresh_var() == 4

    def test_empty_clause(self):
        cnf = Cnf([[]])
        assert cnf.has_empty_clause()

    def test_contains(self):
        cnf = Cnf([[1, 2]])
        assert [2, 1] in cnf
        assert [1] not in cnf


class TestCnfEvaluate:
    def test_simple(self):
        cnf = Cnf([[1, 2], [-1]])
        assert cnf.evaluate({1: False, 2: True})
        assert not cnf.evaluate({1: True, 2: True})

    @given(cnf_strategy(max_vars=5, max_clauses=10))
    def test_matches_naive_semantics(self, clauses):
        cnf = Cnf(clauses)
        variables = sorted({abs(lit) for clause in clauses for lit in clause})
        for values in itertools.product([False, True], repeat=len(variables)):
            assignment = dict(zip(variables, values))
            naive = all(
                any((lit > 0) == assignment[abs(lit)] for lit in clause)
                for clause in clauses
            )
            assert cnf.evaluate(assignment) == naive


class TestCnfAssign:
    def test_removes_satisfied_clauses(self):
        cnf = Cnf([[1, 2], [-1, 3]])
        assigned = cnf.assign(1, True)
        assert list(assigned) == [(3,)]

    def test_produces_empty_clause_on_conflict(self):
        cnf = Cnf([[1]])
        assigned = cnf.assign(1, False)
        assert assigned.has_empty_clause()

    @given(cnf_strategy(max_vars=5, max_clauses=10))
    def test_assign_is_semantic_cofactor(self, clauses):
        cnf = Cnf(clauses)
        variables = sorted({abs(lit) for clause in clauses for lit in clause})
        var = variables[0]
        rest = [v for v in variables if v != var]
        for value in (False, True):
            cofactor = cnf.assign(var, value)
            for values in itertools.product([False, True], repeat=len(rest)):
                assignment = dict(zip(rest, values))
                full = dict(assignment)
                full[var] = value
                # cofactor may mention var-free clauses only
                assert cofactor.evaluate({**assignment, var: value}) == cnf.evaluate(full)


class TestCnfRename:
    def test_simple_rename(self):
        cnf = Cnf([[1, -2]])
        renamed = cnf.rename({1: 5})
        assert (-2, 5) in renamed._clause_set

    def test_rename_preserves_polarity(self):
        cnf = Cnf([[-3]])
        renamed = cnf.rename({3: 9})
        assert (-9,) in renamed._clause_set


class TestCnfSerialization:
    def test_dimacs_output(self):
        cnf = Cnf([[1, -2], [2]])
        text = cnf.to_dimacs()
        lines = text.strip().split("\n")
        assert lines[0] == "p cnf 2 2"
        assert "1 -2 0" in lines
        assert "2 0" in lines

    def test_copy_is_independent(self):
        cnf = Cnf([[1]])
        clone = cnf.copy()
        clone.add_clause([2])
        assert len(cnf) == 1
        assert len(clone) == 2
