"""Tests for subsumption and self-subsuming resolution in preprocessing."""

import importlib
from typing import List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.guard import ResourceGuard
from repro.core.preprocess import PreprocessStats, _subsumption, preprocess
from repro.formula.cnf import Cnf, normalize_clause
from repro.formula.dqbf import Dqbf, expansion_solve
from repro.pec.families import generate_family

from conftest import dqbf_strategy

# ``repro.core`` re-exports the ``preprocess`` function under the module's
# name, so the module itself is looked up explicitly for monkeypatching.
preprocess_module = importlib.import_module("repro.core.preprocess")


class TestSubsumption:
    def test_superset_clause_removed(self):
        formula = Dqbf.build(
            [1], [(2, [1]), (3, [1])],
            [[2, 3], [2, 3, 1], [2, -3]],
        )
        result = preprocess(formula, detect_gates=False)
        assert result.stats.clauses_subsumed >= 1
        if result.status is None:
            assert (1, 2, 3) not in result.formula.matrix

    def test_duplicate_free_no_change(self):
        formula = Dqbf.build(
            [1], [(2, [1]), (3, [1])],
            [[2, 3], [-2, -3]],
        )
        result = preprocess(formula, detect_gates=False)
        assert result.stats.clauses_subsumed == 0

    def test_self_subsuming_resolution_strengthens(self):
        # (a | b | c) and (!a | b): resolving on a gives (b | c), which
        # self-subsumes the first clause to (b | c)
        formula = Dqbf.build(
            [1], [(2, [1]), (3, [1]), (4, [1])],
            [[2, 3, 4], [-2, 3]],
        )
        result = preprocess(formula, detect_gates=False, use_subsumption=True)
        assert result.stats.literals_strengthened >= 1

    def test_strengthening_to_unit_propagates(self):
        # (a | b) and (!a | b) strengthen to (b), which then propagates
        formula = Dqbf.build(
            [1], [(2, [1]), (3, [1])],
            [[2, 3], [-2, 3], [-3, 1], [-3, -1]],
        )
        result = preprocess(formula, detect_gates=False)
        # b forced, then (1) and (-1) conflict on the universal: UNSAT
        assert result.status is False

    def test_disabled_flag(self):
        formula = Dqbf.build(
            [1], [(2, [1]), (3, [1])],
            [[2, 3], [2, 3, 1]],
        )
        result = preprocess(formula, detect_gates=False, use_subsumption=False)
        assert result.stats.clauses_subsumed == 0
        assert result.stats.literals_strengthened == 0

    @settings(max_examples=100, deadline=None)
    @given(dqbf_strategy(max_universals=3, max_existentials=3, max_clauses=10))
    def test_equisatisfiability_preserved(self, formula):
        expected = expansion_solve(formula)
        result = preprocess(formula, detect_gates=False, use_subsumption=True)
        if result.status is not None:
            assert result.status == expected
        else:
            assert expansion_solve(result.formula, limit=1 << 18) == expected


def _reference_subsumption(work, stats, guard=None) -> bool:
    """The pairwise O(m^2) sweeps the occurrence-list version replaced."""
    clauses = [frozenset(c) for c in work.matrix]
    changed = False

    clauses.sort(key=len)
    kept: List[frozenset] = []
    for clause in clauses:
        if any(other <= clause for other in kept if len(other) <= len(clause)):
            stats.clauses_subsumed += 1
            changed = True
            continue
        kept.append(clause)

    strengthened: List[frozenset] = list(kept)
    by_index = {i: c for i, c in enumerate(strengthened)}
    for i, clause in list(by_index.items()):
        for lit in list(clause):
            if lit not in clause:
                continue
            rest = clause - {lit}
            for j, other in by_index.items():
                if j == i:
                    continue
                if -lit in other and (other - {-lit}) <= rest:
                    by_index[i] = rest
                    clause = rest
                    stats.literals_strengthened += 1
                    changed = True
                    break
            else:
                continue
            if not clause:
                break

    if changed:
        rebuilt = Cnf(num_vars=work.matrix.num_vars)
        for clause in by_index.values():
            rebuilt.add_clause(sorted(clause))
        work.matrix = rebuilt
    return changed


def _raw_matrix(clauses, extra_vars: int) -> Cnf:
    """A matrix holding ``clauses`` verbatim, duplicates included.

    ``Cnf.add_clause`` would drop the duplicates, so they are injected
    into the clause list directly (tautologies are still dropped).
    """
    matrix = Cnf(num_vars=extra_vars)
    for clause in clauses:
        normalized = normalize_clause(clause)
        if normalized is None:
            continue
        matrix.clauses.append(normalized)
        matrix._clause_set.add(normalized)
        matrix.num_vars = max([matrix.num_vars] + [abs(lit) for lit in normalized])
    return matrix


@st.composite
def clause_sets(draw):
    num_vars = draw(st.integers(1, 7))
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=30))
    units = draw(st.lists(literal, max_size=3))
    clauses += [[lit] for lit in units]
    if clauses and draw(st.booleans()):
        # duplicates of existing clauses, at random positions
        for _ in range(draw(st.integers(1, 3))):
            position = draw(st.integers(0, len(clauses)))
            clauses.insert(position, list(draw(st.sampled_from(clauses))))
    if draw(st.booleans()):
        clauses.insert(draw(st.integers(0, len(clauses))), [])
    return clauses, draw(st.integers(0, 9))


def _run(subsumption, clauses, extra_vars: int):
    work = Dqbf(matrix=_raw_matrix(clauses, extra_vars))
    stats = PreprocessStats()
    changed = subsumption(work, stats)
    return changed, list(work.matrix.clauses), work.matrix.num_vars, stats.as_dict()


class TestOccurrenceListOracle:
    """The occurrence-list sweeps give exactly the pairwise sweeps' output."""

    @settings(max_examples=400, deadline=None)
    @given(clause_sets())
    # the strengthened literal depends on the order literals are tried in
    @example(([[-1, 2], [1, 2], [-1, -2]], 0))
    @example(([[1, -2], [1, 2], [-1, -2]], 0))
    @example(([[-1, -2], [1, -2], [-1, 2]], 0))
    def test_identical_to_pairwise_sweeps(self, case):
        clauses, extra_vars = case
        assert _run(_subsumption, clauses, extra_vars) == _run(
            _reference_subsumption, clauses, extra_vars
        )

    def test_empty_clause_subsumes_everything(self):
        changed, clauses, _, stats = _run(_subsumption, [[1, 2], [], [-1], [3]], 0)
        assert changed and clauses == [()]
        assert stats["clauses_subsumed"] == 3

    @pytest.mark.parametrize(
        "family,scale",
        [("pec_xor", 8.0), ("bitcell", 20.0), ("lookahead", 3.0), ("adder", 4.0)],
    )
    def test_preprocess_identical_on_wide_families(self, family, scale, monkeypatch):
        """One instance per family of the e2e ``wide`` workload sizes."""
        formula = generate_family(family, 1, scale=scale)[0].formula
        result = preprocess(formula)
        monkeypatch.setattr(preprocess_module, "_subsumption", _reference_subsumption)
        reference = preprocess(formula)
        assert result.status == reference.status
        assert result.stats.as_dict() == reference.stats.as_dict()
        assert repr(result.gates) == repr(reference.gates)
        if result.formula is not None:
            assert result.formula.matrix.clauses == reference.formula.matrix.clauses
            assert result.formula.matrix.num_vars == reference.formula.matrix.num_vars
            assert result.formula.prefix == reference.formula.prefix
            assert result.formula.prefix.universals == reference.formula.prefix.universals
            assert result.formula.prefix.existentials == reference.formula.prefix.existentials


class _SpyGuard(ResourceGuard):
    """Counts ``check()`` calls; raises ``_Stop`` on call ``stop_at``."""

    def __init__(self, stop_at=None):
        super().__init__()
        self.calls = 0
        self.stop_at = stop_at

    def check(self) -> None:
        self.calls += 1
        if self.calls == self.stop_at:
            raise _Stop()
        super().check()


class _Stop(Exception):
    pass


class TestGuardThreading:
    CLAUSES = [[1, 2, 3], [1, 2], [-1, 2, 4], [2, 3], [1, 2, 3, 4], [-2, 5], [5, 6]]

    def test_checked_once_per_clause_in_both_sweeps(self):
        work = Dqbf(matrix=Cnf(self.CLAUSES))
        spy = _SpyGuard()
        stats = PreprocessStats()
        _subsumption(work, stats, spy)
        kept = len(self.CLAUSES) - stats.clauses_subsumed
        assert stats.clauses_subsumed == 2
        assert spy.calls == len(self.CLAUSES) + kept
        assert _run(_subsumption, self.CLAUSES, 0)[1] == list(work.matrix.clauses)

    def test_guard_stops_a_sweep_midway(self):
        work = Dqbf(matrix=Cnf(self.CLAUSES))
        before = list(work.matrix.clauses)
        with pytest.raises(_Stop):
            _subsumption(work, PreprocessStats(), _SpyGuard(stop_at=len(self.CLAUSES) + 2))
        assert list(work.matrix.clauses) == before

    def test_preprocess_threads_its_guard(self, monkeypatch):
        seen = []

        def recording(work, stats, guard=None):
            seen.append(guard)
            return _subsumption(work, stats, guard)

        monkeypatch.setattr(preprocess_module, "_subsumption", recording)
        formula = Dqbf.build([1], [(2, [1]), (3, [1])], [[2, 3], [2, 3, 1], [2, -3, 1]])
        spy = _SpyGuard()
        preprocess(formula, detect_gates=False, guard=spy)
        assert seen and all(guard is spy for guard in seen)
