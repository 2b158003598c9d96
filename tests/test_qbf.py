"""Tests for the QBF solvers (AIG elimination back-end and QDPLL oracle)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.cnf_bridge import cnf_to_aig
from repro.aig.graph import Aig
from repro.core.guard import ResourceGuard
from repro.core.hqs import HqsSolver
from repro.core.result import Limits, SAT, UNSAT
from repro.errors import ConflictLimitExceeded, TimeoutExceeded
from repro.formula.prefix import EXISTS, FORALL, BlockedPrefix
from repro.formula.qbf import Qbf, brute_force_qbf
from repro.pec.families import FAMILIES, generate_family
from repro.qbf import cegar
from repro.qbf.aigsolve import QbfSolverStats, solve_aig_qbf, solve_qbf
from repro.qbf.qdpll import solve_qdpll
from repro.sat.incremental import AigSatSession


from conftest import random_qbf, requires_numpy  # random_qbf is shared with test_qdimacs


class TestKnownQbfs:
    def test_forall_exists_sat(self):
        # forall x exists y: y == x
        formula = Qbf.build([(FORALL, [1]), (EXISTS, [2])], [[-1, 2], [1, -2]])
        assert solve_qbf(formula) is True
        assert solve_qdpll(formula) is True

    def test_exists_forall_unsat(self):
        # exists y forall x: y == x
        formula = Qbf.build([(EXISTS, [2]), (FORALL, [1])], [[-1, 2], [1, -2]])
        assert solve_qbf(formula) is False
        assert solve_qdpll(formula) is False

    def test_pure_sat_block(self):
        formula = Qbf.build([(EXISTS, [1, 2])], [[1, 2], [-1, 2]])
        assert solve_qbf(formula) is True

    def test_pure_universal_block_tautology(self):
        formula = Qbf.build([(FORALL, [1, 2])], [[1, -1, 2]])
        assert solve_qbf(formula) is True

    def test_pure_universal_block_falsifiable(self):
        formula = Qbf.build([(FORALL, [1, 2])], [[1, 2]])
        assert solve_qbf(formula) is False

    def test_three_level_alternation(self):
        # forall x exists y forall z: (x xor y) | z ... y := !x fails on z=0;
        # matrix (x|y|z)(!x|!y|z): y := !x satisfies both clauses for all z
        formula = Qbf.build(
            [(FORALL, [1]), (EXISTS, [2]), (FORALL, [3])],
            [[1, 2, 3], [-1, -2, 3]],
        )
        expected = brute_force_qbf(formula)
        assert solve_qbf(formula.copy()) == expected
        assert solve_qdpll(formula.copy()) == expected


class TestAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6))
    def test_aigsolve_matches_brute_force(self, seed):
        rng = random.Random(seed)
        formula = random_qbf(rng)
        expected = brute_force_qbf(formula)
        assert solve_qbf(formula.copy()) == expected

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**6))
    def test_qdpll_matches_brute_force(self, seed):
        rng = random.Random(seed)
        formula = random_qbf(rng)
        expected = brute_force_qbf(formula)
        assert solve_qdpll(formula.copy()) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_aigsolve_without_unit_pure(self, seed):
        rng = random.Random(seed)
        formula = random_qbf(rng)
        expected = brute_force_qbf(formula)
        from repro.aig.cnf_bridge import cnf_to_aig

        aig, root = cnf_to_aig(formula.matrix.clauses)
        prefix = BlockedPrefix(formula.prefix.blocks)
        assert solve_aig_qbf(aig, root, prefix, use_unit_pure=False) == expected


class TestStatsAndLimits:
    def test_stats_counters(self):
        formula = Qbf.build(
            [(FORALL, [1]), (EXISTS, [2]), (FORALL, [3]), (EXISTS, [4])],
            [[1, 2, 3, 4], [-1, -2, -3, 4], [2, -4, 1], [-2, 4, 3]],
        )
        from repro.aig.cnf_bridge import cnf_to_aig

        stats = QbfSolverStats()
        aig, root = cnf_to_aig(formula.matrix.clauses)
        solve_aig_qbf(aig, root, BlockedPrefix(formula.prefix.blocks), stats=stats)
        assert stats.cegar_rounds >= 1
        assert isinstance(stats.as_dict(), dict)

    def test_timeout_propagates(self):
        rng = random.Random(5)
        formula = random_qbf(rng, max_vars=6, max_clauses=12)
        limits = Limits(time_limit=0.0)
        import time

        time.sleep(0.01)
        with pytest.raises(TimeoutExceeded):
            solve_qbf(formula, limits)

    def test_open_formula_rejected(self):
        formula = Qbf.build([(EXISTS, [1])], [[2]])
        with pytest.raises(ValueError):
            solve_qbf(formula)


def _pigeonhole_qbf(holes: int) -> Qbf:
    """``∃AB ∀y. (y ∨ PHP_A) ∧ (¬y ∨ PHP_B)`` with two copies of the
    pigeonhole formula PHP(holes + 1, holes): FALSE, no unit or pure
    literal, and refuting either instance of ``y`` takes the SAT solver
    real conflicts."""
    pigeons = holes + 1
    width = pigeons * holes
    y = 2 * width + 1
    clauses = []
    for offset, guard in ((0, y), (width, -y)):
        def var(p, h):
            return 1 + offset + p * holes + h

        clauses += [[var(p, h) for h in range(holes)] + [guard] for p in range(pigeons)]
        for h in range(holes):
            for p in range(pigeons):
                for q in range(p + 1, pigeons):
                    clauses.append([-var(p, h), -var(q, h), guard])
    return Qbf.build([(EXISTS, list(range(1, y))), (FORALL, [y])], clauses)


def _random_3cnf_qbf(rng: random.Random) -> Qbf:
    """6-12 variables in 2-5 alternating blocks over a random 3-CNF.

    Unlike :func:`random_qbf` (clauses of width 1-3, mostly decided by
    unit and pure rules) these need many refinement rounds per game."""
    num_vars = rng.randint(6, 12)
    variables = list(range(1, num_vars + 1))
    rng.shuffle(variables)
    cuts = sorted(rng.sample(range(1, num_vars), rng.randint(1, 4))) + [num_vars]
    quantifier = rng.choice([EXISTS, FORALL])
    blocks, start = [], 0
    for cut in cuts:
        blocks.append((quantifier, variables[start:cut]))
        quantifier = FORALL if quantifier == EXISTS else EXISTS
        start = cut
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(variables, 3)]
        for _ in range(int(num_vars * rng.uniform(1.0, 3.0)))
    ]
    return Qbf.build(blocks, clauses)


class TestCegarDifferential:
    """The CEGAR back-end against brute force and QDPLL on formulas
    with up to 11 variables, which reach 3-6 quantifier blocks."""

    @staticmethod
    def _formula(seed):
        return random_qbf(random.Random(seed), max_vars=11, max_clauses=30)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6))
    def test_default_backend(self, seed):
        formula = self._formula(seed)
        expected = brute_force_qbf(formula)
        assert solve_qdpll(formula.copy()) == expected
        assert solve_qbf(formula.copy()) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6))
    def test_solve_cegar_directly(self, seed):
        formula = self._formula(seed)
        aig, root = cnf_to_aig(formula.matrix.clauses)
        blocks = formula.prefix.blocks
        assert cegar.solve_cegar(aig, root, blocks) == brute_force_qbf(formula)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6))
    def test_many_rounds_on_3cnf(self, seed):
        formula = _random_3cnf_qbf(random.Random(seed))
        expected = brute_force_qbf(formula)
        aig, root = cnf_to_aig(formula.matrix.clauses)
        assert cegar.solve_cegar(aig, root, formula.prefix.blocks) == expected
        assert solve_qbf(formula.copy()) == expected

    def test_pec_families_match_generator(self):
        for family in FAMILIES:
            for instance in generate_family(family, 4, scale=0.8):
                result = HqsSolver().solve(instance.formula.copy())
                assert result.status == (SAT if instance.expected else UNSAT), (
                    family, instance.name,
                )


class TestCegarBudget:
    """CEGAR decides every back-end call; only the caller's guard stops it."""

    def _c432(self):
        return generate_family("c432", 4, scale=0.8)[0]

    def test_c432_decided_without_fallback(self):
        instance = self._c432()
        solver = HqsSolver(trace=True)
        result = solver.solve(instance.formula.copy())
        assert result.status == (SAT if instance.expected else UNSAT)
        assert result.stats["qbf_cegar_rounds"] >= 1
        assert "QBF back-end decided by CEGAR" in solver.trace

    def test_true_pec_xor_decided_by_cegar(self):
        # A TRUE input that takes CEGAR several SAT queries to decide.
        (instance,) = [
            i for i in generate_family("pec_xor", 3, scale=8.0) if i.expected
        ]
        solver = HqsSolver(trace=True)
        result = solver.solve(instance.formula.copy())
        assert result.status == SAT
        assert result.stats["qbf_cegar_sat_calls"] > 1
        assert "QBF back-end decided by CEGAR" in solver.trace

    def test_conflicts_charged_to_guard(self):
        formula = _pigeonhole_qbf(4)
        aig, root = cnf_to_aig(formula.matrix.clauses)
        lender = AigSatSession(aig)
        guard = ResourceGuard()
        stats = QbfSolverStats()
        verdict = cegar.solve_cegar(
            aig, root, formula.prefix.blocks, guard, stats, sat_session=lender
        )
        assert verdict is False
        assert lender.stats.queries == stats.cegar_sat_calls >= 1
        assert guard.conflicts == lender.stats.conflicts > 0

    def test_whole_solve_conflict_limit_is_not_a_fallback(self):
        formula = _pigeonhole_qbf(4)
        aig, root = cnf_to_aig(formula.matrix.clauses)
        whole = ResourceGuard(conflict_limit=0)
        stats = QbfSolverStats()
        with pytest.raises(ConflictLimitExceeded):
            solve_aig_qbf(
                aig, root, BlockedPrefix(formula.prefix.blocks),
                whole.slice(stage="qbf-backend"), stats=stats,
            )
        # stopped by the first query that spent a conflict
        assert stats.cegar_sat_calls == 1


class _NodeRecorder(ResourceGuard):
    """A guard that records every matrix size it is asked to check."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def check_nodes(self, num_nodes):
        self.sizes.append(num_nodes)
        super().check_nodes(num_nodes)


class TestCegarAbstractionSize:
    """The abstraction size each round checks against the node budget is
    kept incrementally; it must equal a fresh ``cone_size`` every round."""

    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("numpy", marks=requires_numpy)]
    )
    def test_incremental_size_matches_cone_size(self, backend, monkeypatch):
        expected = []
        grow_cone = Aig.grow_cone

        def recording_grow_cone(aig, root, seen):
            added = grow_cone(aig, root, seen)
            expected.append(aig.cone_size(root))
            return added

        monkeypatch.setattr(Aig, "grow_cone", recording_grow_cone)
        rounds = 0
        for seed in range(40):
            formula = _random_3cnf_qbf(random.Random(seed))
            aig, root = cnf_to_aig(formula.matrix.clauses, Aig(backend=backend))
            guard = _NodeRecorder()
            stats = QbfSolverStats()
            assert cegar.solve_cegar(aig, root, formula.prefix.blocks, guard, stats) == (
                brute_force_qbf(formula)
            )
            assert guard.sizes == expected
            rounds += len(expected)
            expected.clear()
        assert rounds > 100
