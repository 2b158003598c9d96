"""End-to-end tests for the HQS solver against the semantic oracles."""

import pytest
from hypothesis import given, settings

from repro.core.hqs import STAGE_TIMERS, HqsOptions, HqsSolver, solve_dqbf
from repro.core.result import Limits, SAT, UNKNOWN, UNSAT
from repro.formula.dqbf import Dqbf, expansion_solve

from conftest import dqbf_strategy

ABLATIONS = {
    "default": HqsOptions(),
    "no_preprocessing": HqsOptions(use_preprocessing=False),
    "no_unit_pure": HqsOptions(use_unit_pure=False),
    "no_maxsat": HqsOptions(use_maxsat_selection=False),
    "no_qbf_backend": HqsOptions(use_qbf_backend=False),
    "bare": HqsOptions(
        use_preprocessing=False,
        use_unit_pure=False,
        use_maxsat_selection=False,
        use_qbf_backend=False,
    ),
    "with_fraig": HqsOptions(fraig_interval=1),
}


class TestPaperExamples:
    def test_example1_satisfiable_matrix(self):
        """forall x1 x2 exists y1(x1) y2(x2): (y1==x1) & (y2==x2)."""
        formula = Dqbf.build(
            [1, 2], [(3, [1]), (4, [2])],
            [[-3, 1], [3, -1], [-4, 2], [4, -2]],
        )
        result = solve_dqbf(formula)
        assert result.status == SAT

    def test_cross_dependency_unsat(self):
        """y1(x1) == x2 has no Skolem function."""
        formula = Dqbf.build([1, 2], [(3, [1])], [[-3, 2], [3, -2]])
        assert solve_dqbf(formula).status == UNSAT

    def test_fig1_matrix(self):
        """(y1|x1)(y1|x2)(y2|!x1)(y2|!x2) with Henkin prefix: y1=y2=1 works."""
        formula = Dqbf.build(
            [3, 4], [(1, [3]), (2, [4])],
            [[1, 3], [1, 4], [2, -3], [2, -4]],
        )
        assert solve_dqbf(formula).status == SAT

    def test_already_qbf_prefix_goes_to_backend(self):
        formula = Dqbf.build(
            [1, 2], [(3, [1]), (4, [1, 2])],
            [[3, 1], [-3, 4, 2], [4, -2, -1]],
        )
        result = solve_dqbf(formula)
        assert result.status in (SAT, UNSAT)
        assert result.status == (SAT if expansion_solve(formula) else UNSAT)


class TestAblations:
    @settings(max_examples=60, deadline=None)
    @given(dqbf_strategy(max_universals=3, max_existentials=3, max_clauses=8))
    def test_all_feature_combinations_agree_with_oracle(self, formula):
        expected = SAT if expansion_solve(formula) else UNSAT
        for name, options in ABLATIONS.items():
            result = solve_dqbf(formula.copy(), options=options)
            assert result.status == expected, f"ablation {name} disagrees"


class TestStatistics:
    def test_stats_populated(self):
        formula = Dqbf.build(
            [1, 2], [(3, [1]), (4, [2])],
            [[-3, 1], [3, -1], [-4, 2], [4, -2]],
        )
        solver = HqsSolver()
        result = solver.solve(formula)
        assert "pre_rounds" in result.stats
        assert result.runtime >= 0.0

    def test_maxsat_stats_on_henkin_instance(self):
        formula = Dqbf.build(
            [1, 2], [(3, [1]), (4, [2])],
            [[3, 4, 1, 2], [-3, -4, -1], [3, -4, 2], [-3, 4, -2]],
        )
        solver = HqsSolver(HqsOptions(use_preprocessing=False))
        result = solver.solve(formula)
        assert result.stats.get("maxsat_pairs", 0) >= 1
        assert result.stats.get("selected_universals", 0) >= 1

    def test_stage_timers_present_and_non_negative(self):
        henkin = Dqbf.build(
            [1, 2], [(3, [1]), (4, [2])],
            [[3, 4, 1, 2], [-3, -4, -1], [3, -4, 2], [-3, 4, -2]],
        )
        trivial = Dqbf.build([1], [(2, [1])], [[2]])  # decided by preprocessing
        for formula, options in (
            (henkin, HqsOptions(use_sat_probe=True)),
            (henkin, HqsOptions(use_preprocessing=False)),
            (trivial, HqsOptions()),
        ):
            stats = HqsSolver(options).solve(formula.copy()).stats
            for key in STAGE_TIMERS:
                assert key in stats, f"missing {key}"
                assert stats[key] >= 0.0
        # Stages that never ran report exactly 0.0.
        assert stats["time_aig_build"] == 0.0
        assert stats["time_probe"] == 0.0
        probed = HqsSolver(HqsOptions(use_sat_probe=True)).solve(henkin.copy()).stats
        assert probed["time_preprocess"] > 0.0
        assert probed["time_aig_build"] > 0.0
        assert probed["time_probe"] > 0.0


class TestLimits:
    def _hard_instance(self) -> Dqbf:
        """A moderately large PEC instance that cannot finish instantly."""
        from repro.pec.families import make_comp

        return make_comp(8, 3, buggy=False, seed=7).formula

    def test_timeout_reported(self):
        result = solve_dqbf(self._hard_instance(), limits=Limits(time_limit=0.0))
        assert result.status == UNKNOWN
        assert result.failure is not None
        assert result.failure.resource == "time"

    def test_node_limit_reported(self):
        result = solve_dqbf(self._hard_instance(), limits=Limits(node_limit=1))
        assert result.status == UNKNOWN
        assert result.failure is not None
        assert result.failure.resource in ("nodes", "time")

    def test_result_solved_flag(self):
        formula = Dqbf.build([1], [(2, [1])], [[2, 1]])
        assert solve_dqbf(formula).solved
        assert not solve_dqbf(
            self._hard_instance(), limits=Limits(time_limit=0.0)
        ).solved


class TestTrivialFormulas:
    def test_empty_matrix_is_sat(self):
        formula = Dqbf.build([1], [(2, [1])], [])
        assert solve_dqbf(formula).status == SAT

    def test_tautology_clauses_sat(self):
        formula = Dqbf.build([1], [(2, [1])], [[1, -1]])
        assert solve_dqbf(formula).status == SAT

    def test_empty_clause_unsat(self):
        formula = Dqbf.build([1], [(2, [1])], [[]])
        assert solve_dqbf(formula).status == UNSAT

    def test_no_universals(self):
        formula = Dqbf.build([], [(1, []), (2, [])], [[1, 2], [-1, 2]])
        assert solve_dqbf(formula).status == SAT

    def test_no_existentials_sat(self):
        formula = Dqbf.build([1, 2], [], [[1, -1, 2]])
        assert solve_dqbf(formula).status == SAT

    def test_no_existentials_unsat(self):
        formula = Dqbf.build([1, 2], [], [[1, 2]])
        assert solve_dqbf(formula).status == UNSAT

    def test_open_formula_rejected(self):
        formula = Dqbf.build([1], [(2, [1])], [[3]])
        with pytest.raises(ValueError):
            HqsSolver()._solve_inner(formula, Limits())
