"""Robustness tests: resource guard, degradation ladder, failure taxonomy.

Covers the graceful-degradation contract: every budget exhaustion ends
in an ``UNKNOWN`` result carrying a machine-readable
:class:`~repro.errors.FailureDiagnosis` (never an escaping exception),
and each degradable pipeline stage falls back to its cheaper
alternative when only its own slice of the budget is spent.  Faults
are injected by patching the stage-budget constants of
:mod:`repro.core.hqs`: ``*_TIME_FRACTION = 0`` or
``MAXSAT_CONFLICT_BUDGET = 0`` expires a stage slice instantly while
the overall budget stays healthy.
"""

import time

import pytest

from repro.core import hqs
from repro.core.guard import ResourceGuard
from repro.core.hqs import HqsOptions, HqsSolver, solve_dqbf
from repro.core.result import Limits, SAT, UNKNOWN, UNSAT
from repro.errors import (
    ConflictLimitExceeded,
    NodeLimitExceeded,
    StageBudgetExceeded,
    TimeoutExceeded,
)
from repro.formula.dqbf import Dqbf, expansion_solve
from repro.pec.families import make_comp, make_pec_xor
from repro.qbf import cegar


class TestResourceGuard:
    def test_ensure_coercions(self):
        fresh = ResourceGuard.ensure(None)
        assert fresh.time_limit is None and fresh.node_limit is None

        from_limits = ResourceGuard.ensure(Limits(time_limit=7.0, node_limit=9))
        assert from_limits.time_limit == 7.0
        assert from_limits.node_limit == 9

        # An existing guard passes through unchanged — nested solver
        # calls share one clock instead of each restarting a fresh one.
        assert ResourceGuard.ensure(from_limits) is from_limits

    def test_expired_deadline_raises_timeout(self):
        guard = ResourceGuard(time_limit=0.0)
        time.sleep(0.002)
        with pytest.raises(TimeoutExceeded) as excinfo:
            guard.check()
        assert excinfo.value.diagnosis is not None
        assert excinfo.value.diagnosis.resource == "time"

    def test_conflict_budget_raises_with_diagnosis(self):
        guard = ResourceGuard(conflict_limit=10)
        guard.enter_stage("selection")
        guard.charge_conflicts(11)
        with pytest.raises(ConflictLimitExceeded) as excinfo:
            guard.check()
        assert excinfo.value.diagnosis.stage == "selection"
        assert excinfo.value.diagnosis.resource == "conflicts"

    def test_check_nodes_raises_and_records_size(self):
        guard = ResourceGuard(node_limit=100)
        guard.check_nodes(50)  # fine
        with pytest.raises(NodeLimitExceeded) as excinfo:
            guard.check_nodes(101)
        assert excinfo.value.diagnosis.progress["matrix_size"] == 101.0

    def test_slice_raises_stage_budget_when_parent_healthy(self):
        guard = ResourceGuard(time_limit=1000.0)
        child = guard.slice(time_fraction=0.0, stage="qbf-backend")
        time.sleep(0.002)
        with pytest.raises(StageBudgetExceeded):
            child.check()

    def test_slice_raises_real_timeout_when_parent_exhausted(self):
        guard = ResourceGuard(time_limit=0.0)
        child = guard.slice(time_fraction=0.5)
        time.sleep(0.002)
        with pytest.raises(TimeoutExceeded):
            child.check()

    def test_slice_conflicts_propagate_to_parent(self):
        guard = ResourceGuard(conflict_limit=1000)
        child = guard.slice(conflict_limit=10)
        child.charge_conflicts(7)
        assert child.conflicts == 7
        assert guard.conflicts == 7
        child.charge_conflicts(4)
        with pytest.raises(StageBudgetExceeded):
            child.check()
        guard.check()  # parent budget (1000) still healthy

    def test_slice_without_own_limit_raises_parents_conflict_limit(self):
        guard = ResourceGuard(conflict_limit=5)
        child = guard.slice(stage="qbf-backend")
        child.charge_conflicts(5)
        child.check()  # at the limit, not over it
        child.charge_conflicts(1)
        with pytest.raises(ConflictLimitExceeded):
            child.check()

    def test_stage_deadline_fraction_zero_is_expired(self):
        guard = ResourceGuard()  # unlimited
        assert guard.stage_deadline(0.5) is None
        expired = guard.stage_deadline(0.0)
        assert expired is not None and expired <= time.monotonic()

    def test_stage_deadline_never_past_overall_deadline(self):
        guard = ResourceGuard(time_limit=10.0)
        assert guard.stage_deadline(0.25) <= guard.deadline()
        assert guard.stage_deadline(5.0) <= guard.deadline()

    def test_absorbed_checkpoint_accounting_in_diagnosis(self):
        guard = ResourceGuard()
        guard.absorb_checkpoint(elapsed=3.5, conflicts=42)
        assert guard.prior_elapsed == 3.5
        assert guard.prior_conflicts == 42
        assert guard.diagnosis("time").elapsed >= 3.5


def _oracle_status(formula: Dqbf) -> str:
    return SAT if expansion_solve(formula) else UNSAT


class TestDegradationLadder:
    """Each ladder stage, fault-injected, degrades and still answers."""

    def _instance(self):
        # Needs real MaxSAT work (conflicting dependency pairs) and
        # enough eliminations for FRAIG sweeps to actually run.
        return make_comp(6, 2, buggy=True, seed=11)

    def test_maxsat_over_budget_degrades_to_greedy(self, monkeypatch):
        monkeypatch.setattr(hqs, "MAXSAT_CONFLICT_BUDGET", 0)
        instance = self._instance()
        result = HqsSolver().solve(
            instance.formula.copy(), Limits(time_limit=120)
        )
        assert result.status in (SAT, UNSAT)
        assert result.status == (SAT if instance.expected else UNSAT)
        assert result.stats.get("degrade_maxsat") == 1

    def test_qbf_over_budget_degrades_to_expansion(self, monkeypatch):
        monkeypatch.setattr(hqs, "QBF_TIME_FRACTION", 0.0)
        instance = self._instance()
        result = HqsSolver().solve(
            instance.formula.copy(), Limits(time_limit=120)
        )
        assert result.status == (SAT if instance.expected else UNSAT)
        assert result.stats.get("degrade_qbf") == 1

    def _sleep_in_cegar(self, monkeypatch):
        """Make every CEGAR game first sleep past its guard's deadline;
        returns the list of games entered."""
        original = cegar._Game.solve
        entered = []

        def slow(game, *args):
            entered.append(game)
            time.sleep(max(0.0, game.guard.deadline() - time.monotonic()) + 0.01)
            return original(game, *args)

        monkeypatch.setattr(cegar._Game, "solve", slow)
        return entered

    def test_qbf_slice_expiring_inside_cegar_degrades(self, monkeypatch):
        entered = self._sleep_in_cegar(monkeypatch)
        monkeypatch.setattr(hqs, "QBF_TIME_FRACTION", 0.01)
        instance = self._instance()
        solver = HqsSolver(trace=True)
        result = solver.solve(instance.formula.copy(), Limits(time_limit=20))
        assert entered
        assert result.status == (SAT if instance.expected else UNSAT)
        assert result.stats.get("degrade_qbf") == 1
        # rung 3 decided, not CEGAR
        assert "QBF back-end over budget: bounded expansion fallback" in solver.trace
        assert "QBF back-end decided by CEGAR" not in solver.trace
        assert result.stats["universal_eliminations"] >= 1

    def test_whole_deadline_inside_cegar_is_unknown(self, monkeypatch):
        entered = self._sleep_in_cegar(monkeypatch)
        monkeypatch.setattr(hqs, "QBF_TIME_FRACTION", 1.0)
        solver = HqsSolver(trace=True)
        result = solver.solve(self._instance().formula.copy(), Limits(time_limit=1.0))
        assert entered
        assert result.status == UNKNOWN
        assert result.failure.stage == "qbf-backend"
        assert result.failure.resource == "time"
        assert "degrade_qbf" not in result.stats
        assert not any("QBF back-end decided" in line for line in solver.trace)

    def test_fraig_over_budget_degrades_to_strash(self, monkeypatch):
        monkeypatch.setattr(hqs, "FRAIG_TIME_FRACTION", 0.0)
        instance = self._instance()
        result = HqsSolver(HqsOptions(fraig_interval=1)).solve(
            instance.formula.copy(), Limits(time_limit=120)
        )
        assert result.status == (SAT if instance.expected else UNSAT)
        assert result.stats.get("degrade_fraig", 0) >= 1

    def test_degraded_ladder_matches_oracle_on_small_formulas(self, monkeypatch):
        # All three fallbacks at once, on a formula small enough for the
        # semantic oracle: degradation must never change the answer.
        monkeypatch.setattr(hqs, "MAXSAT_CONFLICT_BUDGET", 0)
        monkeypatch.setattr(hqs, "QBF_TIME_FRACTION", 0.0)
        monkeypatch.setattr(hqs, "FRAIG_TIME_FRACTION", 0.0)
        formula = Dqbf.build(
            [1, 2],
            [(3, [1]), (4, [2])],
            [[3, 4, 1], [-3, -4, 2], [3, -4, -1], [-3, 4, -2]],
        )
        expected = _oracle_status(formula)
        result = HqsSolver(HqsOptions(fraig_interval=1)).solve(
            formula.copy(), Limits(time_limit=60)
        )
        assert result.status == expected


class TestExhaustionVerdicts:
    """No resource-limit exception escapes any solver front end."""

    def _hard_formula(self) -> Dqbf:
        return make_comp(8, 3, buggy=False, seed=7).formula

    def test_hqs_time_exhaustion_is_unknown(self):
        result = solve_dqbf(self._hard_formula(), limits=Limits(time_limit=0.0))
        assert result.status == UNKNOWN
        assert result.failure is not None
        assert result.failure.resource == "time"
        assert result.failure.stage  # non-empty stage name

    def test_hqs_node_exhaustion_is_unknown(self):
        result = solve_dqbf(self._hard_formula(), limits=Limits(node_limit=1))
        assert result.status == UNKNOWN
        assert result.failure is not None
        assert result.failure.resource in ("nodes", "time")

    def test_failure_survives_result_serialization(self):
        result = solve_dqbf(self._hard_formula(), limits=Limits(time_limit=0.0))
        from repro.core.result import SolveResult

        restored = SolveResult.from_dict(result.as_dict())
        assert restored.status == UNKNOWN
        assert restored.failure is not None
        assert restored.failure.resource == result.failure.resource
        assert restored.failure.stage == result.failure.stage

    @pytest.mark.parametrize("solver_name", ["HQS", "IDQ", "EXPANSION", "BDD", "DPLL"])
    def test_all_backends_funnel_exhaustion(self, solver_name):
        from repro.experiments.runner import SOLVERS

        formula = self._hard_formula()
        result = SOLVERS[solver_name](formula, Limits(time_limit=0.01))
        assert result.status in (SAT, UNSAT, UNKNOWN)
        if result.status == UNKNOWN:
            assert result.failure is not None


class TestCliExitCodes:
    def _write_hard(self, tmp_path) -> str:
        from repro.formula.dqdimacs import save_dqdimacs

        path = tmp_path / "hard.dqdimacs"
        save_dqdimacs(make_comp(8, 3, buggy=False, seed=3).formula, str(path))
        return str(path)

    def test_timeout_exit_124_and_failure_line(self, tmp_path, capsys):
        from repro.cli import EXIT_TIMEOUT, main

        path = self._write_hard(tmp_path)
        assert main(["--timeout", "0.01", path]) == EXIT_TIMEOUT
        out = capsys.readouterr().out
        assert "s cnf UNKNOWN" in out
        assert "c failure stage=" in out
        assert "resource=time" in out

    def test_node_limit_exit_125(self, tmp_path, capsys):
        from repro.cli import EXIT_NODELIMIT, main

        path = self._write_hard(tmp_path)
        assert main(["--node-limit", "1", path]) == EXIT_NODELIMIT
        out = capsys.readouterr().out
        assert "resource=nodes" in out

    def test_sat_instance_still_exits_10(self, tmp_path):
        from repro.cli import EXIT_SAT, main
        from repro.formula.dqdimacs import save_dqdimacs

        instance = make_pec_xor(4, 1, buggy=False, seed=61)
        path = tmp_path / "sat.dqdimacs"
        save_dqdimacs(instance.formula, str(path))
        assert main([str(path)]) == EXIT_SAT
