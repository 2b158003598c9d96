"""Tests for the CDCL SAT solver (against the DPLL oracle and by hand)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sat.simple import dpll_solve
from repro.sat.solver import SAT, UNKNOWN, UNSAT, CdclSolver, _luby, solve_cnf

from conftest import cnf_strategy


def php_clauses(holes: int):
    """Pigeonhole principle with holes+1 pigeons (classically UNSAT)."""
    pigeons = holes + 1

    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert solve_cnf([])[0] == SAT

    def test_single_unit(self):
        status, model = solve_cnf([[4]])
        assert status == SAT
        assert model[4] is True

    def test_conflicting_units(self):
        assert solve_cnf([[1], [-1]])[0] == UNSAT

    def test_empty_clause_rejected(self):
        solver = CdclSolver()
        assert solver.add_clause([]) is False
        assert solver.solve() == UNSAT

    def test_tautological_clause_ignored(self):
        solver = CdclSolver()
        solver.add_clause([1, -1])
        assert solver.solve() == SAT

    def test_duplicate_literals_collapse(self):
        status, model = solve_cnf([[2, 2, 2]])
        assert status == SAT and model[2]

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            CdclSolver().add_clause([1, 0])

    def test_model_satisfies_formula(self):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [2, 3]]
        status, model = solve_cnf(clauses)
        assert status == SAT
        for clause in clauses:
            assert any((lit > 0) == model[abs(lit)] for lit in clause)


class TestVersusOracle:
    @settings(max_examples=200, deadline=None)
    @given(cnf_strategy(max_vars=10, max_clauses=45))
    def test_agrees_with_dpll(self, clauses):
        status, model = solve_cnf(clauses)
        oracle = dpll_solve(clauses)
        assert status == (SAT if oracle is not None else UNSAT)
        if status == SAT:
            for clause in clauses:
                assert any((lit > 0) == model[abs(lit)] for lit in clause)


class TestLearning:
    def test_pigeonhole_unsat(self):
        assert solve_cnf(php_clauses(5))[0] == UNSAT

    def test_statistics_populated(self):
        solver = CdclSolver()
        solver.add_clauses(php_clauses(4))
        solver.solve()
        stats = solver.statistics
        assert stats["conflicts"] > 0
        assert stats["decisions"] > 0

    def test_conflict_limit_returns_unknown(self):
        solver = CdclSolver()
        solver.add_clauses(php_clauses(7))
        assert solver.solve(conflict_limit=5) in (UNKNOWN, UNSAT)

    def test_deadline_returns_unknown(self):
        import time

        solver = CdclSolver()
        solver.add_clauses(php_clauses(9))
        status = solver.solve(deadline=time.monotonic() + 0.05)
        assert status in (UNKNOWN, UNSAT)


class TestAssumptions:
    def test_assumption_forces_branch(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve([-1]) == SAT
        assert solver.model()[2] is True

    def test_unsat_under_assumptions_recoverable(self):
        solver = CdclSolver()
        solver.add_clauses([[1, 2], [-1, 2]])
        assert solver.solve([-2]) == UNSAT
        assert solver.solve([2]) == SAT
        assert solver.solve() == SAT

    def test_failed_assumptions_form_core(self):
        solver = CdclSolver()
        solver.add_clauses([[-1, -2], [3]])
        assert solver.solve([1, 2]) == UNSAT
        core = set(solver.failed_assumptions())
        assert core <= {1, 2}
        assert core  # non-empty

    def test_core_is_unsat_with_clauses(self, rng):
        from conftest import random_clauses

        for _ in range(60):
            clauses = random_clauses(rng, 8, rng.randint(3, 30))
            assumptions = []
            seen = set()
            for _ in range(rng.randint(1, 4)):
                v = rng.randint(1, 8)
                if v not in seen:
                    seen.add(v)
                    assumptions.append(rng.choice([v, -v]))
            solver = CdclSolver()
            solver.add_clauses(clauses)
            if solver.solve(assumptions) == UNSAT and solver._ok:
                core = solver.failed_assumptions()
                assert set(core) <= set(assumptions)
                assert dpll_solve(clauses + [[a] for a in core]) is None

    def test_incremental_clause_addition(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve() == SAT
        solver.add_clause([-1])
        assert solver.solve() == SAT
        assert solver.model()[2] is True
        solver.add_clause([-2])
        assert solver.solve() == UNSAT


def random_3cnf(seed: int, num_vars: int, ratio: float = 4.26):
    """Seeded uniform random 3-CNF with ``round(ratio * num_vars)`` clauses."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(round(ratio * num_vars)):
        picked = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in picked])
    return clauses


def _snapshot(solver: CdclSolver, status: str):
    """``(status, counters, model bits, failed assumptions)`` after a solve."""
    stats = solver.statistics
    counters = tuple(
        stats[key]
        for key in ("conflicts", "decisions", "propagations", "clauses", "learnts")
    )
    bits = None
    if status == SAT:
        model = solver.model()
        bits = "".join("1" if model[v] else "0" for v in range(1, solver.num_vars + 1))
    return status, counters, bits, solver.failed_assumptions()


def _one_shot(clauses):
    solver = CdclSolver()
    solver.add_clauses(clauses)
    return _snapshot(solver, solver.solve())


def _incremental_sequence():
    """Assumptions, clauses added between solves, an UNKNOWN and a core."""
    solver = CdclSolver()
    solver.add_clauses(random_3cnf(11, 40, ratio=3.8))
    steps = [_snapshot(solver, solver.solve())]
    steps.append(_snapshot(solver, solver.solve([1, -2, 3])))
    solver.add_clauses(random_3cnf(12, 40, ratio=0.5))
    steps.append(_snapshot(solver, solver.solve([-1, 5])))
    # php(5) over variables 101..130, switched on by the selector 100.
    selector = 100
    for clause in php_clauses(5):
        solver.add_clause([-selector] + [lit + 100 if lit > 0 else lit - 100 for lit in clause])
    steps.append(_snapshot(solver, solver.solve([selector], conflict_limit=20)))
    # 201 -> 202 -> 203 and 204 -> -203: assuming 201 and 204 fails.
    solver.add_clauses([[-201, 202], [-202, 203], [-204, -203]])
    steps.append(_snapshot(solver, solver.solve([205, 201, 206, 204])))
    steps.append(_snapshot(solver, solver.solve([selector])))
    steps.append(_snapshot(solver, solver.solve()))
    return steps


class TestTrajectoryOracle:
    """The search trajectory is part of the solver's behaviour.

    Decisions, propagations, conflicts and learnt clauses must come out
    in the same order after any rewrite of the kernel: the MaxSAT layer,
    FRAIG sweeps and the CEGAR back-end all see models and cores, and
    their own trajectories follow from them.  The golden values below
    were recorded from the solver at commit ab7395c, before its hot
    loops were inlined, by running ``_one_shot`` and
    ``_incremental_sequence`` on this corpus and printing the results.
    Counters are ``(conflicts, decisions, propagations, clauses,
    learnts)``; a model is the bit string of variables 1..n.  Any
    change to VSIDS tie-breaking, watch order, restarts or clause
    minimisation changes at least one value.
    """

    GOLDEN_PHP = {
        4: ("UNSAT", (28, 31, 277, 45, 24), None, []),
        5: ("UNSAT", (155, 201, 1788, 81, 150), None, []),
        6: ("UNSAT", (655, 805, 8140, 133, 651), None, []),
    }
    GOLDEN_RANDOM = {
        0: ("UNSAT", (177, 199, 3568, 341, 170), None, []),
        1: ("UNSAT", (124, 141, 2202, 341, 116), None, []),
        2: ("UNSAT", (277, 335, 5734, 341, 272), None, []),
        3: ("UNSAT", (301, 344, 5780, 341, 297), None, []),
        4: ("UNSAT", (176, 195, 3481, 341, 166), None, []),
        5: ("UNSAT", (229, 266, 4483, 341, 225), None, []),
        6: (
            "SAT",
            (204, 261, 4023, 341, 203),
            "10101110111101011101010000000101111110100111001101011110000001111000111000100001",
            [],
        ),
        7: (
            "SAT",
            (14, 27, 320, 341, 14),
            "01101110111101100000100101010001110111100111110011010111000101111011101110010100",
            [],
        ),
    }
    GOLDEN_INCREMENTAL = [
        ("SAT", (9, 19, 131, 152, 9), "0011101001000111111110101001111111111100", []),
        ("SAT", (9, 30, 171, 152, 9), "1011100001000111111111101001111110011100", []),
        ("UNSAT", (22, 43, 315, 172, 21), None, [-1, 5]),
        ("UNKNOWN", (42, 67, 575, 253, 41), None, []),
        ("UNSAT", (42, 67, 581, 256, 41), None, [201, 204]),
        ("UNSAT", (200, 309, 2466, 256, 197), None, [100]),
        (
            "SAT",
            (201, 480, 2697, 256, 197),
            "1011100001000111110111101001111110011000000000000000000000000000000000"
            "0000000000000000000000000000000100000010000000010010000000010000000000"
            "000000000000000000000000000000000000000000000000000000000000111011",
            [],
        ),
    ]

    @pytest.mark.parametrize("holes", [4, 5, 6])
    def test_pigeonhole(self, holes):
        assert _one_shot(php_clauses(holes)) == self.GOLDEN_PHP[holes]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_3cnf(self, seed):
        assert _one_shot(random_3cnf(seed, 80)) == self.GOLDEN_RANDOM[seed]

    def test_incremental_sequence(self):
        assert _incremental_sequence() == self.GOLDEN_INCREMENTAL


class TestScopedDecisions:
    """``solve(decide=...)`` branches only on the given variables and
    answers SAT once they are all assigned without a conflict."""

    @settings(max_examples=60, deadline=None)
    @given(cnf_strategy(), st.lists(st.integers(0, 15), max_size=8))
    # 2 is never allocated: add_clause returns on the tautology first
    @example([[1, -1, 2]], [1])
    def test_scoped_then_full_model(self, clauses, picks):
        variables = sorted({abs(lit) for clause in clauses for lit in clause})
        decide = sorted({variables[i % len(variables)] for i in picks}) if variables else []
        solver = CdclSolver()
        solver.add_clauses(clauses)
        expected = dpll_solve(clauses) is not None
        status = solver.solve(decide=decide)
        if status == SAT:
            model = solver.model()
            assert all(var in model for var in decide)
            scope = set(decide)
            for clause in clauses:
                if {abs(lit) for lit in clause} <= scope:
                    assert any(model[abs(lit)] == (lit > 0) for lit in clause)
        else:
            assert status == UNSAT and not expected
        # The next unscoped call decides over every variable again.
        status = solver.solve()
        assert (status == SAT) == expected
        if status == SAT:
            model = solver.model()
            assert sorted(model) == list(range(1, solver.num_vars + 1))
            for clause in clauses:
                assert any(model[abs(lit)] == (lit > 0) for lit in clause)

    def test_decide_allocates_variables(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(decide=[5]) == SAT
        assert solver.num_vars == 5 and 5 in solver.model()

    def test_unassigned_variables_are_left_out(self):
        solver = CdclSolver()
        solver.add_clauses([[1, 2], [3, 4], [-3, -4]])
        assert solver.solve(decide=[1, 2]) == SAT
        assert set(solver.model()) == {1, 2}
        assert solver.solve() == SAT
        assert set(solver.model()) == {1, 2, 3, 4}

    def test_tie_order(self):
        # All activities are 0.  The heap starts newest first, so 3 is
        # decided first (false, the saved phase); the pop moves the last
        # entry, 1, to the root and the sift-down stops at equal
        # activities, so 1 is next and 2 propagates true.
        solver = CdclSolver()
        solver.add_clause([1, 2, 3])
        assert solver.solve(decide=[1, 2, 3]) == SAT
        assert solver.model() == {1: False, 2: True, 3: False}
        assert solver.decisions == 2


def _solver_state(solver):
    return (
        solver._ok,
        list(solver._val),
        list(solver._trail),
        [c.lits for c in solver._clauses],
        [[c.lits for c in watchers] for watchers in solver._watches],
    )


class TestAndGate:
    """``add_and_gate`` leaves the solver exactly as the three
    ``add_clause`` calls of the Tseitin encoding do."""

    @settings(max_examples=200, deadline=None)
    @given(
        cnf_strategy(),
        st.integers(1, 8),
        st.integers(-8, 8).filter(bool),
        st.integers(-8, 8).filter(bool),
        st.booleans(),
    )
    def test_same_state_as_add_clause(self, clauses, out, a, b, solved):
        gate, reference = CdclSolver(), CdclSolver()
        for solver in (gate, reference):
            solver.add_clauses(clauses)
            solver.ensure_vars(8)
            if solved:
                solver.solve()
        gate.add_and_gate(out, a, b)
        reference.add_clause([-out, a])
        reference.add_clause([-out, b])
        reference.add_clause([out, -a, -b])
        assert _solver_state(gate) == _solver_state(reference)
        assert gate.solve() == reference.solve()


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(15)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]
