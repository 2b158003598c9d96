"""Tests for the command-line interface."""

import pytest

from repro.cli import (
    EXIT_INPUT_ERROR,
    EXIT_SAT,
    EXIT_TIMEOUT,
    EXIT_UNSAT,
    build_parser,
    main,
)

SAT_INSTANCE = """\
p cnf 4 4
a 1 2 0
d 3 1 0
d 4 2 0
-3 1 0
3 -1 0
-4 2 0
4 -2 0
"""

UNSAT_INSTANCE = """\
p cnf 3 2
a 1 2 0
d 3 1 0
-3 2 0
3 -2 0
"""


@pytest.fixture
def sat_file(tmp_path):
    path = tmp_path / "sat.dqdimacs"
    path.write_text(SAT_INSTANCE)
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.dqdimacs"
    path.write_text(UNSAT_INSTANCE)
    return str(path)


class TestCli:
    def test_sat_exit_code(self, sat_file, capsys):
        assert main([sat_file]) == EXIT_SAT
        assert "SAT" in capsys.readouterr().out

    def test_unsat_exit_code(self, unsat_file):
        assert main([unsat_file]) == EXIT_UNSAT

    @pytest.mark.parametrize("solver", ["hqs", "idq", "expansion"])
    def test_all_solvers(self, solver, sat_file, unsat_file):
        assert main(["--solver", solver, sat_file]) == EXIT_SAT
        assert main(["--solver", solver, unsat_file]) == EXIT_UNSAT

    def test_stats_flag(self, sat_file, capsys):
        main(["--stats", sat_file])
        out = capsys.readouterr().out
        assert any(line.startswith("c ") for line in out.splitlines())

    def test_feature_flags(self, sat_file):
        assert (
            main(["--no-preprocessing", "--no-unit-pure", "--no-maxsat", sat_file])
            == EXIT_SAT
        )
        assert main(["--no-qbf", sat_file]) == EXIT_SAT

    def test_timeout_flag_exit_code(self, tmp_path):
        from repro.pec.families import make_comp
        from repro.formula.dqdimacs import save_dqdimacs

        instance = make_comp(8, 3, buggy=False, seed=3)
        path = tmp_path / "hard.dqdimacs"
        save_dqdimacs(instance.formula, str(path))
        assert main(["--timeout", "0.01", str(path)]) == EXIT_TIMEOUT

    def test_malformed_input_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "dup.dqdimacs"
        path.write_text("p cnf 4 1\na 1 1 0\n1 0\n")
        assert main([str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err == f"hqs: {path}: line 2: variable 1 already quantified\n"

    def test_parser_defaults(self):
        args = build_parser().parse_args(["f.dqdimacs"])
        assert args.solver == "hqs"
        assert args.timeout is None
