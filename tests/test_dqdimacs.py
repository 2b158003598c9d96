"""Tests for the DQDIMACS reader/writer."""

import pytest
from hypothesis import given, settings

from repro.formula.dqbf import expansion_solve
from repro.formula.dqdimacs import (
    DqdimacsError,
    parse_dqdimacs,
    write_dqdimacs,
)

from conftest import dqbf_strategy

EXAMPLE = """\
c Example 1 of the paper
p cnf 4 2
a 1 2 0
d 3 1 0
d 4 2 0
3 4 1 0
-3 -4 2 0
"""


class TestParse:
    def test_example(self):
        formula = parse_dqdimacs(EXAMPLE)
        assert formula.prefix.universals == [1, 2]
        assert formula.prefix.dependencies(3) == frozenset([1])
        assert formula.prefix.dependencies(4) == frozenset([2])
        assert len(formula.matrix) == 2

    def test_e_line_inherits_universals(self):
        text = "p cnf 3 1\na 1 0\ne 2 0\na 3 0\n2 0\n"
        formula = parse_dqdimacs(text)
        assert formula.prefix.dependencies(2) == frozenset([1])
        assert formula.prefix.universals == [1, 3]

    def test_comments_and_blank_lines_skipped(self):
        text = "c hello\n\np cnf 1 1\nc mid\na 1 0\nc more\n1 -1 0\n"
        formula = parse_dqdimacs(text)
        assert formula.prefix.universals == [1]

    def test_empty_dependency_set(self):
        text = "p cnf 2 1\na 1 0\nd 2 0\n2 0\n"
        formula = parse_dqdimacs(text)
        assert formula.prefix.dependencies(2) == frozenset()

    @pytest.mark.parametrize(
        "text",
        [
            "a 1 0\np cnf 1 0\n",                 # prefix before problem line
            "p cnf 1 0\np cnf 1 0\n",              # duplicate problem line
            "p dnf 1 0\n",                         # wrong format tag
            "p cnf 2 1\na 1 0\n1 2\n",             # missing terminator
            "p cnf 2 1\na 5 0\n1 0\n",             # var exceeds declared max
            "p cnf 2 1\na -1 0\n1 0\n",            # negative var in prefix
            "p cnf 2 1\nd 0\n1 0\n",               # empty d line
            "p cnf 2 1\na 1 0\nd 2 9 0\n1 0\n",    # dep exceeds declared max
            "p cnf 1 0\n1 0\n",                    # more clauses than declared
        ],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(DqdimacsError):
            parse_dqdimacs(text)

    def test_dependency_on_existential_rejected(self):
        text = "p cnf 3 1\na 1 0\nd 2 1 0\nd 3 2 0\n3 0\n"
        with pytest.raises(DqdimacsError):
            parse_dqdimacs(text)


class TestInternedDependencySets:
    """Repeated ``d`` tails are read once; errors stay those of a
    token-by-token reader, message and line number alike."""

    def test_equal_tails_share_one_set(self):
        text = "p cnf 6 1\na 1 2 0\nd 3 1 2 0\nd 4 1 2 0\nd 5 1 0\nd 6 1 2 0\n3 4 0\n"
        prefix = parse_dqdimacs(text).prefix
        assert prefix.dependencies(3) == frozenset([1, 2])
        assert prefix.dependencies(3) is prefix.dependencies(4) is prefix.dependencies(6)
        assert prefix.dependencies(5) == frozenset([1])

    def test_equal_sets_share_one_object_across_spellings(self):
        text = "p cnf 4 1\na 1 2 0\nd 3 1 2 0\nd 4 2  1 0\n3 0\n"
        prefix = parse_dqdimacs(text).prefix
        assert prefix.dependencies(3) is prefix.dependencies(4)

    @pytest.mark.parametrize(
        "text,message",
        [
            # a bad list raises on its first line
            ("p cnf 4 1\na 1 0\nd 3 1 2 0\nd 4 1 2 0\n3 0\n",
             "line 3: dependency set of 3 mentions non-universal variables [2]"),
            ("p cnf 4 1\na 1 2 0\nd 3 1 5 0\nd 4 1 5 0\n3 0\n",
             "line 3: variable 5 exceeds declared maximum 4"),
            # a repeated (already checked) tail still checks its variable
            ("p cnf 4 1\na 1 2 0\nd 3 1 2 0\nd 9 1 2 0\n3 0\n",
             "line 4: variable 9 exceeds declared maximum 4"),
            ("p cnf 4 1\na 1 2 0\nd 3 1 2 0\nd 0 1 2 0\n3 0\n",
             "line 4: stray 0 inside line"),
            ("p cnf 4 1\na 1 2 0\nd 3 1 2 0\nd -4 1 2 0\n3 0\n",
             "line 4: negative variable in prefix"),
            ("p cnf 4 1\na 1 2 0\nd 3 1 2 0\nd x 1 2 0\n3 0\n",
             "line 4: non-integer token"),
            ("p cnf 4 1\na 1 2 0\nd 3 1 2 0\nd 3 1 2 0\n3 0\n",
             "line 4: variable 3 already quantified"),
        ],
    )
    def test_dependency_errors(self, text, message):
        with pytest.raises(DqdimacsError) as caught:
            parse_dqdimacs(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p cnf 4 2\na 1 2 0\nd 3 1 0\n3 0 1 0\n", "line 4: stray 0 inside line"),
            ("p cnf 4 2\na 1 2 0\nd 3 1 0\n3 1\n", "line 4: missing terminating 0"),
            ("p cnf 4 2\na 1 2 0\nd 3 1 0\n3 y 0\n", "line 4: non-integer token"),
            ("p cnf 4 2\na 1 2 0\nd 3 1 0\n3 -7 0\n",
             "line 4: variable 7 exceeds declared maximum 4"),
            ("p cnf 4 2\na 1 -2 0\n", "line 2: negative variable in prefix"),
            ("p cnf 4 2\na 1 2 0\ne 0 3 0\n", "line 3: stray 0 inside line"),
            ("p cnf 4 2\na 1 2 0\ne 3 4\n", "line 3: missing terminating 0"),
            ("p cnf 4 2\nc x\na 1 2 0\ne 3 9 0\n",
             "line 4: variable 9 exceeds declared maximum 4"),
            # a variable quantified twice on one a/e line
            ("p cnf 4 1\na 1 1 0\n", "line 2: variable 1 already quantified"),
            ("p cnf 4 1\na 1 0\ne 2 2 0\n", "line 3: variable 2 already quantified"),
        ],
    )
    def test_line_errors(self, text, message):
        with pytest.raises(DqdimacsError) as caught:
            parse_dqdimacs(text)
        assert str(caught.value) == message

    def test_duplicate_universal_before_range_fault(self):
        # Variables are added one by one: the duplicate 1 is found before 9.
        with pytest.raises(DqdimacsError) as caught:
            parse_dqdimacs("p cnf 4 2\na 1 1 9 0\n")
        assert str(caught.value) == "line 2: variable 1 already quantified"


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(dqbf_strategy())
    def test_write_parse_round_trip(self, formula):
        text = write_dqdimacs(formula)
        parsed = parse_dqdimacs(text)
        assert set(parsed.prefix.universals) == set(formula.prefix.universals)
        assert set(parsed.prefix.existentials) == set(formula.prefix.existentials)
        for y in formula.prefix.existentials:
            assert parsed.prefix.dependencies(y) == formula.prefix.dependencies(y)
        assert set(parsed.matrix.clauses) == set(formula.matrix.clauses)

    @settings(max_examples=30, deadline=None)
    @given(dqbf_strategy(max_universals=2, max_existentials=2, max_clauses=5))
    def test_round_trip_preserves_truth(self, formula):
        parsed = parse_dqdimacs(write_dqdimacs(formula))
        assert expansion_solve(parsed) == expansion_solve(formula)

    def test_file_round_trip(self, tmp_path):
        from repro.formula.dqdimacs import load_dqdimacs, save_dqdimacs

        formula = parse_dqdimacs(EXAMPLE)
        path = tmp_path / "example.dqdimacs"
        save_dqdimacs(formula, str(path))
        loaded = load_dqdimacs(str(path))
        assert loaded.prefix.universals == formula.prefix.universals
        assert set(loaded.matrix.clauses) == set(formula.matrix.clauses)
