"""Reader/writer for the DQDIMACS format used by iDQ and HQS.

DQDIMACS extends QDIMACS with ``d`` lines that state an existential
variable together with its explicit dependency set::

    p cnf 4 3
    a 1 2 0
    d 3 1 0
    d 4 2 0
    -3 1 0
    ...

``a``/``e`` lines behave as in QDIMACS: an ``e`` variable depends on all
universal variables declared before it.  Clause lines are standard
DIMACS.

**Interned dependency sets.**  A PEC encoding repeats a handful of
dependency lists over hundreds of ``d`` lines, and those lists carry most
of a file's tokens.  :func:`parse_dqdimacs` keeps one dict per parse from
a ``d`` line's dependency tail (the text after the variable) to its
checked ``frozenset``: a repeated tail costs one dict lookup, and every
existential with that list shares one set object (see
:mod:`repro.formula.prefix`).  Only the variable token is converted and
checked.  Clause and prefix lines are checked per line (one conversion,
then ``min``/``max`` and ``0 in``); a line that fails is re-read token by
token, so every error names the same fault and line as a token-by-token
reader would.
"""

from __future__ import annotations

import io
from typing import Dict, FrozenSet, List, Optional, TextIO, Union

from .cnf import Cnf
from .dqbf import Dqbf
from .prefix import DependencyPrefix


class DqdimacsError(ValueError):
    """Raised on malformed DQDIMACS input."""


def parse_dqdimacs(source: Union[str, TextIO]) -> Dqbf:
    """Parse DQDIMACS text (or a file-like object) into a :class:`Dqbf`."""
    if isinstance(source, str):
        source = io.StringIO(source)

    prefix = DependencyPrefix()
    clauses: List[List[int]] = []
    declared_vars = 0
    declared_clauses = -1
    universal_so_far: List[int] = []
    saw_problem_line = False
    # d-line dependency tail -> its checked set (valid for the whole
    # parse: the declared maximum is fixed and universals only grow).
    dep_sets: Dict[str, FrozenSet[int]] = {}

    for line_number, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split(None, 1)
        head = tokens[0]
        if head == "p":
            tokens = line.split()
            if saw_problem_line:
                raise DqdimacsError(f"line {line_number}: duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise DqdimacsError(f"line {line_number}: malformed problem line {line!r}")
            declared_vars = int(tokens[2])
            declared_clauses = int(tokens[3])
            saw_problem_line = True
            continue
        if not saw_problem_line:
            raise DqdimacsError(f"line {line_number}: clause/prefix before problem line")
        if head == "d":
            # The variable token, then the dependency tail as one string.
            fields = tokens[1].split(None, 1) if len(tokens) == 2 else []
            tail = fields[1] if len(fields) == 2 else None
            deps = dep_sets.get(tail) if tail is not None else None
            numbers = None
            if deps is not None:
                numbers = _read_line([fields[0], "0"], declared_vars, allow_negative=False)
            if numbers is None:
                # A new tail (or a faulty variable): read the line token by token.
                numbers = _parse_terminated(line.split()[1:], line_number)
                if not numbers:
                    raise DqdimacsError(f"line {line_number}: empty d line")
                for number in numbers:
                    _check_var(number, declared_vars, line_number)
                deps = numbers[1:]
            var = numbers[0]
            try:
                prefix.add_existential(var, deps)
            except ValueError as exc:
                raise DqdimacsError(f"line {line_number}: {exc}") from exc
            if tail is not None:
                dep_sets[tail] = prefix.dependencies(var)
            continue
        if head == "a" or head == "e":
            tokens = line.split()[1:]
            numbers = _read_line(tokens, declared_vars, allow_negative=False)
            faulty = numbers is None
            if faulty:
                # Re-read token by token: each variable is checked just
                # before it is added, as the error order requires.
                numbers = _parse_terminated(tokens, line_number)
            if head == "a":
                for var in numbers:
                    if faulty:
                        _check_var(var, declared_vars, line_number)
                    try:
                        prefix.add_universal(var)
                    except ValueError as exc:
                        raise DqdimacsError(f"line {line_number}: {exc}") from exc
                    universal_so_far.append(var)
            else:
                universal_deps = frozenset(universal_so_far)
                for var in numbers:
                    if faulty:
                        _check_var(var, declared_vars, line_number)
                    try:
                        prefix.add_existential(var, universal_deps)
                    except ValueError as exc:
                        raise DqdimacsError(f"line {line_number}: {exc}") from exc
            continue
        tokens = line.split()
        literals = _read_line(tokens, declared_vars, allow_negative=True)
        if literals is None:
            literals = _parse_terminated(tokens, line_number, allow_negative=True)
            for lit in literals:
                _check_var(abs(lit), declared_vars, line_number)
        clauses.append(literals)

    if declared_clauses >= 0 and len(clauses) != declared_clauses:
        # Tolerate the mismatch (many generators are sloppy) but only
        # when fewer clauses were promised than delivered is it an error.
        if len(clauses) > declared_clauses:
            raise DqdimacsError(
                f"{len(clauses)} clauses found but header declares {declared_clauses}"
            )

    matrix = Cnf(clauses, num_vars=declared_vars)
    return Dqbf(prefix, matrix)


def _read_line(tokens: List[str], declared: int, allow_negative: bool) -> Optional[List[int]]:
    """The numbers of a clause or prefix line, checked as a whole line.

    Returns ``None`` on any fault; the caller then re-reads the line
    token by token (:func:`_parse_terminated`, :func:`_check_var`) to
    raise the error a token-by-token reader gives.
    """
    try:
        numbers = list(map(int, tokens))
    except ValueError:
        return None
    if not numbers or numbers.pop() != 0:
        return None
    if not numbers:
        return numbers
    low = min(numbers)
    if 0 in numbers or (low < 0 and not allow_negative):
        return None
    if declared and (max(numbers) > declared or -low > declared):
        return None
    return numbers


def _parse_terminated(
    tokens: List[str], line_number: int, allow_negative: bool = False
) -> List[int]:
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as exc:
        raise DqdimacsError(f"line {line_number}: non-integer token") from exc
    if not numbers or numbers[-1] != 0:
        raise DqdimacsError(f"line {line_number}: missing terminating 0")
    numbers = numbers[:-1]
    if any(n == 0 for n in numbers):
        raise DqdimacsError(f"line {line_number}: stray 0 inside line")
    if not allow_negative and any(n < 0 for n in numbers):
        raise DqdimacsError(f"line {line_number}: negative variable in prefix")
    return numbers


def _check_var(var: int, declared: int, line_number: int) -> None:
    if var < 1:
        raise DqdimacsError(f"line {line_number}: invalid variable {var}")
    if declared and var > declared:
        raise DqdimacsError(
            f"line {line_number}: variable {var} exceeds declared maximum {declared}"
        )


def write_dqdimacs(formula: Dqbf) -> str:
    """Serialize a :class:`Dqbf` to DQDIMACS text.

    All existential variables are written with explicit ``d`` lines so
    the output is format-faithful regardless of the dependency structure.
    """
    prefix = formula.prefix
    matrix = formula.matrix
    num_vars = max([matrix.num_vars] + prefix.all_variables() + [0])
    lines = [f"p cnf {num_vars} {len(matrix)}"]
    if prefix.universals:
        lines.append("a " + " ".join(str(v) for v in prefix.universals) + " 0")
    for y in prefix.existentials:
        deps = " ".join(str(x) for x in sorted(prefix.dependencies(y)))
        lines.append(f"d {y}{(' ' + deps) if deps else ''} 0")
    for clause in matrix:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def load_dqdimacs(path: str) -> Dqbf:
    """Parse a DQDIMACS file from disk."""
    with open(path, "r", encoding="ascii") as handle:
        return parse_dqdimacs(handle)


def save_dqdimacs(formula: Dqbf, path: str) -> None:
    """Write a DQDIMACS file to disk."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write_dqdimacs(formula))
