"""DQBF-aware CNF preprocessing (first stage of Fig. 3).

Adapted from QBF preprocessing as described in Section III-C of the
paper:

* **unit propagation** — an existential unit literal is assigned; a
  universal unit clause makes the formula UNSAT;
* **universal reduction** — a universal literal is dropped from a clause
  when no existential literal of that clause depends on it (the DQBF
  generalization of [29]);
* **equivalent variables** — binary-clause analysis detects ``a == b`` /
  ``a == ¬b`` and substitutes when dependency-compatible;
* **gate detection** — Tseitin-encoded AND/OR/XOR gates are recognized;
  their defining clauses are removed and the definitions recorded so the
  AIG construction can inline them with ``compose`` instead of carrying
  auxiliary variables.

The first three run in alternation until the CNF stabilizes; gate
detection runs once at the end (as in the paper).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..formula.cnf import Cnf
from ..formula.dqbf import Dqbf
from ..formula.lits import var_of
from ..formula.prefix import DependencyPrefix
from .guard import ResourceGuard


class Gate:
    """A recovered Tseitin gate: ``output <-> kind(inputs)``.

    ``kind`` is ``"and"``, ``"or"`` or ``"xor"``; ``inputs`` are literals.
    """

    def __init__(self, output: int, kind: str, inputs: Sequence[int]):
        self.output = output
        self.kind = kind
        self.inputs = list(inputs)

    def input_vars(self) -> Set[int]:
        return {var_of(lit) for lit in self.inputs}

    def __repr__(self) -> str:
        return f"Gate({self.output} <-> {self.kind}{tuple(self.inputs)})"


class PreprocessStats:
    """Counters for the preprocessing pass."""

    def __init__(self) -> None:
        self.units_propagated = 0
        self.universal_reductions = 0
        self.equivalences_substituted = 0
        self.gates_detected = 0
        self.clauses_subsumed = 0
        self.literals_strengthened = 0
        self.rounds = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class PreprocessResult:
    """Outcome of preprocessing.

    ``status`` is ``True``/``False`` when preprocessing already decided
    the formula, else ``None`` with the simplified ``formula`` and the
    topologically ordered ``gates`` to inline during AIG construction.
    """

    def __init__(
        self,
        status: Optional[bool],
        formula: Optional[Dqbf],
        gates: List[Gate],
        stats: PreprocessStats,
    ):
        self.status = status
        self.formula = formula
        self.gates = gates
        self.stats = stats


def preprocess(
    formula: Dqbf,
    detect_gates: bool = True,
    use_subsumption: bool = True,
    guard: Optional[ResourceGuard] = None,
) -> PreprocessResult:
    """Run the full preprocessing pipeline on a copy of ``formula``.

    ``guard`` threads the caller's cooperative budget through the
    fixpoint loops; ``None`` gets an unlimited guard.
    """
    work = formula.copy()
    stats = PreprocessStats()
    guard = ResourceGuard.ensure(guard)

    status = _simplify_to_fixpoint(work, stats, use_subsumption, guard)
    if status is not None:
        return PreprocessResult(status, None, [], stats)

    gates: List[Gate] = []
    if detect_gates:
        gates = _detect_gates(work, stats)

    if not len(work.matrix) and not gates:
        return PreprocessResult(True, None, [], stats)
    work.prefix.restrict_to(
        work.matrix.variables()
        | {g.output for g in gates}
        | {v for g in gates for v in g.input_vars()}
    )
    return PreprocessResult(None, work, gates, stats)


# ----------------------------------------------------------------------
# units / universal reduction / equivalences
# ----------------------------------------------------------------------

def _simplify_to_fixpoint(
    work: Dqbf,
    stats: PreprocessStats,
    use_subsumption: bool = True,
    guard: Optional[ResourceGuard] = None,
) -> Optional[bool]:
    guard = ResourceGuard.ensure(guard)
    while True:
        guard.check()
        stats.rounds += 1

        status = _propagate_units(work, stats, guard)
        if status is not None:
            return status

        reduced = _universal_reduction(work, stats)
        if reduced == "UNSAT":
            return False

        substituted = _substitute_one_equivalence(work, stats)

        strengthened = False
        if use_subsumption:
            strengthened = _subsumption(work, stats, guard)

        if work.matrix.has_empty_clause():
            return False
        if not len(work.matrix):
            return True
        if (
            not reduced
            and not substituted
            and not strengthened
            and not _has_unit(work.matrix)
        ):
            return None


def _has_unit(matrix: Cnf) -> bool:
    return any(len(clause) == 1 for clause in matrix)


def _propagate_units(
    work: Dqbf, stats: PreprocessStats, guard: Optional[ResourceGuard] = None
) -> Optional[bool]:
    """Assign all unit literals; returns a decided status or None."""
    guard = ResourceGuard.ensure(guard)
    while True:
        guard.check()
        unit = next((c for c in work.matrix if len(c) == 1), None)
        if unit is None:
            return None
        lit = unit[0]
        var = var_of(lit)
        if work.prefix.is_universal(var):
            # A universal variable forced to one value: unsatisfied.
            return False
        new_matrix = work.matrix.assign(var, lit > 0)
        work.matrix = new_matrix
        if work.prefix.is_existential(var):
            work.prefix.remove_existential(var)
        stats.units_propagated += 1
        if work.matrix.has_empty_clause():
            return False
        if not len(work.matrix):
            return True


def _universal_reduction(work: Dqbf, stats: PreprocessStats):
    """Apply generalized universal reduction to every clause."""
    prefix = work.prefix
    new_clauses: List[Tuple[int, ...]] = []
    changed = False
    for clause in work.matrix:
        existential_deps: Set[int] = set()
        for lit in clause:
            v = var_of(lit)
            if prefix.is_existential(v):
                existential_deps |= prefix.dependencies(v)
        kept = []
        for lit in clause:
            v = var_of(lit)
            if prefix.is_universal(v) and v not in existential_deps:
                changed = True
                stats.universal_reductions += 1
                continue
            kept.append(lit)
        if not kept:
            return "UNSAT"
        new_clauses.append(tuple(kept))
    if changed:
        rebuilt = Cnf(num_vars=work.matrix.num_vars)
        for clause in new_clauses:
            rebuilt.add_clause(clause)
        work.matrix = rebuilt
    return changed


def _substitute_one_equivalence(work: Dqbf, stats: PreprocessStats) -> bool:
    """Find one dependency-compatible variable equivalence and apply it.

    Clauses ``(l1 | l2)`` and ``(!l1 | !l2)`` together force ``l1 == !l2``
    — this single pattern covers both ``a == b`` (via complementary
    literal polarities) and ``a == !b``.
    """
    binary = {c for c in work.matrix if len(c) == 2}
    for clause in binary:
        l1, l2 = clause
        mirror = tuple(sorted((-l1, -l2), key=lambda l: (var_of(l), l < 0)))
        if mirror in work.matrix:
            if _apply_equivalence(work, l1, -l2, stats):
                return True
    return False


def _apply_equivalence(work: Dqbf, lit_a: int, lit_b: int, stats: PreprocessStats) -> bool:
    """Try to substitute so that ``lit_a == lit_b`` holds; True on success.

    Chooses which variable to keep based on DQBF dependency rules:
    an existential may be replaced by a literal whose variable is
    "visible" to it (universal in its dependency set, or existential
    with a subset dependency set).
    """
    prefix = work.prefix
    var_a, var_b = var_of(lit_a), var_of(lit_b)
    if var_a == var_b:
        return False

    def can_replace(drop: int, keep: int) -> bool:
        if not prefix.is_existential(drop):
            return False
        if prefix.is_universal(keep):
            return keep in prefix.dependencies(drop)
        return prefix.dependencies(keep) <= prefix.dependencies(drop)

    # polarity of the kept literal when substituting drop := keep-literal
    if can_replace(var_a, var_b):
        drop, drop_lit, keep_lit = var_a, lit_a, lit_b
    elif can_replace(var_b, var_a):
        drop, drop_lit, keep_lit = var_b, lit_b, lit_a
    else:
        return False

    # drop_lit == keep_lit; substitute drop by (keep_lit if drop_lit positive
    # else !keep_lit)
    replacement = keep_lit if drop_lit > 0 else -keep_lit
    rebuilt = Cnf(num_vars=work.matrix.num_vars)
    for clause in work.matrix:
        new_clause = []
        for lit in clause:
            if var_of(lit) == drop:
                new_clause.append(replacement if lit > 0 else -replacement)
            else:
                new_clause.append(lit)
        rebuilt.add_clause(new_clause)
    work.matrix = rebuilt
    work.prefix.remove_existential(drop)
    stats.equivalences_substituted += 1
    return True


def _subsumption(
    work: Dqbf, stats: PreprocessStats, guard: Optional[ResourceGuard] = None
) -> bool:
    """Subsumption and self-subsuming resolution on occurrence lists.

    Both are matrix-equivalence-preserving and therefore sound for DQBF:

    * a clause that is a superset of another clause is redundant;
    * if ``D \\ {-l}`` is a subset of ``C \\ {l}``, resolving ``C`` with
      ``D`` on ``l`` yields a subset of ``C``, so ``l`` can be removed
      from ``C`` ("strengthening").

    Candidates come from occurrence lists (Een & Biere, SAT 2005), so
    neither sweep compares all pairs of clauses; the result is the one
    the pairwise sweeps give.  ``guard`` is checked once per clause in
    each sweep.
    """
    guard = ResourceGuard.ensure(guard)
    check = guard.check
    clauses = [frozenset(c) for c in work.matrix]
    changed = False

    # subsumption: shorter clauses first so survivors are minimal.  Each
    # kept clause is listed under its rarest literal; a subsuming kept
    # clause is a subset, so it is listed under some literal of the
    # clause it subsumes.  An empty kept clause subsumes everything.
    counts = work.matrix.literal_occurrences()
    clauses.sort(key=len)
    kept: List[frozenset] = []
    listed: Dict[int, List[frozenset]] = {}
    kept_empty = False
    for clause in clauses:
        check()
        if kept_empty or any(
            other <= clause for lit in clause for other in listed.get(lit, ())
        ):
            stats.clauses_subsumed += 1
            changed = True
            continue
        kept.append(clause)
        if clause:
            listed.setdefault(min(clause, key=counts.__getitem__), []).append(clause)
        else:
            kept_empty = True

    # self-subsuming resolution (one sweep).  Clauses only shrink, so the
    # occurrence lists built up front stay supersets of the live ones.
    occurs: Dict[int, List[int]] = {}
    for i, clause in enumerate(kept):
        for lit in clause:
            occurs.setdefault(lit, []).append(i)
    live = list(kept)
    for i, clause in enumerate(kept):
        check()
        for lit in list(clause):
            rest = clause - {lit}
            # given -lit in other: other - {-lit} <= rest iff other <= rest | {-lit}.
            # Clause i is not listed under -lit: the matrix has no tautologies.
            resolvable = rest | {-lit}
            for j in occurs.get(-lit, ()):
                other = live[j]
                if -lit in other and other <= resolvable:
                    live[i] = clause = rest
                    stats.literals_strengthened += 1
                    changed = True
                    break

    if changed:
        rebuilt = Cnf(num_vars=work.matrix.num_vars)
        for clause in live:
            rebuilt.add_clause(sorted(clause))
        work.matrix = rebuilt
    return changed


# ----------------------------------------------------------------------
# gate detection
# ----------------------------------------------------------------------

def _detect_gates(work: Dqbf, stats: PreprocessStats) -> List[Gate]:
    """Recognize Tseitin-encoded AND/OR/XOR definitions.

    Returns gates in topological order (inputs before outputs) and
    removes their defining clauses from the matrix.
    """
    prefix = work.prefix
    clause_set = set(work.matrix.clauses)

    def canon(lits: Iterable[int]) -> Tuple[int, ...]:
        return tuple(sorted(set(lits), key=lambda l: (var_of(l), l < 0)))

    candidates: List[Tuple[Gate, List[Tuple[int, ...]]]] = []
    used_outputs: Set[int] = set()

    # AND gates of arbitrary arity: clause (g | !l1 | ... | !lk) plus
    # binaries (!g | li).  Scanning each clause, each literal may act as g.
    for clause in work.matrix:
        if len(clause) < 3:
            continue
        for g_lit in clause:
            g = var_of(g_lit)
            if g in used_outputs or not prefix.is_existential(g):
                continue
            inputs = [-lit for lit in clause if lit != g_lit]
            binaries = [canon((-g_lit, lit)) for lit in inputs]
            if all(b in clause_set for b in binaries):
                if not _gate_dependency_ok(prefix, g, inputs):
                    continue
                # g_lit <-> AND(inputs).  Normalize to a positive output.
                if g_lit > 0:
                    gate = Gate(g, "and", inputs)
                else:
                    gate = Gate(g, "or", [-l for l in inputs])
                defining = [canon(clause)] + binaries
                candidates.append((gate, defining))
                used_outputs.add(g)
                break

    # Binary XOR gates: 4-clause pattern.
    xor_seen: Set[int] = set(used_outputs)
    for clause in work.matrix:
        if len(clause) != 3:
            continue
        for g_lit in clause:
            g = var_of(g_lit)
            if g in xor_seen or not prefix.is_existential(g):
                continue
            rest = [lit for lit in clause if lit != g_lit]
            if len(rest) != 2 or any(var_of(l) == g for l in rest):
                continue
            a, b = rest
            # Pattern for g == a xor b (up to input polarities):
            needed = [
                canon((g_lit, a, b)),
                canon((g_lit, -a, -b)),
                canon((-g_lit, a, -b)),
                canon((-g_lit, -a, b)),
            ]
            if all(c in clause_set for c in needed):
                # g_lit | a | b present means: !g_lit -> (a | b) etc.
                # Solving the pattern: g_lit == !(a xor b) == a xnor b.
                inputs = [a, b]
                if not _gate_dependency_ok(prefix, g, inputs):
                    continue
                # g_lit <-> !(a xor b): express with xor by flipping one input.
                if g_lit > 0:
                    gate = Gate(g, "xor", [a, -b])
                else:
                    gate = Gate(g, "xor", [a, b])
                candidates.append((gate, needed))
                xor_seen.add(g)
                used_outputs.add(g)
                break

    accepted = _topologically_consistent(candidates)
    if not accepted:
        return []

    removed: Set[Tuple[int, ...]] = set()
    for _gate, defining in accepted:
        removed.update(defining)
    rebuilt = Cnf(num_vars=work.matrix.num_vars)
    for clause in work.matrix:
        if canon(clause) not in removed:
            rebuilt.add_clause(clause)
    work.matrix = rebuilt
    stats.gates_detected += len(accepted)
    return [gate for gate, _ in accepted]


def _gate_dependency_ok(prefix: DependencyPrefix, output: int, inputs: Sequence[int]) -> bool:
    """Dependency compatibility: the gate function must be computable
    from the output's dependency set."""
    d_out = prefix.dependencies(output)
    for lit in inputs:
        v = var_of(lit)
        if prefix.is_universal(v):
            if v not in d_out:
                return False
        elif prefix.is_existential(v):
            if not prefix.dependencies(v) <= d_out:
                return False
        else:
            return False
    return True


def _topologically_consistent(
    candidates: List[Tuple[Gate, List[Tuple[int, ...]]]]
) -> List[Tuple[Gate, List[Tuple[int, ...]]]]:
    """Greedily keep gates whose definitions form an acyclic hierarchy,
    returned inputs-first so composition can proceed in order."""
    by_output = {gate.output: (gate, defining) for gate, defining in candidates}
    accepted: List[Tuple[Gate, List[Tuple[int, ...]]]] = []
    state: Dict[int, int] = {}  # 0 = visiting, 1 = accepted, -1 = rejected

    def visit(output: int, stack: Set[int]) -> bool:
        if output in state:
            return state[output] == 1
        if output in stack:
            return False
        gate, defining = by_output[output]
        stack.add(output)
        for v in gate.input_vars():
            if v in by_output and not visit(v, stack):
                # An input with a rejected/cyclic definition is fine as a
                # plain variable; only self-cycles poison this gate.
                if v in stack:
                    stack.discard(output)
                    state[output] = -1
                    return False
        stack.discard(output)
        state[output] = 1
        accepted.append((gate, defining))
        return True

    for output in by_output:
        visit(output, set())
    return accepted
