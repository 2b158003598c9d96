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

from typing import Dict, List, Optional, Sequence, Set, Tuple

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
    """Apply generalized universal reduction to every clause.

    A clause without a universal literal is kept as it is; only a clause
    with one looks at its existentials' dependency sets.
    """
    universals = work.prefix.universal_set
    dependencies = work.prefix.dependency_map
    new_clauses: List[Tuple[int, ...]] = []
    changed = False
    for clause in work.matrix:
        if universals.isdisjoint(map(abs, clause)):
            if not clause:
                return "UNSAT"
            new_clauses.append(clause)
            continue
        visible = [dependencies[v] for v in map(abs, clause) if v in dependencies]
        kept = tuple(
            lit for lit in clause
            if abs(lit) not in universals or any(abs(lit) in deps for deps in visible)
        )
        if len(kept) < len(clause):
            changed = True
            stats.universal_reductions += len(clause) - len(kept)
        if not kept:
            return "UNSAT"
        new_clauses.append(kept)
    if changed:
        rebuilt = Cnf(num_vars=work.matrix.num_vars)
        for clause in new_clauses:
            rebuilt.add_canonical(clause)
        work.matrix = rebuilt
    return changed


def _substitute_one_equivalence(work: Dqbf, stats: PreprocessStats) -> bool:
    """Find one dependency-compatible variable equivalence and apply it.

    Clauses ``(l1 | l2)`` and ``(!l1 | !l2)`` together force ``l1 == !l2``
    — this single pattern covers both ``a == b`` (via complementary
    literal polarities) and ``a == !b``.
    """
    clause_set = work.matrix.clause_set
    binary = {c for c in work.matrix if len(c) == 2}
    for clause in binary:
        l1, l2 = clause
        # Negating both literals keeps the variable order: still canonical.
        if (-l1, -l2) in clause_set and _apply_equivalence(work, l1, -l2, stats):
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
        if drop not in clause and -drop not in clause:
            rebuilt.add_canonical(clause)
            continue
        # The replacement moves a literal in the variable order (and may
        # duplicate or complement another): normalize this clause again.
        rebuilt.add_clause(
            (replacement if lit > 0 else -replacement) if var_of(lit) == drop else lit
            for lit in clause
        )
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
    changed = False

    # subsumption: shorter clauses first so survivors are minimal.  Each
    # kept clause is listed under its rarest literal; a subsuming kept
    # clause is a subset, so it is listed under some literal of the
    # clause it subsumes.  A clause of the same length subsumes only an
    # equal one, so the kept clauses of the current length are held in
    # ``same_length`` and listed once that length is finished.  An empty
    # kept clause subsumes everything.
    rarity = work.matrix.literal_occurrences().__getitem__
    kept: List[frozenset] = []
    kept_tuples: List[Tuple[int, ...]] = []
    listed: Dict[int, List[frozenset]] = {}
    same_length: Dict[frozenset, None] = {}
    length = -1
    kept_empty = False
    for tup in sorted(work.matrix, key=len):
        check()
        if len(tup) != length:
            for clause in same_length:
                listed.setdefault(min(clause, key=rarity), []).append(clause)
            same_length = {}
            length = len(tup)
        clause = frozenset(tup)
        if kept_empty or clause in same_length or (listed and any(
            other <= clause for lit in tup for other in listed.get(lit, ())
        )):
            stats.clauses_subsumed += 1
            changed = True
            continue
        kept.append(clause)
        kept_tuples.append(tup)
        if clause:
            same_length[clause] = None
        else:
            kept_empty = True

    # self-subsuming resolution (one sweep).  Clauses only shrink, so the
    # occurrence lists built up front stay supersets of the live ones.
    # They run in ascending length, so until a clause shrinks the scan of
    # a list can stop at the first clause longer than the one resolved.
    occurs: Dict[int, List[int]] = {}
    for i, clause in enumerate(kept):
        for lit in clause:
            occurs.setdefault(lit, []).append(i)
    live = list(kept)
    shrunk = False
    for i, original in enumerate(kept):
        check()
        clause = original
        for lit in original:
            # given -lit in other: other - {-lit} <= clause - {lit} iff
            # other <= clause ^ {lit, -lit}, which needs len(other) <= len(clause).
            # Clause i is not listed under -lit: the matrix has no tautologies.
            resolvable = None
            size = len(clause)
            for j in occurs.get(-lit, ()):
                other = live[j]
                if len(other) > size:
                    if shrunk:
                        continue
                    break
                if -lit not in other:
                    continue
                if resolvable is None:
                    resolvable = clause ^ {lit, -lit}
                if other <= resolvable:
                    live[i] = clause = clause - {lit}
                    stats.literals_strengthened += 1
                    changed = shrunk = True
                    break

    if changed:
        # Unchanged clauses keep their canonical tuple; strengthened ones
        # are sorted again.
        rebuilt = Cnf(num_vars=work.matrix.num_vars)
        for clause, original, tup in zip(live, kept, kept_tuples):
            rebuilt.add_canonical(tup if clause is original else tuple(sorted(clause, key=abs)))
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
    dependencies = prefix.dependency_map
    matrix = work.matrix
    clause_set = matrix.clause_set
    # partners[l]: the literals m with a binary clause (l | m)
    partners: Dict[int, Set[int]] = {}
    for clause in matrix:
        if len(clause) == 2:
            a, b = clause
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)

    candidates: List[Tuple[Gate, List[Tuple[int, ...]]]] = []
    used_outputs: Set[int] = set()

    # AND gates of arbitrary arity: clause (g | !l1 | ... | !lk) plus
    # binaries (!g | li).  Scanning each clause, each literal may act as g.
    for clause in matrix:
        if len(clause) < 3:
            continue
        for g_lit in clause:
            g = abs(g_lit)
            if g in used_outputs or g not in dependencies:
                continue
            mates = partners.get(-g_lit)
            if mates is None or len(mates) < len(clause) - 1:
                continue
            inputs = [-lit for lit in clause if lit != g_lit]
            if all(lit in mates for lit in inputs):
                if not _gate_dependency_ok(prefix, g, inputs):
                    continue
                # g_lit <-> AND(inputs).  Normalize to a positive output.
                if g_lit > 0:
                    gate = Gate(g, "and", inputs)
                else:
                    gate = Gate(g, "or", [-l for l in inputs])
                binaries = [
                    (-g_lit, lit) if g < abs(lit) else (lit, -g_lit) for lit in inputs
                ]
                candidates.append((gate, [clause] + binaries))
                used_outputs.add(g)
                break

    # Binary XOR gates: 4-clause pattern, the clause and its three
    # variants with two literals negated (negation keeps them canonical).
    xor_seen: Set[int] = set(used_outputs)
    for clause in matrix:
        if len(clause) != 3:
            continue
        l0, l1, l2 = clause
        needed = [clause, (l0, -l1, -l2), (-l0, l1, -l2), (-l0, -l1, l2)]
        if not all(c in clause_set for c in needed[1:]):
            continue
        for g_lit in clause:
            g = abs(g_lit)
            if g in xor_seen or g not in dependencies:
                continue
            # g_lit | a | b present means: !g_lit -> (a | b) etc.
            # Solving the pattern: g_lit == !(a xor b) == a xnor b.
            a, b = [lit for lit in clause if lit != g_lit]
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
    rebuilt = Cnf(num_vars=matrix.num_vars)
    for clause in matrix:
        if clause not in removed:
            rebuilt.add_canonical(clause)
    work.matrix = rebuilt
    stats.gates_detected += len(accepted)
    return [gate for gate, _ in accepted]


def _gate_dependency_ok(prefix: DependencyPrefix, output: int, inputs: Sequence[int]) -> bool:
    """Dependency compatibility: the gate function must be computable
    from the output's dependency set."""
    universals = prefix.universal_set
    dependencies = prefix.dependency_map
    d_out = dependencies[output]
    for lit in inputs:
        v = abs(lit)
        if v in universals:
            if v not in d_out:
                return False
        else:
            deps = dependencies.get(v)
            # interned sets: equal sets are usually the same object
            if deps is None or not (deps is d_out or deps <= d_out):
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
