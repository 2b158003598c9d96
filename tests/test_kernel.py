"""Fused AIG kernel: equivalence with independent oracles + caches.

The fused primitives (``restrict``, ``cofactor2``,
``eliminate_universal_fused``) must compute the functions of the
``cofactor`` chains they replace.  HQS's elimination steps are checked
against the theorems themselves, evaluated naively: truth tables from
``Aig.evaluate`` on the *original* matrix (Theorem 1's
``phi[0/x] ∧ phi[1/x][y'/y]``, Theorem 5's substitution of each
unit/pure round), and whole solves against ``expansion_solve``.

The rebuild loops inline the strash step instead of calling
``Aig.land`` per node.  ``TestInlinedStrashOracle`` keeps the per-node
``land`` walks as a reference and pins what the inlining must not
change: returned edges, node arrays, strash table and every counter.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.cnf_bridge import cnf_to_aig
from repro.aig.graph import FALSE, TRUE, Aig, RestrictMemo, complement
from repro.aig.unitpure import detect_unit_pure, find_units
from repro.core.elimination import eliminate_universal
from repro.core.hqs import HqsOptions, HqsSolver
from repro.core.state import AigDqbf
from repro.core.unitpure import UnitPureStats, _apply_round, apply_unit_pure
from repro.formula.dqbf import Dqbf, expansion_solve

from conftest import (
    NUM_VARS,
    aig_scripts,
    build_aig,
    dqbf_strategy,
    random_dqbf,
    requires_numpy,
)


def random_edge(aig: Aig, rng: random.Random, variables, depth: int) -> int:
    if depth == 0 or rng.random() < 0.3:
        edge = aig.var(rng.choice(variables))
        return complement(edge) if rng.random() < 0.5 else edge
    op = rng.choice(["and", "or", "xor"])
    a = random_edge(aig, rng, variables, depth - 1)
    b = random_edge(aig, rng, variables, depth - 1)
    return {"and": aig.land, "or": aig.lor, "xor": aig.lxor}[op](a, b)


def assignments(variables):
    """The full truth table over ``variables`` (at most 10 of them)."""
    variables = sorted(variables)
    assert len(variables) <= 10
    for values in itertools.product([False, True], repeat=len(variables)):
        yield dict(zip(variables, values))


def state_of(formula: Dqbf) -> AigDqbf:
    aig, root = cnf_to_aig(formula.matrix.clauses)
    next_var = max([formula.matrix.num_vars] + formula.prefix.all_variables()) + 1
    return AigDqbf(aig, root, formula.prefix.copy(), next_var)


class TestFusedPrimitives:
    def test_cofactor2_matches_naive_cofactors(self):
        rng = random.Random(1)
        variables = [1, 2, 3, 4, 5]
        for _ in range(40):
            aig = Aig()
            root = random_edge(aig, rng, variables, depth=4)
            var = rng.choice(variables)
            cof0, cof1 = aig.cofactor2(root, var)
            assert cof0 == aig.cofactor(root, var, False)
            assert cof1 == aig.cofactor(root, var, True)

    def test_cofactor2_shares_independent_cone(self):
        aig = Aig()
        a, b, c = aig.var(1), aig.var(2), aig.var(3)
        heavy = aig.land(aig.lor(a, b), aig.lxor(a, b))  # no 3 anywhere
        root = aig.land(heavy, c)
        cof0, cof1 = aig.cofactor2(root, 3)
        assert cof0 == FALSE
        assert cof1 == heavy  # shared verbatim, not rebuilt

    def test_restrict_matches_cofactor_chain(self):
        rng = random.Random(2)
        variables = [1, 2, 3, 4, 5, 6]
        for _ in range(40):
            aig = Aig()
            root = random_edge(aig, rng, variables, depth=4)
            chosen = rng.sample(variables, rng.randint(1, 3))
            assignment = {v: rng.random() < 0.5 for v in chosen}
            fused = aig.restrict(root, assignment)
            naive = root
            for var, value in assignment.items():
                naive = aig.cofactor(naive, var, value)
            assert fused == naive

    def test_restrict_untouched_support_is_identity(self):
        aig = Aig()
        root = aig.land(aig.var(1), aig.var(2))
        assert aig.restrict(root, {7: True, 9: False}) == root
        assert aig.restrict(root, {}) == root

    def test_exists_forall_still_correct(self):
        rng = random.Random(3)
        variables = [1, 2, 3, 4]
        for _ in range(25):
            aig = Aig()
            root = random_edge(aig, rng, variables, depth=3)
            var = rng.choice(variables)
            ex = aig.exists(root, var)
            fa = aig.forall(root, var)
            for assignment in assignments(set(variables) - {var}):
                branches = [
                    aig.evaluate(root, {**assignment, var: value})
                    if root not in (TRUE, FALSE)
                    else root == TRUE
                    for value in (False, True)
                ]
                want_ex = branches[0] or branches[1]
                want_fa = branches[0] and branches[1]
                got_ex = ex == TRUE if ex in (TRUE, FALSE) else aig.evaluate(ex, assignment)
                got_fa = fa == TRUE if fa in (TRUE, FALSE) else aig.evaluate(fa, assignment)
                assert got_ex == want_ex
                assert got_fa == want_fa


class TestFusedElimination:
    @settings(max_examples=40, deadline=None)
    @given(formula=dqbf_strategy())
    def test_theorem1_fused_equals_naive(self, formula):
        """One Theorem-1 step equals the theorem evaluated naively, point
        by point on the original matrix: ``phi[0/x] ∧ phi[1/x][y'/y]``
        with the kernel's copies as the ``y'``."""
        x = formula.prefix.universals[0]
        before = formula.prefix
        original = state_of(formula.copy())
        state = state_of(formula.copy())
        copies = eliminate_universal(state, x)

        # Prefix: x is gone and every copy inherits D_y minus x.
        dependents = before.dependents_of(x)
        assert set(copies) <= set(dependents)
        assert set(state.prefix.universals) == set(before.universals) - {x}
        assert set(state.prefix.existentials) == (
            set(before.existentials) | set(copies.values())
        )
        for y in before.existentials:
            assert state.prefix.dependencies(y) == before.dependencies(y) - {x}
        for y, y_copy in copies.items():
            assert state.prefix.dependencies(y_copy) == before.dependencies(y) - {x}

        support = original.support()
        if x not in support:
            # phi ignores x: the step only drops x from the prefix.
            assert copies == {}
            for assignment in assignments(support):
                assert state.evaluate(assignment) == original.evaluate(assignment)
            return
        # A dependent without a copy gets an unused stand-in, so the
        # oracle also checks that phi[1/x] really ignores it.
        stand_ins = iter(range(state.next_var, state.next_var + len(dependents)))
        primed = {y: copies[y] if y in copies else next(stand_ins) for y in dependents}
        for assignment in assignments((support - {x}) | set(primed.values())):
            renamed = {**assignment, **{y: assignment[primed[y]] for y in dependents}}
            want = original.evaluate({**assignment, x: False}) and original.evaluate(
                {**renamed, x: True}
            )
            assert state.evaluate(assignment) == want

    def test_copies_only_for_occurring_dependents(self):
        # Matrix (x | y2) & (!x | y3): the 1-cofactor is just y3, so only
        # y3 gets a copy even though y2 also depends on x.
        formula = Dqbf.build([1], [(2, [1]), (3, [1])], [[1, 2], [-1, 3]])
        state = state_of(formula)
        copies = eliminate_universal(state, 1)
        assert 2 not in copies
        assert 3 in copies


def theorem5_assignment(prefix, info):
    """Theorem 5's substitution for one detection round: units get their
    forced value, existential pures their polarity, universal pures the
    adverse one.  ``None`` when a quantified universal is a unit."""
    assignment = {}
    for var, forced in info.units.items():
        if prefix.quantifies(var):
            if prefix.is_universal(var):
                return None
            assignment[var] = forced
    for var, polarity in info.pures.items():
        if prefix.quantifies(var):
            assignment[var] = polarity if prefix.is_existential(var) else not polarity
    return assignment


class TestBatchedUnitPure:
    @settings(max_examples=40, deadline=None)
    @given(formula=dqbf_strategy(max_universals=3, max_existentials=3))
    def test_batched_equals_naive(self, formula):
        """Every batched round equals Theorem 5's substitution evaluated
        naively, point by point on the original matrix, and the rounds
        end where :func:`apply_unit_pure` ends."""
        original = state_of(formula.copy())
        state = state_of(formula.copy())
        fixed = {}
        while True:
            outcome = state.is_constant()
            if outcome is not None:
                break
            info = detect_unit_pure(state.aig, state.root)
            if not info:
                break
            assignment = theorem5_assignment(state.prefix, info)
            result = _apply_round(state, info, UnitPureStats())
            if assignment is None:
                assert result is False
                outcome = False
                break
            if not assignment:
                assert result is None
                break
            fixed.update(assignment)
            assert set(state.prefix.universals) == set(formula.prefix.universals) - set(fixed)
            assert set(state.prefix.existentials) == (
                set(formula.prefix.existentials) - set(fixed)
            )
            for values in assignments(original.support() - set(fixed)):
                assert state.evaluate(values) == original.evaluate({**values, **fixed})
        assert apply_unit_pure(state_of(formula.copy()), UnitPureStats()) == outcome

    def test_universal_unit_still_unsat(self):
        # forall x: x & (...)  -> universal unit, immediately UNSAT.
        formula = Dqbf.build([1], [(2, [1])], [[1], [1, 2]])
        state = state_of(formula)
        assert apply_unit_pure(state, UnitPureStats()) is False


class TestSolverEquivalence:
    def test_agrees_with_expansion_oracle(self, rng):
        for _ in range(30):
            formula = random_dqbf(rng)
            expected = expansion_solve(formula.copy())
            result = HqsSolver().solve(formula.copy())
            assert result.solved
            assert (result.status == "SAT") == expected, (
                f"HQS disagrees with oracle on {formula!r}"
            )


class TestKernelStats:
    def test_solve_result_has_kernel_counters(self, rng):
        # Preprocessing off so the AIG kernel is guaranteed to run.
        formula = random_dqbf(rng)
        result = HqsSolver(HqsOptions(use_preprocessing=False)).solve(formula.copy())
        for key in (
            "kernel_rebuild_passes",
            "kernel_fused_passes",
            "kernel_nodes_visited",
            "kernel_nodes_shared",
            "kernel_strash_lookups",
            "kernel_strash_hits",
            "kernel_strash_hit_rate",
            "kernel_support_cache_hit_rate",
            "kernel_unitpure_cache_hit_rate",
        ):
            assert key in result.stats, f"missing {key}"
        assert 0.0 <= result.stats["kernel_strash_hit_rate"] <= 1.0

    def test_trace_mentions_kernel(self, rng):
        solver = HqsSolver(HqsOptions(use_preprocessing=False), trace=True)
        solver.solve(random_dqbf(rng).copy())
        assert any("kernel" in line for line in solver.trace)

    def test_sat_service_counters_exported(self, rng):
        formula = random_dqbf(rng)
        result = HqsSolver(HqsOptions(use_preprocessing=False)).solve(formula.copy())
        for key in (
            "sat_queries",
            "sat_conflicts",
            "sat_clauses_encoded",
            "sat_encode_cache_hits",
            "sat_learnts_reused",
            "sat_counterexamples",
            "sat_rebinds",
        ):
            assert key in result.stats, f"missing {key}"


class TestMetadataCache:
    def test_support_of_matches_naive_support(self):
        rng = random.Random(6)
        variables = [1, 2, 3, 4, 5]
        for _ in range(25):
            aig = Aig()
            root = random_edge(aig, rng, variables, depth=4)
            want = {
                aig._input_label[n]
                for n in aig.cone_nodes(root)
                if aig.is_input(n)
            }
            assert aig.support_of(root) == frozenset(want)
            # second query is a pure cache hit
            before = aig.counters.support_cache_misses
            assert aig.support_of(root) == frozenset(want)
            assert aig.counters.support_cache_misses == before

    def test_level_of(self):
        aig = Aig()
        a, b, c = aig.var(1), aig.var(2), aig.var(3)
        assert aig.level_of(a) == 0
        ab = aig.land(a, b)
        assert aig.level_of(ab) == 1
        assert aig.level_of(aig.land(ab, c)) == 2
        assert aig.level_of(FALSE) == 0

    def test_extract_bumps_generation_and_keeps_counters(self):
        aig = Aig()
        root = aig.land(aig.var(1), aig.var(2))
        aig.support_of(root)
        generation = aig.cache_generation
        counters = aig.counters
        fresh, (new_root,) = aig.extract([root])
        assert fresh.cache_generation == generation + 1
        assert fresh.counters is counters  # shared accounting
        assert fresh.support_of(new_root) == frozenset({1, 2})

    def test_invalidate_caches(self):
        aig = Aig()
        root = aig.land(aig.var(1), aig.var(2))
        assert aig.support_of(root) == frozenset({1, 2})
        generation = aig.cache_generation
        aig.invalidate_caches()
        assert aig.cache_generation == generation + 1
        assert aig.support_of(root) == frozenset({1, 2})

    def test_matrix_size_cache_invalidated_on_root_change(self):
        formula = Dqbf.build([1], [(2, [1])], [[1, 2], [-1, 2]])
        state = state_of(formula)
        first = state.matrix_size()
        assert state.matrix_size() == first  # memoized
        state.root = state.aig.cofactor(state.root, 1, True)
        assert state.matrix_size() == state.aig.cone_size(state.root)
        state.root = TRUE
        assert state.matrix_size() == 0


# ---------------------------------------------------------------------------
# Reference walks: the per-node ``Aig.land`` loops that the inlined rebuild
# kernels replaced.  The share test is the python backend's support-set test
# or the numpy backend's dependency mask, read exactly as before, so the
# support-cache counters are pinned too.
# ---------------------------------------------------------------------------


def ref_cone_nodes(aig, root):
    seen = set()
    order = []
    stack = [root >> 1]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        if aig.is_and(node):
            f0, f1 = aig.fanins(node)
            pending = [n for n in (f0 >> 1, f1 >> 1) if n not in seen]
            if pending:
                stack.append(node)
                stack.extend(pending)
                continue
        seen.add(node)
        order.append(node)
    return order


def ref_rebuild(aig, roots, leaf_map, target=None):
    target = target if target is not None else aig
    aig.counters.rebuild_passes += 1
    cache = {0: FALSE}
    for root in roots:
        for node in ref_cone_nodes(aig, root):
            if node in cache:
                continue
            aig.counters.nodes_visited += 1
            if aig.is_input(node):
                label = aig.input_label(node)
                cache[node] = leaf_map[label] if label in leaf_map else target.var(label)
            else:
                f0, f1 = aig.fanins(node)
                cache[node] = target.land(
                    cache[f0 >> 1] ^ (f0 & 1), cache[f1 >> 1] ^ (f1 & 1)
                )
    return [cache[r >> 1] ^ (r & 1) for r in roots]


def ref_extract(aig, roots):
    fresh = Aig(backend=aig.backend)
    fresh.counters = aig.counters
    fresh.cache_generation = aig.cache_generation + 1
    return fresh, ref_rebuild(aig, roots, {}, target=fresh)


def ref_shared(aig, labels):
    """``shared(node)``: the cone of ``node`` misses every label."""
    if aig.backend == "numpy":
        depends = aig._np.depends_mask(labels)
        return lambda node: not depends[node]
    labels = frozenset(labels)
    return lambda node: aig.support_of(node << 1).isdisjoint(labels)


def ref_restrict(aig, root, assignment):
    if root < 2 or not assignment:
        return root
    shared = ref_shared(aig, frozenset(assignment))
    if shared(root >> 1):
        return root
    counters = aig.counters
    counters.fused_passes += 1
    cache = {0: FALSE}
    stack = [root >> 1]
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        if shared(node):
            cache[node] = node << 1
            counters.nodes_shared += 1
            stack.pop()
            continue
        if aig.is_input(node):
            cache[node] = TRUE if assignment[aig.input_label(node)] else FALSE
            counters.nodes_visited += 1
            stack.pop()
            continue
        f0, f1 = aig.fanins(node)
        r0, r1 = cache.get(f0 >> 1), cache.get(f1 >> 1)
        if r0 is None or r1 is None:
            if r0 is None:
                stack.append(f0 >> 1)
            if r1 is None:
                stack.append(f1 >> 1)
            continue
        cache[node] = aig.land(r0 ^ (f0 & 1), r1 ^ (f1 & 1))
        counters.nodes_visited += 1
        stack.pop()
    return cache[root >> 1] ^ (root & 1)


def restrict_memo_trail(backend, script, variables, values):
    """Replay ``values`` as successive restrictions of one root on twin
    managers, plainly and through one :class:`RestrictMemo`."""
    plain, root = build_aig(script, backend)
    memoized, twin_root = build_aig(script, backend)
    assert root == twin_root
    memo = RestrictMemo()
    for bits in values:
        assignment = dict(zip(variables, bits))
        want = plain.restrict(root, assignment)
        got = memoized.restrict(root, assignment, memo)
        yield got, want, node_state(memoized)[:5], node_state(plain)[:5]


class TestRestrictMemo:
    """A memoized ``restrict`` redoes only what changed, and its edges and
    appended nodes are exactly those of plain calls."""

    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("numpy", marks=requires_numpy)]
    )
    @settings(max_examples=60, deadline=None)
    @given(
        script=aig_scripts(),
        variables=st.lists(
            st.integers(min_value=1, max_value=NUM_VARS), min_size=1, max_size=4, unique=True
        ),
        data=st.data(),
    )
    def test_matches_plain_calls(self, backend, script, variables, data):
        values = data.draw(
            st.lists(
                st.tuples(*[st.booleans() for _ in variables]), min_size=1, max_size=8
            )
        )
        for step, (got, want, got_nodes, want_nodes) in enumerate(
            restrict_memo_trail(backend, script, variables, values)
        ):
            assert got == want, f"call {step} returned a different edge"
            assert got_nodes == want_nodes, f"call {step} appended different nodes"

    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("numpy", marks=requires_numpy)]
    )
    def test_third_call_reads_what_the_second_skipped(self, backend):
        # root = !(x2 & x3) & !(x1 & x4), restricted on x1, x2, x3.  The
        # second call changes only x1: it rebuilds (x1 & x4) and the root
        # and reuses (x2 & x3).  The third changes x2, so it rebuilds
        # (x2 & x3) from the constant for x3, which only the first call
        # computed, and the root from the second call's (x1 & x4).
        script = [(1, 2, False, False), (0, 3, False, False), (6, 7, True, True)]
        variables = [1, 2, 3]
        values = [(False, False, False), (True, False, False), (True, True, False)]
        for got, want, got_nodes, want_nodes in restrict_memo_trail(
            backend, script, variables, values
        ):
            assert got == want
            assert got_nodes == want_nodes
        aig, root = build_aig(script, backend)
        memo = RestrictMemo()
        for bits in values[:2]:
            aig.restrict(root, dict(zip(variables, bits)), memo)
        before = aig.counters.nodes_visited
        aig.restrict(root, dict(zip(variables, values[2])), memo)
        # x2, (x2 & x3) and the root; x3 and the x1 side are reused
        assert aig.counters.nodes_visited - before == 3

    def test_memo_is_tied_to_root_and_variables(self):
        aig = Aig()
        x, y, z = aig.var(1), aig.var(2), aig.var(3)
        root = aig.land(x, aig.lor(y, z))
        memo = RestrictMemo()
        aig.restrict(root, {1: True}, memo)
        with pytest.raises(ValueError):
            aig.restrict(root, {2: True}, memo)
        with pytest.raises(ValueError):
            aig.restrict(aig.land(y, z), {1: True}, memo)


def ref_cofactor2(aig, root, var):
    if root < 2:
        return root, root
    shared = ref_shared(aig, (var,))
    if shared(root >> 1):
        return root, root
    counters = aig.counters
    counters.fused_passes += 1
    cache = {0: (FALSE, FALSE)}
    stack = [root >> 1]
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        if shared(node):
            cache[node] = (node << 1, node << 1)
            counters.nodes_shared += 1
            stack.pop()
            continue
        if aig.is_input(node):
            cache[node] = (FALSE, TRUE)
            counters.nodes_visited += 1
            stack.pop()
            continue
        f0, f1 = aig.fanins(node)
        p0, p1 = cache.get(f0 >> 1), cache.get(f1 >> 1)
        if p0 is None or p1 is None:
            if p0 is None:
                stack.append(f0 >> 1)
            if p1 is None:
                stack.append(f1 >> 1)
            continue
        c0, c1 = f0 & 1, f1 & 1
        cache[node] = (
            aig.land(p0[0] ^ c0, p1[0] ^ c1),
            aig.land(p0[1] ^ c0, p1[1] ^ c1),
        )
        counters.nodes_visited += 1
        stack.pop()
    e0, e1 = cache[root >> 1]
    return e0 ^ (root & 1), e1 ^ (root & 1)


def ref_eliminate(aig, root, var, dependents, fresh):
    dependents = frozenset(dependents)
    if root < 2:
        return root, root, {}
    if aig.backend == "numpy":
        dep_var, dep_rel = aig._np.depends_mask2(var, dependents)

        def classify(node):
            return dep_rel[node], dep_var[node]

    else:
        relevant = dependents | {var}

        def classify(node):
            support = aig.support_of(node << 1)
            return not support.isdisjoint(relevant), var in support

    if not classify(root >> 1)[1]:
        return root, root, {}
    counters = aig.counters
    counters.fused_passes += 1
    copies = {}
    cache = {0: (FALSE, FALSE)}
    stack = [root >> 1]
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        touches_rel, touches_var = classify(node)
        if not touches_rel:
            cache[node] = (node << 1, node << 1)
            counters.nodes_shared += 1
            stack.pop()
            continue
        if aig.is_input(node):
            label = aig.input_label(node)
            if label == var:
                cache[node] = (FALSE, TRUE)
            else:
                if label not in copies:
                    copies[label] = fresh()
                cache[node] = (node << 1, aig.var(copies[label]))
            counters.nodes_visited += 1
            stack.pop()
            continue
        f0, f1 = aig.fanins(node)
        p0, p1 = cache.get(f0 >> 1), cache.get(f1 >> 1)
        if p0 is None or p1 is None:
            if p0 is None:
                stack.append(f0 >> 1)
            if p1 is None:
                stack.append(f1 >> 1)
            continue
        c0, c1 = f0 & 1, f1 & 1
        if touches_var:
            e0 = aig.land(p0[0] ^ c0, p1[0] ^ c1)
        else:
            e0 = node << 1
            counters.nodes_shared += 1
        cache[node] = (e0, aig.land(p0[1] ^ c0, p1[1] ^ c1))
        counters.nodes_visited += 1
        stack.pop()
    e0, e1 = cache[root >> 1]
    cofactor0, cofactor1 = e0 ^ (root & 1), e1 ^ (root & 1)
    if copies:
        if cofactor1 < 2:
            survivors = frozenset()
        elif aig.backend == "numpy":
            survivors = aig._np.cone_support(cofactor1 >> 1)
        else:
            survivors = aig.support_of(cofactor1)
        copies = {y: y2 for y, y2 in copies.items() if y2 in survivors}
    return cofactor0, cofactor1, copies


def ref_find_units(aig, root):
    units = {}
    if root in (TRUE, FALSE):
        return units
    node = root >> 1
    if root & 1:
        if aig.is_input(node):
            units[aig.input_label(node)] = False
        return units
    stack = [node]
    seen = set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if aig.is_input(node):
            units[aig.input_label(node)] = True
            continue
        if not aig.is_and(node):
            continue
        for fanin in aig.fanins(node):
            child = fanin >> 1
            if fanin & 1:
                if aig.is_input(child):
                    units[aig.input_label(child)] = False
            else:
                stack.append(child)
    return units


INLINED = {
    "cone_nodes": Aig.cone_nodes,
    "rebuild": Aig.rebuild,
    "extract": Aig.extract,
    "restrict": Aig.restrict,
    "cofactor2": Aig.cofactor2,
    "eliminate": Aig.eliminate_universal_fused,
    "find_units": find_units,
}
REFERENCE = {
    "cone_nodes": ref_cone_nodes,
    "rebuild": ref_rebuild,
    "extract": ref_extract,
    "restrict": ref_restrict,
    "cofactor2": ref_cofactor2,
    "eliminate": ref_eliminate,
    "find_units": ref_find_units,
}


def node_state(aig):
    """Everything the inlined kernels may touch, compared verbatim."""
    return (
        list(aig._fanin0),
        list(aig._fanin1),
        list(aig._level),
        list(aig._input_label),
        dict(aig._strash),
        aig.counters.as_dict(),
    )


def kernel_trail(kernels, backend, script, var, other):
    """Run one op sequence; record every result and the state after it."""
    aig, root = build_aig(script, backend)
    fresh = iter(range(100, 200))
    dependents = [v for v in range(1, NUM_VARS + 1) if v != var][:3]
    trail = []

    def record(result, manager=aig):
        trail.append((result, node_state(manager)))
        return result

    record(kernels["cone_nodes"](aig, root))
    restricted = record(kernels["restrict"](aig, root, {var: True, other: False}))
    cof0, cof1 = record(kernels["cofactor2"](aig, root, var))
    elim0, elim1, _copies = record(
        kernels["eliminate"](aig, root, var, dependents, lambda: next(fresh))
    )
    record(kernels["cofactor2"](aig, elim1, other))
    record(kernels["rebuild"](aig, [root, cof1], {var: aig.var(other) ^ 1}))
    for edge in (root, restricted, cof0, cof1, elim0, elim1):
        record(kernels["find_units"](aig, edge))
    compact, roots = kernels["extract"](aig, [root, cof0, elim1])
    record(roots, compact)
    record(kernels["cofactor2"](compact, roots[0], var), compact)
    return trail


class TestInlinedStrashOracle:
    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("numpy", marks=requires_numpy)]
    )
    @settings(max_examples=60, deadline=None)
    @given(
        script=aig_scripts(),
        var=st.integers(min_value=1, max_value=NUM_VARS),
        other=st.integers(min_value=1, max_value=NUM_VARS),
    )
    def test_same_edges_nodes_strash_and_counters(self, backend, script, var, other):
        inlined = kernel_trail(INLINED, backend, script, var, other)
        reference = kernel_trail(REFERENCE, backend, script, var, other)
        assert len(inlined) == len(reference)
        for step, (got, want) in enumerate(zip(inlined, reference)):
            assert got == want, f"step {step} diverged from the land-based walk"
