"""Tests for the incremental SAT service (`repro.sat.incremental`).

The property tests pin the session's verdicts to the fresh-solver
reference path (``aig_to_cnf`` + a throwaway ``CdclSolver``) and to
exhaustive evaluation, across interleaved query kinds, rebinds and
counterexample-refined FRAIG sweeps.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.cnf_bridge import aig_to_cnf, cnf_to_aig
from repro.aig.fraig import FraigEngine, FraigOptions, fraig_root
from repro.aig.graph import FALSE, TRUE, Aig, complement
from repro.errors import TimeoutExceeded
from repro.sat.incremental import AigSatSession
from repro.sat.solver import SAT, CdclSolver

from test_aig_graph import random_edge


def fresh_is_satisfiable(aig, root):
    """Reference implementation: throwaway Tseitin + throwaway solver."""
    if root == FALSE:
        return False
    if root == TRUE:
        return True
    cnf, root_lit, _ = aig_to_cnf(aig, root)
    solver = CdclSolver()
    solver.add_clauses(cnf.clauses)
    solver.add_clause([root_lit])
    return solver.solve() == SAT


def exhaustive_equivalent(aig, a, b, variables):
    def value(edge, assignment):
        if edge == TRUE:
            return True
        if edge == FALSE:
            return False
        return aig.evaluate(edge, assignment)

    for values in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if value(a, assignment) != value(b, assignment):
            return False
    return True


class TestSessionMatchesFreshSolver:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_interleaved_queries_match_reference(self, seed):
        """Miter/constant/implication verdicts are identical to the
        fresh-solver path, with every query sharing one session."""
        rng = random.Random(seed)
        aig = Aig()
        variables = [1, 2, 3, 4]
        edges = [random_edge(aig, rng, variables, 3) for _ in range(4)]
        session = AigSatSession(aig)
        for e in edges:
            assert session.is_satisfiable(e) == fresh_is_satisfiable(aig, e)
            assert session.is_tautology(e) == (
                not fresh_is_satisfiable(aig, complement(e))
            )
        for a, b in itertools.combinations(edges, 2):
            expected = exhaustive_equivalent(aig, a, b, variables)
            assert session.equivalent(a, b) == expected
            implied = not fresh_is_satisfiable(aig, aig.land(a, complement(b)))
            assert session.implies(a, b) == implied

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_verdicts_survive_rebind(self, seed):
        """After compaction the rebound session answers identically."""
        rng = random.Random(seed)
        aig = Aig()
        variables = [1, 2, 3]
        a = random_edge(aig, rng, variables, 3)
        b = random_edge(aig, rng, variables, 3)
        session = AigSatSession(aig)
        before_sat = session.is_satisfiable(a)
        before_eq = session.equivalent(a, b)
        compact, (a2, b2) = aig.extract([a, b])
        session.rebind(compact)
        assert session.is_satisfiable(a2) == before_sat
        assert session.equivalent(a2, b2) == before_eq
        assert session.stats.rebinds == 1
        assert session.stats.solver_resets == 0  # the solver is kept

    def test_lazy_encoding_is_incremental(self):
        """A second query on an overlapping cone encodes only new nodes."""
        aig = Aig()
        x, y, z = aig.var(1), aig.var(2), aig.var(3)
        inner = aig.land(x, y)
        session = AigSatSession(aig)
        session.is_satisfiable(inner)
        encoded_before = session.stats.nodes_encoded
        outer = aig.land(inner, z)
        session.is_satisfiable(outer)
        # inner cone (3 nodes) is reused; only the outer AND and z are new
        assert session.stats.nodes_encoded == encoded_before + 2
        assert session.stats.encode_cache_hits > 0

    def test_deadline_raises(self):
        import time

        from test_sat_solver import php_clauses

        aig, root = cnf_to_aig(php_clauses(8))
        session = AigSatSession(aig)
        with pytest.raises(TimeoutExceeded):
            session.is_satisfiable(root, deadline=time.monotonic() - 1)

    def test_refuted_equivalence_exposes_model(self):
        aig = Aig()
        x, y = aig.var(1), aig.var(2)
        session = AigSatSession(aig)
        assert session.equivalent(x, y) is False
        cex = session.model_inputs()
        assert aig.evaluate(x, {1: cex.get(1, False), 2: cex.get(2, False)}) != \
            aig.evaluate(y, {1: cex.get(1, False), 2: cex.get(2, False)})

    def test_max_clauses_triggers_reset_on_rebind(self):
        aig = Aig()
        edges = [aig.land(aig.var(i), aig.var(i + 1)) for i in range(1, 8)]
        session = AigSatSession(aig, max_clauses=5)
        for e in edges:
            session.is_satisfiable(e)
        compact, _ = aig.extract(edges)
        session.rebind(compact)
        assert session.stats.solver_resets == 1


def edge_value(aig, edge, assignment):
    if edge in (FALSE, TRUE):
        return edge == TRUE
    return aig.evaluate(edge, assignment)


def brute_force_sat(aig, edge, variables):
    return any(
        edge_value(aig, edge, dict(zip(variables, values)))
        for values in itertools.product([False, True], repeat=len(variables))
    )


class TestScopedQueries:
    """Every session query decides only inside its roots' cones, so a SAT
    answer leaves the rest of the solver unassigned.  The cone's input
    values must still witness the query, and UNSAT must stay exact."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 6))
    def test_models_witness_and_refutations_are_exact(self, seed, num_inputs):
        rng = random.Random(seed)
        aig = Aig()
        variables = list(range(1, num_inputs + 1))
        edges = [random_edge(aig, rng, variables, 4) for _ in range(4)]
        # Restricted copies pile variables into the one solver that no
        # single query's cone contains.
        for edge in list(edges):
            for _ in range(3):
                picked = rng.sample(variables, rng.randint(1, 2))
                edges.append(aig.restrict(edge, {v: rng.random() < 0.5 for v in picked}))
        session = AigSatSession(aig)

        def model():
            inputs = session.model_inputs()
            return {v: inputs.get(v, False) for v in variables}

        # Every cone is encoded first, so later queries run on a solver
        # holding all of them.
        queries = [("sat", edge, edge) for edge in edges]
        for _ in range(30):
            kind = rng.choice(["sat", "implies", "equivalent"])
            queries.append((kind, rng.choice(edges), rng.choice(edges)))
        for kind, a, b in queries:
            if kind == "sat":
                if session.is_satisfiable(a):
                    assert edge_value(aig, a, model())
                else:
                    assert not brute_force_sat(aig, a, variables)
            elif kind == "implies":
                if session.implies(a, b):
                    assert not brute_force_sat(aig, aig.land(a, complement(b)), variables)
                else:
                    witness = model()
                    assert edge_value(aig, a, witness)
                    assert not edge_value(aig, b, witness)
            elif session.equivalent(a, b):
                assert exhaustive_equivalent(aig, a, b, variables)
            else:
                witness = model()
                assert edge_value(aig, a, witness) != edge_value(aig, b, witness)


class TestFraigWithSession:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_sweep_preserves_function(self, seed, refine):
        """`fraig_root` output is functionally equivalent with and
        without counterexample refinement (exhaustive cross-check)."""
        rng = random.Random(seed)
        aig = Aig()
        variables = [1, 2, 3, 4]
        e = random_edge(aig, rng, variables, 4)
        options = FraigOptions(num_patterns=8, use_counterexamples=refine)
        reduced, new_root = fraig_root(aig, e, options)
        for values in itertools.product([False, True], repeat=4):
            assignment = dict(zip(variables, values))
            original = e == TRUE if e in (TRUE, FALSE) else aig.evaluate(e, assignment)
            swept = (
                new_root == TRUE
                if new_root in (TRUE, FALSE)
                else reduced.evaluate(new_root, assignment)
            )
            assert original == swept

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_sweep_bitparallel_crosscheck(self, seed):
        """Bit-parallel simulation agrees between original and swept cone."""
        from repro.aig.fraig import simulate
        from repro.aig.graph import node_of

        rng = random.Random(seed)
        aig = Aig()
        variables = [1, 2, 3, 4, 5]
        e = random_edge(aig, rng, variables, 4)
        if e in (TRUE, FALSE):
            return
        reduced, new_root = fraig_root(aig, e, FraigOptions(num_patterns=4))
        if new_root in (TRUE, FALSE):
            return
        width = 16
        patterns = {v: rng.getrandbits(width) for v in variables}
        mask = (1 << width) - 1
        original = simulate(aig, e, patterns, width)[node_of(e)]
        original ^= mask if e & 1 else 0
        swept = simulate(reduced, new_root, patterns, width)[node_of(new_root)]
        swept ^= mask if new_root & 1 else 0
        assert original == swept

    def test_counterexamples_cut_sat_calls_on_collisions(self):
        """Regression for the CEGAR fix on a crafted signature-collision
        instance: with one simulation pattern, width-1 words are always
        canonically zero, so every AND node of the OR-chain collides into
        one class and the sweeper pays a refuted SAT call per node.

        Within a single sweep both schemes pay about one call per
        collision — the difference is that absorbed counterexamples stay
        in the pattern words, so the *next* sweep (HQS sweeps at every
        fraig interval) starts with distinguishing signatures and skips
        the refutations, while the signature-only scheme re-collides and
        re-pays every round.  The regression asserts that total SAT
        calls over two sweeps are strictly fewer with absorption."""

        def build():
            aig = Aig()
            chain = []
            for i in range(1, 9):
                chain.append(aig.lor(aig.var(i), aig.var(i + 1)))
            root = aig.land_many(chain)
            return aig, root

        queries = {}
        second_round = {}
        for refine in (False, True):
            aig, root = build()
            session = AigSatSession(aig)
            engine = FraigEngine(
                FraigOptions(num_patterns=1, seed=7, use_counterexamples=refine)
            )
            swept, new_root = engine.sweep(aig, root, session=session)
            after_first = session.stats.queries
            # sanity: sweeping must preserve the function
            for values in itertools.product([False, True], repeat=9):
                assignment = dict(zip(range(1, 10), values))
                assert aig.evaluate(root, assignment) == swept.evaluate(
                    new_root, assignment
                )
            engine.sweep(swept, new_root, session=session)
            queries[refine] = session.stats.queries
            second_round[refine] = session.stats.queries - after_first
        # the second refined sweep needs (almost) no SAT calls, while the
        # signature-only sweeper re-pays its collisions
        assert second_round[True] < second_round[False], second_round
        assert queries[True] < queries[False], queries

    def test_engine_reuses_simulation_words_across_rounds(self):
        """Sweeping the manager produced by the previous sweep only
        simulates nodes appended since."""
        aig = Aig()
        root = aig.land(aig.lor(aig.var(1), aig.var(2)), aig.var(3))
        engine = FraigEngine(FraigOptions(num_patterns=8))
        swept, new_root = engine.sweep(aig, root)
        # grow the swept manager, as HQS elimination rounds do
        grown = swept.land(new_root, swept.var(9))
        assert engine._sim_aig is swept
        cached = dict(engine._sim_words)
        engine.sweep(swept, grown)
        # all previously simulated nodes were served from the cache
        for node, word in cached.items():
            assert engine._sim_words.get(node, word) is not None
        assert engine.sweeps == 2

    def test_patterns_persist_across_sweeps(self):
        """Absorbed counterexample bits keep splitting classes in later
        sweeps: the second sweep of an isomorphic cone needs no new SAT
        refutations beyond what the first sweep already paid."""
        def build():
            aig = Aig()
            chain = [aig.lor(aig.var(i), aig.var(i + 1)) for i in range(1, 7)]
            return aig, aig.land_many(chain)

        engine = FraigEngine(FraigOptions(num_patterns=1, seed=7))
        aig1, root1 = build()
        session1 = AigSatSession(aig1)
        engine.sweep(aig1, root1, session=session1)
        first_absorbed = engine.counterexamples_absorbed
        assert first_absorbed > 0
        aig2, root2 = build()
        session2 = AigSatSession(aig2)
        engine.sweep(aig2, root2, session=session2)
        # the patterns learned in round one distinguish the classes of the
        # isomorphic cone: no (or strictly fewer) new refutations needed
        assert engine.counterexamples_absorbed - first_absorbed < first_absorbed
        assert session2.stats.queries <= session1.stats.queries


class TestAigToCnfNodeMap:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_node_map_matches_encoding(self, seed):
        """The returned node map agrees with the emitted clauses: forcing
        the inputs pins every mapped node literal to the node's value."""
        rng = random.Random(seed)
        aig = Aig()
        variables = [1, 2, 3]
        e = random_edge(aig, rng, variables, 3)
        if e in (TRUE, FALSE):
            return
        cnf, root_lit, node_var = aig_to_cnf(aig, e, start_var=max(variables))
        assert abs(root_lit) == node_var[e >> 1]
        for node in aig.cone_nodes(e):
            assert node in node_var
            if aig.is_input(node):
                assert node_var[node] == aig.input_label(node)
        solver = CdclSolver()
        solver.add_clauses(cnf.clauses)
        for values in itertools.product([False, True], repeat=3):
            assignment = dict(zip(variables, values))
            assumptions = [v if val else -v for v, val in assignment.items()]
            assert solver.solve(assumptions) == SAT
            model = solver.model()
            for node in aig.cone_nodes(e):
                if node == 0 or aig.is_input(node):
                    continue
                expected = aig.evaluate(node << 1, assignment)
                assert model[node_var[node]] == expected
