"""Backend equivalence: the python and numpy AIG kernels must be
indistinguishable through the public ``Aig`` API.

Every test replays the same construction / kernel-op script on
``Aig(backend="python")`` and ``Aig(backend="numpy")`` and asserts the
observable results coincide: edge identifiers (node numbering is
construction-order deterministic), truth tables via ``fraig.simulate``,
supports, levels, cone orders, fused-kernel outputs, and the traversal
``KernelCounters`` deltas.  Support-cache counters are deliberately
excluded — the numpy backend answers support queries with one cone
sweep instead of bottom-up cache fills, so its hit/miss profile differs
by design (see ``repro.aig.graph``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import fraig
from repro.aig.aiger import parse_aiger, write_aiger
from repro.aig.graph import Aig, complement

from conftest import NUM_VARS, aig_scripts, build_aig, requires_numpy

# Counters whose deltas must match exactly across backends.  The masked
# numpy kernels make the same share-vs-rebuild decisions as the python
# support-set tests, so all traversal/strash work is identical.
TRAVERSAL_COUNTERS = (
    "rebuild_passes",
    "fused_passes",
    "nodes_visited",
    "nodes_shared",
    "strash_lookups",
    "strash_hits",
)


def truth_patterns():
    """Exhaustive truth-table words for NUM_VARS inputs (width 2**n)."""
    width = 1 << NUM_VARS
    patterns = {}
    for position in range(NUM_VARS):
        word = 0
        for row in range(width):
            if (row >> position) & 1:
                word |= 1 << row
        patterns[position + 1] = word
    return patterns, width


@requires_numpy
class TestConstructionEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(aig_scripts())
    def test_truth_tables_supports_levels(self, script):
        aig_py, root_py = build_aig(script, "python")
        aig_np, root_np = build_aig(script, "numpy")
        assert root_py == root_np
        assert aig_py.num_nodes == aig_np.num_nodes
        assert aig_py.cone_nodes(root_py) == aig_np.cone_nodes(root_np)
        assert aig_py.support_of(root_py) == aig_np.support_of(root_np)
        assert aig_py.level_of(root_py) == aig_np.level_of(root_np)
        patterns, width = truth_patterns()
        words_py = fraig.simulate(aig_py, root_py, dict(patterns), width)
        words_np = fraig.simulate(aig_np, root_np, dict(patterns), width)
        assert words_py == words_np

    @settings(max_examples=40, deadline=None)
    @given(aig_scripts(), st.integers(min_value=1, max_value=NUM_VARS))
    def test_restrict_and_cofactor2_with_counters(self, script, var):
        results = {}
        for backend in ("python", "numpy"):
            aig, root = build_aig(script, backend)
            aig.counters.reset()
            restricted = aig.restrict(root, {var: True})
            cof0, cof1 = aig.cofactor2(root, var)
            results[backend] = (
                restricted,
                cof0,
                cof1,
                {k: getattr(aig.counters, k) for k in TRAVERSAL_COUNTERS},
            )
        assert results["python"] == results["numpy"]

    @settings(max_examples=40, deadline=None)
    @given(aig_scripts(), st.integers(min_value=1, max_value=NUM_VARS))
    def test_fused_elimination_with_counters(self, script, var):
        dependents = [v for v in range(1, NUM_VARS + 1) if v != var][:3]
        results = {}
        for backend in ("python", "numpy"):
            aig, root = build_aig(script, backend)
            aig.counters.reset()
            fresh = iter(range(100, 200))
            cof0, cof1, copies = aig.eliminate_universal_fused(
                root, var, dependents, lambda: next(fresh)
            )
            results[backend] = (
                cof0,
                cof1,
                copies,
                {k: getattr(aig.counters, k) for k in TRAVERSAL_COUNTERS},
            )
        assert results["python"] == results["numpy"]


@requires_numpy
class TestAigerRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(aig_scripts())
    def test_roundtrip_after_extract(self, script):
        """AIGER out/in on the compacted array core preserves the function."""
        patterns, width = truth_patterns()
        for backend in ("python", "numpy"):
            aig, root = build_aig(script, backend)
            original = fraig.simulate(aig, root, dict(patterns), width)[root >> 1]
            if root & 1:
                original ^= (1 << width) - 1
            compact, (new_root,) = aig.extract([root])
            assert compact.backend == backend
            text = write_aiger(compact, [new_root])
            parsed, (out,), _labels = parse_aiger(text)
            value = fraig.simulate(parsed, out, dict(patterns), width)[out >> 1]
            if out & 1:
                value ^= (1 << width) - 1
            assert value == original


class TestPartialPatternSimulation:
    def _build(self, backend):
        aig = Aig(backend=backend)
        x, y, z = aig.var(1), aig.var(2), aig.var(3)
        return aig, aig.land(aig.lor(x, y), z)

    @pytest.mark.parametrize(
        "backend", ["python", pytest.param("numpy", marks=requires_numpy)]
    )
    def test_missing_variables_filled_deterministically(self, backend):
        """Regression: partial pattern maps used to KeyError."""
        aig, root = self._build(backend)
        patterns = {1: 0b1010}
        words = fraig.simulate(aig, root, patterns, width=4, seed=11)
        # the missing labels were backfilled into the caller's map ...
        assert set(patterns) == {1, 2, 3}
        # ... deterministically: a second run reproduces the same words
        again = fraig.simulate(aig, root, {1: 0b1010}, width=4, seed=11)
        assert words == again
        # ... and a different seed draws different fills
        other = fraig.simulate(aig, root, {1: 0b1010}, width=4, seed=12)
        assert other != words

    @requires_numpy
    def test_fill_identical_across_backends(self):
        aig_py, root_py = self._build("python")
        aig_np, root_np = self._build("numpy")
        words_py = fraig.simulate(aig_py, root_py, {3: 0b0110}, width=4, seed=7)
        words_np = fraig.simulate(aig_np, root_np, {3: 0b0110}, width=4, seed=7)
        assert words_py == words_np


@requires_numpy
class TestConeMaskMemo:
    """``NumpyKernels.cone_mask`` memoizes the last mask on (node, count)."""

    @staticmethod
    def _fresh_mask(aig, node):
        expected = [False] * aig.num_nodes
        for member in aig.cone_nodes(node << 1):
            expected[member] = True
        return expected

    def test_repeat_calls_share_one_read_only_mask(self):
        aig = Aig(backend="numpy")
        a, b, c = aig.var(1), aig.var(2), aig.var(3)
        root = aig.land(aig.land(a, b), complement(c))
        kernels = aig._np
        first = kernels.cone_mask(root >> 1)
        again = kernels.cone_mask(root >> 1)
        assert again is first
        assert first.tolist() == self._fresh_mask(aig, root >> 1)
        with pytest.raises(ValueError):
            first[0] = True
        other = kernels.cone_mask(a >> 1)
        assert other.tolist() == self._fresh_mask(aig, a >> 1)
        back = kernels.cone_mask(root >> 1)
        assert back is not first
        assert back.tolist() == first.tolist()

    def test_recomputed_after_nodes_are_appended(self):
        aig = Aig(backend="numpy")
        a, b = aig.var(1), aig.var(2)
        root = aig.land(a, b)
        kernels = aig._np
        before = kernels.cone_mask(root >> 1)
        aig.land(aig.var(3), root)
        after = kernels.cone_mask(root >> 1)
        assert after is not before
        assert after.size == aig.num_nodes > before.size
        assert after.tolist() == self._fresh_mask(aig, root >> 1)
        assert aig.cone_size(root) == 1
