"""Syntactic unit and pure variable detection on AIGs (Theorem 6).

The paper replaces the classical CNF criteria (Lemma 2) with a linear
AIG traversal:

* ``v`` is **positive unit** if there is a path from the input node of
  ``v`` to the output without any negation; **negative unit** if the
  only negation on such a path sits directly on the edge leaving the
  input node.  Operationally: walk the top-level conjunction cone of
  the output (descend through AND nodes along *uncomplemented* edges
  only) and look at the input nodes hanging off it.
* ``v`` is **positive pure** if the number of negations on *all* paths
  from its input node to the output is even, **negative pure** if it is
  odd on all paths.  Operationally: propagate reachability parities top
  down; an input reached under exactly one parity is pure.

Both checks are sufficient but not necessary (cf. Example 4); the cost
is ``O(|phi| + |V|)``.
"""

from __future__ import annotations

from typing import Dict, Set

from .graph import Aig, FALSE, TRUE, is_complemented, node_of


class UnitPureInfo:
    """Result of a detection pass.

    ``units`` maps variables to the polarity of the *unit literal*
    (``True`` means the positive literal is implied, i.e. the variable
    must be 1 in every satisfying assignment).  ``pures`` maps variables
    to the polarity in which they occur.
    """

    def __init__(self, units: Dict[int, bool], pures: Dict[int, bool]):
        self.units = units
        self.pures = pures

    def __bool__(self) -> bool:
        return bool(self.units) or bool(self.pures)

    def __repr__(self) -> str:
        return f"UnitPureInfo(units={self.units}, pures={self.pures})"


def find_units(aig: Aig, root: int) -> Dict[int, bool]:
    """Variables implied to a constant in every model of ``root`` (syntactic).

    Returns ``{var: forced_value}``.
    """
    units: Dict[int, bool] = {}
    if root in (TRUE, FALSE):
        return units
    # Input nodes are exactly the nodes with a nonzero label.
    fanin0, fanin1, labels = aig._fanin0, aig._fanin1, aig._input_label
    node = node_of(root)
    if is_complemented(root):
        # phi = !n.  Only when n is an input is a (negative) unit visible.
        if labels[node]:
            units[labels[node]] = False
        return units
    # Walk the top-level conjunction: descend through uncomplemented AND edges.
    stack = [node]
    seen: Set[int] = set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        f0 = fanin0[node]
        if f0 < 0:  # an input, or the constant node (label 0)
            if labels[node]:
                units[labels[node]] = True
            continue
        for fanin in (f0, fanin1[node]):
            child = fanin >> 1
            if fanin & 1:
                # A single negation right above an input node: negative unit.
                if labels[child]:
                    units[labels[child]] = False
            else:
                stack.append(child)
    return units


def find_pures(aig: Aig, root: int) -> Dict[int, bool]:
    """Variables occurring in only one phase in the cone of ``root`` (syntactic).

    Returns ``{var: polarity}`` with ``True`` = positive pure (even
    negation count on all paths) and ``False`` = negative pure.
    """
    pures: Dict[int, bool] = {}
    if root in (TRUE, FALSE):
        return pures
    if aig.backend == "numpy":
        # One descending level-ordered sweep over the node arrays;
        # identical parity semantics to the worklist below.
        return aig._np.find_pures(root)
    # parities[node] is a bitmask: 1 = reachable with even #negations,
    # 2 = reachable with odd #negations.
    parities: Dict[int, int] = {}
    start = node_of(root)
    start_parity = 1 if is_complemented(root) else 0
    parities[start] = 1 << start_parity
    worklist = [(start, start_parity)]
    while worklist:
        node, parity = worklist.pop()
        if not aig.is_and(node):
            continue
        for fanin in aig.fanins(node):
            child = node_of(fanin)
            child_parity = parity ^ (1 if is_complemented(fanin) else 0)
            mask = 1 << child_parity
            if parities.get(child, 0) & mask:
                continue
            parities[child] = parities.get(child, 0) | mask
            worklist.append((child, child_parity))
    for node, mask in parities.items():
        if aig.is_input(node) and mask in (1, 2):
            pures[aig.input_label(node)] = mask == 1
    return pures


_CACHE_LIMIT = 4096


def detect_unit_pure(aig: Aig, root: int) -> UnitPureInfo:
    """Run both syntactic checks; unit findings take precedence over pure.

    Results are memoized per root edge on the manager: a root's function
    (and hence its syntactic units/pures) never changes in an
    append-only AIG, so re-detection after an unrelated iteration of the
    solver loop is a cache hit.  The cache dies with the manager on
    ``extract`` (compaction renumbers nodes).  Callers must treat the
    returned info as read-only.
    """
    cache = aig._unitpure_cache
    info = cache.get(root)
    if info is not None:
        aig.counters.unitpure_cache_hits += 1
        return info
    aig.counters.unitpure_cache_misses += 1
    units = find_units(aig, root)
    pures = {v: p for v, p in find_pures(aig, root).items() if v not in units}
    info = UnitPureInfo(units, pures)
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    cache[root] = info
    return info
