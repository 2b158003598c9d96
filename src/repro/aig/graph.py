"""Structurally hashed And-Inverter Graphs with complemented edges.

The representation follows the AIGER convention: an *edge* is an integer
``2*node + c`` where ``c`` is the complement bit; node ``0`` is the
constant-false node, so edge ``0`` denotes FALSE and edge ``1`` TRUE.
Input nodes carry an external variable label (the DIMACS variable of the
formula layer); AND nodes have exactly two fanin edges.

Structural hashing guarantees that no two AND nodes have the same
(ordered) fanin pair, and one-level simplification rules
(``x & x = x``, ``x & !x = 0``, constant folding) are applied on
construction.  All heavy operations (cofactor, compose, quantification)
are implemented as iterative rebuilds, so Python's recursion limit is
never an issue even for deep graphs.

**Storage is struct-of-arrays**: nodes live in flat parallel arrays
(``_fanin0``, ``_fanin1``, ``_input_label``, ``_level``, traversal
marks) indexed by node id.  Nodes are append-only with immutable fanins,
which yields two structural invariants the kernels exploit:

* fanins always reference *smaller* node ids, so ascending id order is
  a topological order — membership sweeps (``cone_size``, dependency
  masks, level groups) never need a DFS.  ``cone_nodes`` itself still
  returns the traversal-shaped DFS post-order, because downstream
  numberings (Tseitin auxiliaries, AIGER indices, rebuild creation
  order) are part of the observable contract;
* levels are computable at construction time (``1 + max(fanin
  levels)``), so ``level_of`` is an O(1) array read, never a sweep.

Two kernel *backends* implement the hot traversals over this storage
(see :mod:`repro.aig.backend`): the pure-Python reference loops, and
optional numpy kernels (:mod:`repro.aig._npkernels`) that mirror the
arrays into ``int64`` ndarrays and replace per-node dict/set work with
vectorized level-ordered sweeps.  The backend is chosen per manager
(``Aig(backend=...)``, defaulting to the import-time
``REPRO_AIG_BACKEND`` selection) and both backends produce identical
results, node numberings, and traversal counters.

Two layers sit on top of the plain rebuild machinery:

* a **fused kernel** (:meth:`Aig.restrict`, :meth:`Aig.cofactor2`,
  :meth:`Aig.eliminate_universal_fused`) that performs constant
  substitution, double cofactoring and Theorem-1 elimination in a
  *single* cone traversal, sharing (rather than rebuilding) every node
  whose cone does not touch the substituted variables.  The
  share-vs-rebuild classification is a per-node support disjointness
  test on the python backend and a precomputed vectorized dependency
  mask on the numpy backend — same decisions, same counters;
* a **generation-stamped per-node cache** of structural support sets.
  Nodes are append-only and fanins immutable, so a cache entry stays
  valid for the lifetime of the manager; ``extract`` (compaction)
  starts a fresh manager whose caches are empty and whose
  ``cache_generation`` is bumped, which is the only invalidation event.

The rebuild loops inline the AND step of :meth:`Aig.land` (one-level
simplification, strash probe, append to the node arrays) on local
variables instead of calling it per node.  They create nodes in their
traversal order, exactly as the per-node calls would, so node ids and
every numbering derived from them are unchanged; ``land`` is the only
other place AND nodes are created.

All kernel passes account their work in :class:`KernelCounters`, shared
across compactions, so callers can compare rebuild strategies.  Inlined
passes count in locals and add to the counters once per pass.  The
traversal counters (``nodes_visited``, ``nodes_shared``, strash and
pass counts) are backend-independent; the ``support_cache_*`` counters
reflect how often the frozenset cache is consulted and therefore differ
between backends (the numpy kernels classify via masks without filling
the cache).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .backend import resolve_backend

FALSE = 0
TRUE = 1

_EMPTY_SUPPORT: frozenset = frozenset()


class KernelCounters:
    """Work counters for the AIG kernel (shared across ``extract`` calls).

    ``nodes_visited`` counts every node processed by a rebuild-style
    pass (``rebuild``, ``restrict``, ``cofactor2``, fused elimination);
    ``nodes_shared`` counts nodes a fused pass reused verbatim instead
    of rebuilding.  A ``restrict`` call with a :class:`RestrictMemo`
    counts neither for the nodes whose earlier result it reuses.
    Support-cache fills are cheap set operations, not rebuild work, and
    are accounted separately as ``support_cache_misses``.  The strash
    and cache counters feed the hit-rate statistics exported by the
    solvers.
    """

    _FIELDS = (
        "rebuild_passes",
        "fused_passes",
        "nodes_visited",
        "nodes_shared",
        "strash_lookups",
        "strash_hits",
        "support_cache_hits",
        "support_cache_misses",
        "unitpure_cache_hits",
        "unitpure_cache_misses",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for name in self._FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self._FIELDS}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"KernelCounters({inner})"


class _SupportMask:
    """Python-backend stand-in for a numpy dependency mask.

    ``mask[node]`` is ``not support(edge).isdisjoint(labels)``, computed
    on every read, so the support cache sees exactly the queries of a
    per-node support test and its counters do not depend on the loop
    that reads the mask.
    """

    __slots__ = ("_support", "_labels")

    def __init__(self, support: Callable[[int], frozenset], labels: Iterable[int]) -> None:
        self._support = support
        self._labels = labels

    def __getitem__(self, node: int) -> bool:
        return not self._support(node << 1).isdisjoint(self._labels)


def edge_of(node: int, complemented: bool = False) -> int:
    return (node << 1) | int(complemented)


def node_of(edge: int) -> int:
    return edge >> 1


def is_complemented(edge: int) -> bool:
    return bool(edge & 1)


def complement(edge: int) -> int:
    return edge ^ 1


class RestrictMemo:
    """What :meth:`Aig.restrict` leaves for its next call on one root.

    ``cache`` maps each node of the root's cone that depends on a
    restricted variable, and each fanin of such a node, to its result
    under ``assignment`` (the last call's values).  Each call merges its
    results into the same map, so an entry a call skipped stays
    available to a later call that has to rebuild above it.  A memo
    serves one root and one variable set in one manager.
    """

    __slots__ = ("root", "assignment", "cache")

    def __init__(self) -> None:
        self.root = -1
        self.assignment: Optional[Dict[int, bool]] = None
        self.cache: Dict[int, int] = {}


class Aig:
    """An AIG manager holding a DAG of AND nodes over labelled inputs."""

    _NO_FANIN = -1

    def __init__(self, backend: Optional[str] = None) -> None:
        #: Kernel backend for this manager: ``'python'`` or ``'numpy'``.
        self.backend = resolve_backend(backend)
        # Struct-of-arrays node storage; node 0 is the constant-false node.
        self._fanin0: List[int] = [self._NO_FANIN]
        self._fanin1: List[int] = [self._NO_FANIN]
        self._input_label: List[int] = [0]  # external var for inputs, 0 otherwise
        self._level: List[int] = [0]  # maintained eagerly on append
        self._mark: List[int] = [0]  # traversal stamps (see _cone_nodes_ascending)
        self._travid = 0
        self._input_node: Dict[int, int] = {}
        self._strash: Dict[Tuple[int, int], int] = {}
        self.counters = KernelCounters()
        # Per-node metadata caches.  Entries never go stale within one
        # manager (nodes are append-only with immutable fanins); the
        # generation stamp identifies which manager incarnation an
        # externally held value belongs to.
        self.cache_generation = 0
        self._support: Dict[int, frozenset] = {0: _EMPTY_SUPPORT}
        self._unitpure_cache: Dict[int, object] = {}
        self._npk = None  # lazily constructed NumpyKernels mirror

    @property
    def _np(self):
        """The numpy kernel mirror (numpy backend only), built lazily."""
        kernels = self._npk
        if kernels is None:
            from ._npkernels import NumpyKernels

            kernels = self._npk = NumpyKernels(self)
        return kernels

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def var(self, external_var: int) -> int:
        """Return the edge for an input labelled by ``external_var`` (creating it)."""
        if external_var <= 0:
            raise ValueError("external variables must be positive")
        node = self._input_node.get(external_var)
        if node is None:
            node = self._new_node(self._NO_FANIN, self._NO_FANIN, external_var)
            self._input_node[external_var] = node
        return edge_of(node)

    def literal(self, lit: int) -> int:
        """Return the edge for a DIMACS literal."""
        edge = self.var(abs(lit))
        return complement(edge) if lit < 0 else edge

    def land(self, a: int, b: int) -> int:
        """AND of two edges with one-level simplification and strashing.

        The public one-off constructor.  The rebuild loops (``rebuild``,
        ``restrict``, ``cofactor2``, ``eliminate_universal_fused``) run
        the same step inline on local variables; both must stay in sync.
        """
        if a == FALSE or b == FALSE or a == complement(b):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        counters = self.counters
        counters.strash_lookups += 1
        node = self._strash.get(key)
        if node is None:
            node = self._new_node(a, b, 0)
            self._strash[key] = node
        else:
            counters.strash_hits += 1
        return edge_of(node)

    def lor(self, a: int, b: int) -> int:
        return complement(self.land(complement(a), complement(b)))

    def lxor(self, a: int, b: int) -> int:
        return self.lor(self.land(a, complement(b)), self.land(complement(a), b))

    def lxnor(self, a: int, b: int) -> int:
        return complement(self.lxor(a, b))

    def lite(self, cond: int, then_edge: int, else_edge: int) -> int:
        """If-then-else: ``cond ? then : else``."""
        return self.lor(self.land(cond, then_edge), self.land(complement(cond), else_edge))

    def land_many(self, edges: Iterable[int]) -> int:
        """Balanced conjunction of arbitrarily many edges."""
        work = list(edges)
        if not work:
            return TRUE
        while len(work) > 1:
            nxt = []
            for i in range(0, len(work) - 1, 2):
                nxt.append(self.land(work[i], work[i + 1]))
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        return work[0]

    def lor_many(self, edges: Iterable[int]) -> int:
        return complement(self.land_many(complement(e) for e in edges))

    def _new_node(self, fanin0: int, fanin1: int, label: int) -> int:
        # Fanins always pre-exist, so the level is known at append time:
        # one O(1) computation here replaces a lazy per-node level cache.
        if fanin0 >= 0:
            levels = self._level
            l0 = levels[fanin0 >> 1]
            l1 = levels[fanin1 >> 1]
            level = 1 + (l0 if l0 >= l1 else l1)
        else:
            level = 0
        self._fanin0.append(fanin0)
        self._fanin1.append(fanin1)
        self._input_label.append(label)
        self._level.append(level)
        self._mark.append(0)
        return len(self._fanin0) - 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def is_input(self, node: int) -> bool:
        return node != 0 and self._fanin0[node] == self._NO_FANIN

    def is_and(self, node: int) -> bool:
        return self._fanin0[node] != self._NO_FANIN

    def fanins(self, node: int) -> Tuple[int, int]:
        if not self.is_and(node):
            raise ValueError(f"node {node} is not an AND node")
        return self._fanin0[node], self._fanin1[node]

    def input_label(self, node: int) -> int:
        if not self.is_input(node):
            raise ValueError(f"node {node} is not an input")
        return self._input_label[node]

    def max_input_label(self) -> int:
        """Largest external variable that has an input node (0 if none)."""
        return max(self._input_node, default=0)

    @property
    def num_nodes(self) -> int:
        """Total node count in the manager (including dead nodes)."""
        return len(self._fanin0)

    def cone_nodes(self, root: int) -> List[int]:
        """Cone of ``root`` in depth-first post-order (fanin0 first).

        The *order* is part of the contract, on both backends: the CNF
        encoders number Tseitin auxiliaries in cone order, `rebuild`
        (hence compose / extract / FRAIG) creates nodes in cone order,
        and the AIGER writer numbers gates in cone order.  SAT heuristics
        (VSIDS init, phase saving) are sensitive enough to variable
        numbering that changing the order shifts solve times measurably,
        so it stays the traversal-shaped post-order rather than the
        ascending-id order the array core could produce cheaply.  Use
        :meth:`_cone_nodes_ascending` / the kernel cone masks when only
        membership matters.  A node is stamped in ``_mark`` when it is
        emitted, so the stamp plays the role of a "seen" set.
        """
        self._travid += 1
        travid = self._travid
        mark = self._mark
        order: List[int] = []
        fanin0, fanin1 = self._fanin0, self._fanin1
        stack = [root >> 1]
        while stack:
            node = stack.pop()
            if mark[node] == travid:
                continue
            f0 = fanin0[node]
            if f0 >= 0:
                child0 = f0 >> 1
                child1 = fanin1[node] >> 1
                pending0 = mark[child0] != travid
                pending1 = mark[child1] != travid
                if pending0 or pending1:
                    stack.append(node)
                    if pending0:
                        stack.append(child0)
                    if pending1:
                        stack.append(child1)
                    continue
            mark[node] = travid
            order.append(node)
        return order

    def _cone_nodes_ascending(self, root: int) -> List[int]:
        """Cone membership as ascending node ids (a topological order too).

        Cheaper than :meth:`cone_nodes` — generation-stamped marks, no
        hashing — for order-insensitive consumers like :meth:`cone_size`.
        """
        self._travid += 1
        travid = self._travid
        mark = self._mark
        fanin0, fanin1 = self._fanin0, self._fanin1
        node = root >> 1
        mark[node] = travid
        stack = [node]
        out: List[int] = []
        while stack:
            top = stack.pop()
            out.append(top)
            f0 = fanin0[top]
            if f0 >= 0:
                child = f0 >> 1
                if mark[child] != travid:
                    mark[child] = travid
                    stack.append(child)
                child = fanin1[top] >> 1
                if mark[child] != travid:
                    mark[child] = travid
                    stack.append(child)
        out.sort()
        return out

    def cone_size(self, root: int) -> int:
        """Number of AND nodes in the cone of ``root``."""
        if self.backend == "numpy":
            return self._np.cone_and_count(root)
        fanin0 = self._fanin0
        return sum(1 for n in self._cone_nodes_ascending(root) if fanin0[n] >= 0)

    def grow_cone(self, root: int, seen: Set[int]) -> int:
        """Add the cone of ``root`` to ``seen``; return how many AND nodes were new.

        ``seen`` must be a union of whole cones (as this method leaves
        it), so the walk stops at any node already in it.  Summing the
        returns over a sequence of roots whose cones contain each other
        (a growing conjunction) keeps :meth:`cone_size` of the latest
        root without walking the earlier cones again.
        """
        fanin0, fanin1 = self._fanin0, self._fanin1
        added = 0
        stack = [root >> 1]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            f0 = fanin0[node]
            if f0 >= 0:
                added += 1
                stack.append(f0 >> 1)
                stack.append(fanin1[node] >> 1)
        return added

    def support(self, root: int) -> Set[int]:
        """External variables the function of ``root`` structurally depends on.

        Returns a fresh mutable set; use :meth:`support_of` on hot paths
        to share the cached frozenset instead.
        """
        return set(self.support_of(root))

    # ------------------------------------------------------------------
    # per-node metadata cache (support sets) and levels
    # ------------------------------------------------------------------
    def support_of(self, root: int) -> frozenset:
        """Cached structural support of ``root`` as a shared frozenset.

        The result is memoized per node.  On the python backend a cache
        miss fills the cache bottom-up for every node of the cone (so
        subsequent queries anywhere inside the cone are O(1)); when an
        AND node's support equals one of its fanin supports the
        frozenset object is shared, keeping the cache memory-linear in
        practice.  On the numpy backend a miss is a single vectorized
        cone sweep that caches only the queried node — interior nodes
        are rarely queried there because the fused kernels classify via
        dependency masks instead.
        """
        node = root >> 1
        cached = self._support.get(node)
        if cached is not None:
            self.counters.support_cache_hits += 1
            return cached
        if self.backend == "numpy":
            result = self._np.cone_support(node)
            self._support[node] = result
            self.counters.support_cache_misses += 1
            return result
        support = self._support
        counters = self.counters
        stack = [node]
        while stack:
            top = stack[-1]
            if top in support:
                stack.pop()
                continue
            if self._fanin0[top] == self._NO_FANIN:  # input node
                support[top] = frozenset((self._input_label[top],))
                counters.support_cache_misses += 1
                stack.pop()
                continue
            f0, f1 = self._fanin0[top] >> 1, self._fanin1[top] >> 1
            s0 = support.get(f0)
            s1 = support.get(f1)
            if s0 is None or s1 is None:
                if s0 is None:
                    stack.append(f0)
                if s1 is None:
                    stack.append(f1)
                continue
            if s1 <= s0:
                support[top] = s0
            elif s0 <= s1:
                support[top] = s1
            else:
                support[top] = s0 | s1
            counters.support_cache_misses += 1
            stack.pop()
        return support[node]

    def level_of(self, root: int) -> int:
        """Level (longest AND path to an input) of ``root`` — O(1) read.

        Levels are maintained eagerly at node construction, so this is
        a plain array access on either backend.
        """
        return self._level[root >> 1]

    def count_depending_ands(self, root: int, var: int) -> int:
        """AND nodes in the cone of ``root`` whose function cone contains
        ``var`` — the node count a Theorem-1 elimination of ``var`` would
        have to rebuild (growth estimation)."""
        if root < 2:
            return 0
        if self.backend == "numpy":
            return self._np.count_depending_ands(root, var)
        count = 0
        support_of = self.support_of
        fanin0 = self._fanin0
        for node in self._cone_nodes_ascending(root):
            if fanin0[node] >= 0 and var in support_of(edge_of(node)):
                count += 1
        return count

    def input_fanout_counts(self, root: int, labels: Iterable[int]) -> Dict[int, int]:
        """Direct fanout count inside the cone of ``root`` for each input
        labelled by ``labels`` (labels with zero fanout are omitted)."""
        wanted = set(labels)
        counts: Dict[int, int] = {}
        if root < 2 or not wanted:
            return counts
        if self.backend == "numpy":
            return self._np.input_fanout_counts(root, wanted)
        fanin0, fanin1, label = self._fanin0, self._fanin1, self._input_label
        for node in self._cone_nodes_ascending(root):
            f0 = fanin0[node]
            if f0 < 0:
                continue
            for child in (f0 >> 1, fanin1[node] >> 1):
                lab = label[child]
                if lab > 0 and lab in wanted:
                    counts[lab] = counts.get(lab, 0) + 1
        return counts

    def invalidate_caches(self) -> None:
        """Drop all per-node metadata and bump the generation stamp.

        Never required for correctness inside one manager (nodes are
        immutable); exposed for callers that hold externally derived
        per-generation data.  Levels and the numpy array mirror are
        ground truth derived from the node arrays, not caches, and are
        kept.
        """
        self.cache_generation += 1
        self._support = {0: _EMPTY_SUPPORT}
        self._unitpure_cache = {}

    def evaluate(self, root: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate the function at ``root`` under an assignment of external vars."""
        values: Dict[int, bool] = {0: False}
        for node in self.cone_nodes(root):
            if node == 0:
                continue
            if self.is_input(node):
                values[node] = assignment[self._input_label[node]]
            else:
                f0, f1 = self._fanin0[node], self._fanin1[node]
                v0 = values[node_of(f0)] ^ is_complemented(f0)
                v1 = values[node_of(f1)] ^ is_complemented(f1)
                values[node] = v0 and v1
        return values[node_of(root)] ^ is_complemented(root)

    # ------------------------------------------------------------------
    # rebuild-based operations
    # ------------------------------------------------------------------
    def rebuild(
        self,
        roots: Sequence[int],
        leaf_map: Dict[int, int],
        target: Optional["Aig"] = None,
    ) -> List[int]:
        """Re-express ``roots`` with input nodes substituted via ``leaf_map``.

        ``leaf_map`` maps *external variables* to replacement edges (in
        ``target``, which defaults to ``self``).  Inputs not mentioned map
        to themselves.  Returns the list of rebuilt root edges.
        """
        target = target if target is not None else self
        fanin0, fanin1, labels = self._fanin0, self._fanin1, self._input_label
        # Inline strash into ``target`` (see ``land``); nodes are created
        # in cone order, exactly as a per-node ``target.land`` would.
        t_fanin0, t_level = target._fanin0, target._level
        add_fanin0, add_fanin1 = t_fanin0.append, target._fanin1.append
        add_label, add_level, add_mark = (
            target._input_label.append, t_level.append, target._mark.append
        )
        strash = target._strash
        strash_get = strash.get
        new_var = target.var
        visited = lookups = hits = 0
        cache: Dict[int, int] = {0: FALSE}  # node -> rebuilt edge (uncomplemented view)
        for root in roots:
            for node in self.cone_nodes(root):
                if node in cache:
                    continue
                visited += 1
                f0 = fanin0[node]
                if f0 < 0:  # input node
                    label = labels[node]
                    edge = leaf_map.get(label)
                    cache[node] = new_var(label) if edge is None else edge
                    continue
                f1 = fanin1[node]
                a = cache[f0 >> 1] ^ (f0 & 1)
                b = cache[f1 >> 1] ^ (f1 & 1)
                if a == FALSE or b == FALSE or a == (b ^ 1):
                    cache[node] = FALSE
                elif a == TRUE or b == TRUE or a == b:
                    cache[node] = b if a == TRUE else a
                else:
                    key = (a, b) if a < b else (b, a)
                    lookups += 1
                    new = strash_get(key)
                    if new is None:
                        new = strash[key] = len(t_fanin0)
                        la, lb = t_level[a >> 1], t_level[b >> 1]
                        add_fanin0(key[0])
                        add_fanin1(key[1])
                        add_label(0)
                        add_level(1 + (la if la >= lb else lb))
                        add_mark(0)
                    else:
                        hits += 1
                    cache[node] = new << 1
        counters = self.counters
        counters.rebuild_passes += 1
        counters.nodes_visited += visited
        target.counters.strash_lookups += lookups
        target.counters.strash_hits += hits
        return [cache[node_of(r)] ^ (r & 1) for r in roots]

    def cofactor(self, root: int, var: int, value: bool) -> int:
        """Shannon cofactor of ``root`` with respect to an external variable."""
        return self.rebuild([root], {var: TRUE if value else FALSE})[0]

    def compose(self, root: int, substitution: Dict[int, int]) -> int:
        """Simultaneously substitute external variables by edges."""
        return self.rebuild([root], dict(substitution))[0]

    def rename(self, root: int, mapping: Dict[int, int]) -> int:
        """Rename external variables (var -> var)."""
        return self.rebuild([root], {v: self.var(w) for v, w in mapping.items()})[0]

    def exists(self, root: int, var: int) -> int:
        """Existential quantification of one external variable."""
        cof0, cof1 = self.cofactor2(root, var)
        return self.lor(cof0, cof1)

    def forall(self, root: int, var: int) -> int:
        """Universal quantification of one external variable."""
        cof0, cof1 = self.cofactor2(root, var)
        return self.land(cof0, cof1)

    # ------------------------------------------------------------------
    # fused kernel: single-pass substitution / cofactoring / elimination
    # ------------------------------------------------------------------
    def _count_fused_pass(self, visited: int, shared: int, lookups: int, hits: int) -> None:
        counters = self.counters
        counters.fused_passes += 1
        counters.nodes_visited += visited
        counters.nodes_shared += shared
        counters.strash_lookups += lookups
        counters.strash_hits += hits

    def restrict(
        self, root: int, assignment: Dict[int, bool], memo: Optional[RestrictMemo] = None
    ) -> int:
        """Substitute constants for several external variables in one pass.

        Unlike ``rebuild``, the traversal never descends into (and never
        re-strashes) a node whose cone is disjoint from ``assignment`` —
        such nodes are *shared* with the original cone.  Equivalent to a
        chain of :meth:`cofactor` calls, in a single traversal.

        ``memo`` carries results from one call to the next on the same
        ``root`` and the same variables (see :class:`RestrictMemo`).
        After the first call, only the nodes whose cone contains a
        variable whose value changed are rebuilt; every other node takes
        the result an earlier call left.  A skipped subtree's results
        are all strash hits in a plain call, so the returned edge, the
        appended nodes and their order are exactly those of a plain
        call.  Reused nodes are not visited and not counted: the
        counters record only the nodes the call rebuilds or shares anew.
        """
        if root < 2 or not assignment:
            return root
        if memo is None or memo.assignment is None:
            cache: Dict[int, int] = {0: FALSE}
            if memo is not None:
                memo.root, memo.assignment, memo.cache = root, dict(assignment), cache
            # depends[node]: the cone of node contains a substituted variable
            depends = self._depends_mask(assignment)
            if not depends[root >> 1]:
                return root
            return self._restrict_pass(root, assignment, depends, cache)
        previous = memo.assignment
        if memo.root != root or previous.keys() != assignment.keys():
            raise ValueError("a restrict memo serves one root and one variable set")
        changed = [v for v, value in assignment.items() if previous[v] != value]
        memo.assignment = dict(assignment)
        cache = memo.cache
        depends = self._depends_mask(changed) if changed else None
        if depends is None or not depends[root >> 1]:
            result = cache.get(root >> 1)
            return root if result is None else result ^ (root & 1)
        # Every node outside ``changed``'s cones keeps its result, so only
        # the cached entries that depend on ``changed`` go, and the pass
        # rebuilds exactly those.
        fanin0, fanin1 = self._fanin0, self._fanin1
        forget = cache.pop
        stack = [root >> 1]
        while stack:
            node = stack.pop()
            if depends[node] and forget(node, None) is not None and fanin0[node] >= 0:
                stack.append(fanin0[node] >> 1)
                stack.append(fanin1[node] >> 1)
        return self._restrict_pass(root, assignment, depends, cache)

    def _depends_mask(self, labels: Iterable[int]):
        """``mask[node]``: the cone of ``node`` contains one of ``labels``."""
        if self.backend == "numpy":
            return self._np.depends_mask(labels)
        return _SupportMask(self.support_of, frozenset(labels))

    def _restrict_pass(
        self, root: int, assignment: Dict[int, bool], depends, cache: Dict[int, int]
    ) -> int:
        """The rebuild loop of :meth:`restrict`, filling ``cache``."""
        fanin0, fanin1, labels, level = self._fanin0, self._fanin1, self._input_label, self._level
        # Inline strash (see ``land``): the AND step appends straight to
        # the node arrays, counting work in locals until the pass ends.
        add_fanin0, add_fanin1 = fanin0.append, fanin1.append
        add_label, add_level, add_mark = labels.append, level.append, self._mark.append
        strash = self._strash
        strash_get = strash.get
        visited = shared = lookups = hits = 0
        stack = [root >> 1]
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            if not depends[node]:
                cache[node] = node << 1
                shared += 1
                stack.pop()
                continue
            f0 = fanin0[node]
            if f0 < 0:  # a substituted input
                cache[node] = TRUE if assignment[labels[node]] else FALSE
                visited += 1
                stack.pop()
                continue
            f1 = fanin1[node]
            a = cache.get(f0 >> 1)
            b = cache.get(f1 >> 1)
            if a is None or b is None:
                if a is None:
                    stack.append(f0 >> 1)
                if b is None:
                    stack.append(f1 >> 1)
                continue
            a ^= f0 & 1
            b ^= f1 & 1
            if a == FALSE or b == FALSE or a == (b ^ 1):
                cache[node] = FALSE
            elif a == TRUE or b == TRUE or a == b:
                cache[node] = b if a == TRUE else a
            else:
                key = (a, b) if a < b else (b, a)
                lookups += 1
                new = strash_get(key)
                if new is None:
                    new = strash[key] = len(fanin0)
                    la, lb = level[a >> 1], level[b >> 1]
                    add_fanin0(key[0])
                    add_fanin1(key[1])
                    add_label(0)
                    add_level(1 + (la if la >= lb else lb))
                    add_mark(0)
                else:
                    hits += 1
                cache[node] = new << 1
            visited += 1
            stack.pop()
        self._count_fused_pass(visited, shared, lookups, hits)
        return cache[root >> 1] ^ (root & 1)

    def cofactor2(self, root: int, var: int) -> Tuple[int, int]:
        """Both Shannon cofactors of ``root`` w.r.t. ``var`` in one pass.

        Nodes independent of ``var`` are shared between the input cone
        and both cofactors; the rest of the cone is visited exactly once
        (instead of twice for two :meth:`cofactor` calls).  This is the
        Theorem-1 kernel with no dependents to rename.
        """
        cofactor0, cofactor1, _copies = self.eliminate_universal_fused(root, var, (), None)
        return cofactor0, cofactor1

    def eliminate_universal_fused(
        self,
        root: int,
        var: int,
        dependents: Iterable[int],
        fresh: Optional[Callable[[], int]],
    ) -> Tuple[int, int, Dict[int, int]]:
        """Theorem-1 kernel: both cofactors *and* the dependent rename of
        the 1-cofactor in a single cone traversal.

        ``dependents`` are the existential variables whose dependency
        sets contain ``var``; each one actually used while building the
        1-cofactor is renamed to a fresh variable obtained from
        ``fresh()`` (never called without dependents, so it may then be
        ``None``).  Returns ``(cofactor0, renamed_cofactor1, copies)``
        where ``copies`` maps originals to their fresh names, filtered
        to the copies that survive simplification (i.e. that occur in
        the returned 1-cofactor).

        Sharing rule: a node is reused verbatim on the 0-side whenever
        its cone misses ``var`` (``dep_var``), and on the 1-side whenever
        its cone also misses every dependent (``dep_rel``; otherwise the
        rename forces a rebuild even though the cofactor is trivial).
        """
        dependents = frozenset(dependents)
        if root < 2:
            return root, root, {}
        if self.backend == "numpy":
            if dependents:
                dep_var, dep_rel = self._np.depends_mask2(var, dependents)
            else:  # a plain double cofactor: one mask serves both tests
                dep_var = dep_rel = self._np.depends_mask((var,))
            if not dep_var[root >> 1]:
                return root, root, {}
        else:
            if var not in self.support_of(root):
                return root, root, {}
            # One counted support query per examined node (dep_rel); the
            # var test then reads the entry that query has just cached.
            support = self._support
            dep_rel = _SupportMask(self.support_of, dependents | {var})
            dep_var = _SupportMask(lambda edge: support[edge >> 1], (var,))
        copies: Dict[int, int] = {}
        copy_edges: Dict[int, int] = {}

        def renamed_input(label: int) -> int:
            edge = copy_edges.get(label)
            if edge is None:
                copies[label] = fresh()
                edge = self.var(copies[label])
                copy_edges[label] = edge
            return edge

        fanin0, fanin1, labels, level = self._fanin0, self._fanin1, self._input_label, self._level
        # Inline strash (see ``land``): the AND step appends straight to
        # the node arrays, counting work in locals until the pass ends.
        add_fanin0, add_fanin1 = fanin0.append, fanin1.append
        add_label, add_level, add_mark = labels.append, level.append, self._mark.append
        strash = self._strash
        strash_get = strash.get
        visited = shared = lookups = hits = 0
        lo: Dict[int, int] = {0: FALSE}
        hi: Dict[int, int] = {0: FALSE}
        stack = [root >> 1]
        while stack:
            node = stack[-1]
            if node in lo:
                stack.pop()
                continue
            if not dep_rel[node]:
                lo[node] = hi[node] = node << 1
                shared += 1
                stack.pop()
                continue
            f0 = fanin0[node]
            if f0 < 0:
                label = labels[node]
                if label == var:
                    lo[node] = FALSE
                    hi[node] = TRUE
                else:  # a dependent: identical on the 0-side, renamed on the 1-side
                    lo[node] = node << 1
                    hi[node] = renamed_input(label)
                visited += 1
                stack.pop()
                continue
            f1 = fanin1[node]
            n0, n1 = f0 >> 1, f1 >> 1
            a = lo.get(n0)
            b = lo.get(n1)
            if a is None or b is None:
                if a is None:
                    stack.append(n0)
                if b is None:
                    stack.append(n1)
                continue
            c0, c1 = f0 & 1, f1 & 1
            if dep_var[node]:
                a ^= c0
                b ^= c1
                if a == FALSE or b == FALSE or a == (b ^ 1):
                    lo[node] = FALSE
                elif a == TRUE or b == TRUE or a == b:
                    lo[node] = b if a == TRUE else a
                else:
                    key = (a, b) if a < b else (b, a)
                    lookups += 1
                    new = strash_get(key)
                    if new is None:
                        new = strash[key] = len(fanin0)
                        la, lb = level[a >> 1], level[b >> 1]
                        add_fanin0(key[0])
                        add_fanin1(key[1])
                        add_label(0)
                        add_level(1 + (la if la >= lb else lb))
                        add_mark(0)
                    else:
                        hits += 1
                    lo[node] = new << 1
            else:  # cofactoring is trivial here; only the rename matters
                lo[node] = node << 1
                shared += 1
            a = hi[n0] ^ c0
            b = hi[n1] ^ c1
            if a == FALSE or b == FALSE or a == (b ^ 1):
                hi[node] = FALSE
            elif a == TRUE or b == TRUE or a == b:
                hi[node] = b if a == TRUE else a
            else:
                key = (a, b) if a < b else (b, a)
                lookups += 1
                new = strash_get(key)
                if new is None:
                    new = strash[key] = len(fanin0)
                    la, lb = level[a >> 1], level[b >> 1]
                    add_fanin0(key[0])
                    add_fanin1(key[1])
                    add_label(0)
                    add_level(1 + (la if la >= lb else lb))
                    add_mark(0)
                else:
                    hits += 1
                hi[node] = new << 1
            visited += 1
            stack.pop()
        self._count_fused_pass(visited, shared, lookups, hits)
        sign = root & 1
        cofactor0, cofactor1 = lo[root >> 1] ^ sign, hi[root >> 1] ^ sign
        if copies:
            # The 1-cofactor's support tells which copies survived the
            # one-level simplifications — no extra per-node walk.
            if cofactor1 < 2:
                survivors = _EMPTY_SUPPORT
            elif self.backend == "numpy":
                survivors = self._np.cone_support(cofactor1 >> 1)
            else:
                survivors = self.support_of(cofactor1)
            copies = {y: y2 for y, y2 in copies.items() if y2 in survivors}
        return cofactor0, cofactor1, copies

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def extract(self, roots: Sequence[int]) -> Tuple["Aig", List[int]]:
        """Garbage-collect: copy only the cones of ``roots`` into a fresh manager.

        The fresh manager starts with empty metadata caches and a bumped
        ``cache_generation`` (node numbering changes, so per-node data
        held outside the manager is stale), but *shares* this manager's
        :class:`KernelCounters` and backend so work accounting and
        kernel selection survive compaction.
        """
        fresh = Aig(backend=self.backend)
        fresh.counters = self.counters
        fresh.cache_generation = self.cache_generation + 1
        new_roots = self.rebuild(roots, {}, target=fresh)
        return fresh, new_roots

    def __repr__(self) -> str:
        ands = sum(1 for n in range(1, self.num_nodes) if self.is_and(n))
        return f"Aig(inputs={len(self._input_node)}, ands={ands}, backend={self.backend})"
