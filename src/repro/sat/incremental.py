"""Incremental SAT service over AIG cones.

Every SAT query of the HQS inner loop — FRAIG miter checks, semantic
constant tests, implication probes — used to Tseitin-encode the cone
from scratch into a throwaway :class:`~repro.sat.solver.CdclSolver`,
discarding all learned clauses after each answer.  The
:class:`AigSatSession` replaces that with the incremental discipline of
FRAIG sweeping (Mishchenko et al.) and clausal-abstraction QBF solvers:

* **one long-lived solver per AIG manager.**  The clause database only
  ever grows; learned clauses persist across queries, across sweep
  rounds, and across elimination steps.
* **lazy, deduplicated encoding.**  A node is Tseitin-encoded at most
  once per manager generation; queries on overlapping cones pay only
  for the nodes not yet in the clause database.
* **assumption-based queries.**  Nothing is asserted permanently, so
  miter, constant and implication questions about arbitrary roots can
  be interleaved freely on the same solver.
* **cone-scoped decisions.**  Every query decides only inside its
  roots' cones (``CdclSolver.solve(decide=...)``): ``is_satisfiable``
  the cone of its root, ``implies`` and ``equivalent`` the union of
  both cones.  The variables come from the walk that encodes the cone;
  a root an earlier query encoded is walked again.  A SAT answer
  assigns the cone and may leave the rest of the solver — earlier
  queries' cones, stale generations — unassigned, so a query costs
  what its own cone needs, however much the solver holds.  Input
  labels the answer left unassigned read ``False`` in
  :meth:`model_inputs`.
* **generation-aware rebinding.**  Elimination compacts (``extract``)
  and FRAIG rebuilds replace the manager; :meth:`rebind` drops only the
  per-node variable map.  External input labels keep their solver
  variables across rebinds, and the old generation's definitional
  clauses remain sound (each auxiliary is functionally determined by
  the inputs), so learned clauses over inputs keep pruning the search
  in later rounds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..errors import TimeoutExceeded
from .solver import SAT, UNKNOWN, UNSAT, CdclSolver

if TYPE_CHECKING:  # pragma: no cover - import cycle: aig.fraig uses this module
    from ..aig.graph import Aig

# AIGER edge encoding (kept inline so this module does not import
# repro.aig, which itself imports repro.sat for the FRAIG sweeper).
FALSE = 0
TRUE = 1


class SatServiceStats:
    """Counters of one SAT session (exported as ``sat_*`` solver stats).

    ``learnts_reused`` accumulates, per query, the number of learned
    clauses already in the database when the query started — the reuse
    a fresh-solver-per-query discipline forfeits.  ``encode_cache_hits``
    counts nodes (and fully cached roots) whose Tseitin encoding was
    skipped because a previous query already emitted it.
    """

    _FIELDS = (
        "queries",
        "sat_answers",
        "unsat_answers",
        "unknown_answers",
        "conflicts",
        "decisions",
        "propagations",
        "nodes_encoded",
        "clauses_encoded",
        "encode_cache_hits",
        "learnts_reused",
        "counterexamples",
        "solver_resets",
        "rebinds",
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
        return f"SatServiceStats({inner})"


class AigSatSession:
    """A persistent SAT solver bound to (successive generations of) an AIG.

    Typical use::

        session = AigSatSession(aig)
        if session.equivalent(edge_a, edge_b):
            ...                       # merge proven; learned clauses kept
        session.is_satisfiable(root)  # reuses everything encoded so far
        aig2, (root2,) = aig.extract([root])
        session.rebind(aig2)          # keep solver, re-key the node map
    """

    def __init__(
        self,
        aig: Aig,
        solver: Optional[CdclSolver] = None,
        stats: Optional[SatServiceStats] = None,
        max_clauses: Optional[int] = None,
        guard=None,
    ) -> None:
        self.aig = aig
        self.generation = aig.cache_generation
        self.stats = stats if stats is not None else SatServiceStats()
        self.max_clauses = max_clauses
        #: Optional :class:`~repro.core.guard.ResourceGuard`: every query
        #: charges its conflicts there, so a solver-wide SAT-conflict
        #: budget covers FRAIG miters, constant checks and endgames
        #: without each call site doing its own accounting.
        self.guard = guard
        self._solver = solver if solver is not None else CdclSolver()
        #: external input label -> solver variable (survives rebinds)
        self._input_var: Dict[int, int] = {}
        #: AIG node -> solver variable (valid for the current generation)
        self._node_var: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def rebind(self, aig: Aig) -> "AigSatSession":
        """Point the session at ``aig`` (same or new manager/generation).

        A no-op when the binding is already current.  Otherwise the
        per-node variable map is dropped; the solver — including input
        variables and all learned clauses — is kept, unless the clause
        database outgrew ``max_clauses``.
        """
        if aig is self.aig and aig.cache_generation == self.generation:
            return self
        self.aig = aig
        self.generation = aig.cache_generation
        self._node_var = {}
        self.stats.rebinds += 1
        if (
            self.max_clauses is not None
            and self._solver.statistics["clauses"] > self.max_clauses
        ):
            self._fresh_solver()
        return self

    def _fresh_solver(self) -> None:
        self._solver = CdclSolver()
        self._input_var = {}
        self._node_var = {}
        self.stats.solver_resets += 1

    @property
    def solver(self) -> CdclSolver:
        """The underlying solver (for statistics inspection)."""
        return self._solver

    # ------------------------------------------------------------------
    # lazy Tseitin encoding
    # ------------------------------------------------------------------
    def _var_for_input(self, label: int) -> int:
        var = self._input_var.get(label)
        if var is None:
            var = self._solver.new_var()
            self._input_var[label] = var
        return var

    def _lit_of(self, edge: int, cone: List[int]) -> int:
        """Solver literal equisatisfiable with the function at ``edge``.

        Encodes exactly the not-yet-encoded part of the cone as a side
        effect; nothing is asserted.  The solver variables of the whole
        cone are appended to ``cone``, the query's decision scope: from
        the encoding walk, or from a new walk when an earlier query
        already encoded ``edge``.
        """
        node = edge >> 1
        node_var = self._node_var
        var = node_var.get(node)
        if var is None:
            self._encode_cone(edge, cone)
            var = node_var[node]
        else:
            self.stats.encode_cache_hits += 1
            cone.extend([node_var[n] for n in self.aig.cone_nodes(edge)])
        return -var if edge & 1 else var

    def _encode_cone(self, edge: int, cone: List[int]) -> None:
        aig = self.aig
        node_var = self._node_var
        stats = self.stats
        solver = self._solver
        for node in aig.cone_nodes(edge):
            if node in node_var:
                stats.encode_cache_hits += 1
                cone.append(node_var[node])
                continue
            if node == 0:
                var = solver.new_var()
                solver.add_clause([-var])
                stats.clauses_encoded += 1
            elif aig.is_input(node):
                var = self._var_for_input(aig.input_label(node))
            else:
                var = solver.new_var()
                f0, f1 = aig.fanins(node)
                a = node_var[f0 >> 1]
                if f0 & 1:
                    a = -a
                b = node_var[f1 >> 1]
                if f1 & 1:
                    b = -b
                solver.add_and_gate(var, a, b)
                stats.clauses_encoded += 3
            node_var[node] = var
            stats.nodes_encoded += 1
            cone.append(var)

    # ------------------------------------------------------------------
    # queries (assumption-based; nothing is ever asserted)
    # ------------------------------------------------------------------
    def _solve(
        self,
        assumptions,
        cone: List[int],
        conflict_limit: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> str:
        """One solver call that decides only on the variables of ``cone``."""
        solver = self._solver
        stats = self.stats
        conflicts = solver.conflicts
        decisions = solver.decisions
        propagations = solver.propagations
        stats.queries += 1
        stats.learnts_reused += solver.num_learnts
        status = solver.solve(
            assumptions, conflict_limit=conflict_limit, deadline=deadline, decide=cone
        )
        spent = solver.conflicts - conflicts
        stats.conflicts += spent
        stats.decisions += solver.decisions - decisions
        stats.propagations += solver.propagations - propagations
        if self.guard is not None:
            self.guard.charge_conflicts(spent)
        if status == SAT:
            stats.sat_answers += 1
        elif status == UNSAT:
            stats.unsat_answers += 1
        else:
            stats.unknown_answers += 1
        return status

    def is_satisfiable(self, root: int, deadline: Optional[float] = None) -> bool:
        """Semantic constant-0 test: is the function at ``root`` satisfiable?

        Raises :class:`~repro.errors.TimeoutExceeded` when ``deadline``
        passes mid-solve.
        """
        if root == FALSE:
            return False
        if root == TRUE:
            return True
        cone: List[int] = []
        status = self._solve([self._lit_of(root, cone)], cone, deadline=deadline)
        if status == UNKNOWN:
            raise TimeoutExceeded()
        return status == SAT

    def is_tautology(self, root: int, deadline: Optional[float] = None) -> bool:
        """Semantic constant-1 test via the complement."""
        return not self.is_satisfiable(root ^ 1, deadline)

    def implies(
        self, a: int, b: int, conflict_limit: Optional[int] = None
    ) -> Optional[bool]:
        """Does the function at ``a`` imply the function at ``b``?

        ``None`` when the conflict limit was exhausted before an answer.
        """
        if a == FALSE or b == TRUE or a == b:
            return True
        cone: List[int] = []
        status = self._solve(
            [self._lit_of(a, cone), -self._lit_of(b, cone)], cone, conflict_limit=conflict_limit
        )
        if status == UNKNOWN:
            return None
        return status == UNSAT

    def equivalent(
        self, a: int, b: int, conflict_limit: Optional[int] = None
    ) -> Optional[bool]:
        """Miter check: do ``a`` and ``b`` compute the same function?

        Returns ``True`` (proved), ``False`` (refuted — a distinguishing
        input assignment is then available via :meth:`model_inputs`), or
        ``None`` when the conflict limit was exhausted.
        """
        if a == b:
            return True
        if a == (b ^ 1):
            return False if a in (TRUE, FALSE) else self._refute_complement(a)
        cone: List[int] = []
        la, lb = self._lit_of(a, cone), self._lit_of(b, cone)
        status = self._solve([la, -lb], cone, conflict_limit=conflict_limit)
        if status == SAT:
            return False
        if status == UNKNOWN:
            return None
        status = self._solve([-la, lb], cone, conflict_limit=conflict_limit)
        if status == SAT:
            return False
        if status == UNKNOWN:
            return None
        return True

    def _refute_complement(self, a: int) -> Optional[bool]:
        """``a`` vs ``!a``: syntactically antivalent, produce a witness model."""
        cone: List[int] = []
        la = self._lit_of(a, cone)
        status = self._solve([la], cone)
        if status == UNKNOWN:  # pragma: no cover - no limit passed
            return None
        if status == UNSAT:
            # a is constant false: refuted with the all-default assignment
            status = self._solve([-la], cone)
        return False

    def model_inputs(self) -> Dict[int, bool]:
        """Input-label assignment from the last :data:`SAT` answer.

        Labels the solver never saw default to ``False`` on the caller's
        side (they are simply absent from the returned dict).
        """
        model = self._solver.model()
        return {
            label: model.get(var, False)
            for label, var in self._input_var.items()
        }
