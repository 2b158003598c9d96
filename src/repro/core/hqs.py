"""HQS — the paper's elimination-based DQBF solver (Fig. 3).

The pipeline:

1. CNF preprocessing (units, universal reduction, equivalences, Tseitin
   gate detection) — :mod:`repro.core.preprocess`;
2. AIG construction with gate inlining via ``compose``;
3. MaxSAT selection of a minimum universal elimination set —
   :mod:`repro.core.selection`;
4. main loop: unit/pure elimination on the AIG (Theorems 5/6),
   Theorem 2 existential elimination, Theorem 1 universal elimination of
   the selected variables (cheapest first) while the dependency graph is
   cyclic;
5. once acyclic: linearize the prefix (Theorem 3) and hand the AIG to
   the QBF back-end — :mod:`repro.qbf.aigsolve`: unit/pure rules, then a
   SAT endgame for one block or CEGAR for more.  Its only fallback is
   rung 3 of the degradation ladder: when it blows its stage slice,
   step 4's universal elimination carries on to the end.

The optional stages (preprocessing, unit/pure elimination, MaxSAT
selection, the QBF back-end, the SAT probe, FRAIG sweeps) and the
elimination order are switches of :class:`HqsOptions`, which is how the
ablation benchmarks and the [10]-style expansion baseline are realized.
Budgets and thresholds that no caller tunes are module constants.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set

from ..aig.cnf_bridge import cnf_to_aig, is_satisfiable
from ..aig.fraig import FraigEngine, FraigOptions
from ..aig.graph import FALSE, complement
from ..errors import (
    ConflictLimitExceeded,
    ResourceExhausted,
    StageBudgetExceeded,
    TimeoutExceeded,
)
from ..sat.incremental import AigSatSession
from ..formula.dqbf import Dqbf
from ..formula.lits import var_of
from ..qbf.aigsolve import QbfSolverStats, solve_aig_qbf
from .checkpoint import SolverCheckpoint, discard, formula_fingerprint
from .depgraph import incomparable_pairs, is_acyclic, linearize
from .elimination import eliminable_existentials, eliminate_existential, eliminate_universal
from .guard import ResourceGuard
from .preprocess import Gate, preprocess
from .result import SAT, UNSAT, SolveResult, exhausted_result
from .selection import (
    greedy_elimination_set,
    order_by_copy_cost,
    select_elimination_set,
)
from .state import COMPACT_RATIO, AigDqbf
from .unitpure import UnitPureStats, apply_unit_pure


#: Per-stage wall-clock timers in ``SolveResult.stats``, in pipeline
#: order.  Always present: a stage that never ran reports 0.0.
STAGE_TIMERS = (
    "time_preprocess",
    "time_aig_build",
    "time_probe",
    "time_maxsat",
    "time_fraig",
    "time_eliminate",
    "time_qbf",
)


#: Clause budget of the AigSatSession that serves every SAT query of one
#: solve (FRAIG miters, constant checks, endgames).  Every solve builds
#: its own session; nothing carries over between solves.
SAT_SESSION_MAX_CLAUSES = 200_000

#: Degradation-ladder stage budgets.  Each pipeline stage that can blow
#: a whole budget on its own (MaxSAT selection, FRAIG SAT sweeping, the
#: QBF back-end) gets a bounded slice of the remaining resources; going
#: over it triggers the cheaper fallback instead of sinking the solve.
#: A fraction <= 0 expires its slice at once.
MAXSAT_CONFLICT_BUDGET = 50_000
MAXSAT_TIME_FRACTION = 0.25
FRAIG_TIME_FRACTION = 0.25
QBF_TIME_FRACTION = 0.8


class HqsOptions:
    """Feature switches for HQS (all on by default, as in the paper)."""

    def __init__(
        self,
        use_preprocessing: bool = True,
        use_unit_pure: bool = True,
        use_maxsat_selection: bool = True,
        use_qbf_backend: bool = True,
        use_sat_probe: bool = False,
        elimination_order: str = "copies",
        fraig_interval: int = 0,
    ):
        self.use_preprocessing = use_preprocessing
        self.use_unit_pure = use_unit_pure
        self.use_maxsat_selection = use_maxsat_selection
        # Once the dependency graph is acyclic, decide with the QBF
        # back-end (unit/pure rules, the one-block SAT endgame, else
        # CEGAR).  Off = keep eliminating universals to the end.
        self.use_qbf_backend = use_qbf_backend
        # The improvement suggested at the end of Section IV: one SAT call
        # on the all-zero universal branch catches the instances iDQ
        # refutes with a single ground solve.  Off by default, matching
        # the evaluated HQS configuration.
        self.use_sat_probe = use_sat_probe
        # "copies" orders elimination candidates by the number of
        # existential copies (the paper's heuristic); "growth" by the
        # estimated AIG duplication (the conclusion's future-work
        # direction, cf. elimination.universal_growth_estimate).
        if elimination_order not in ("copies", "growth"):
            raise ValueError(f"unknown elimination order {elimination_order!r}")
        self.elimination_order = elimination_order
        self.fraig_interval = fraig_interval


class HqsSolver:
    """One-shot solver object; create per formula.

    With ``trace=True`` the solver records a human-readable event list
    (`solver.trace`) describing every pipeline stage: preprocessing
    outcome, MaxSAT selection, each elimination with the matrix size it
    produced, and the endgame taken — the paper's Fig. 3 as a log.
    """

    def __init__(
        self,
        options: Optional[HqsOptions] = None,
        trace: bool = False,
    ):
        self.options = options or HqsOptions()
        self.stats: Dict[str, float] = {}
        self.trace: List[str] = []
        self._tracing = trace
        self._kernel_counters = None
        self._sat_session: Optional[AigSatSession] = None
        self._fraig_engine: Optional[FraigEngine] = None

    def _trace(self, message: str) -> None:
        if self._tracing:
            self.trace.append(message)

    def _add_time(self, key: str, tick: float) -> None:
        """Accumulate elapsed wall-clock since ``tick`` into a stage timer."""
        self.stats[key] = self.stats.get(key, 0.0) + (time.monotonic() - tick)

    @contextmanager
    def _timed(self, key: str) -> Iterator[None]:
        """Accumulate the wall-clock of the ``with`` body into a stage timer."""
        tick = time.monotonic()
        try:
            yield
        finally:
            self._add_time(key, tick)

    # ------------------------------------------------------------------
    def solve(
        self,
        formula: Dqbf,
        limits=None,
        checkpoint: Optional[str] = None,
    ) -> SolveResult:
        """Solve ``formula`` under ``limits`` (a
        :class:`~repro.core.result.Limits` or an existing
        :class:`~repro.core.guard.ResourceGuard` to share a caller's
        budget).

        Resource exhaustion never escapes: the result's status is then
        ``UNKNOWN`` and ``result.failure`` carries a machine-readable
        :class:`~repro.errors.FailureDiagnosis` (stage, resource,
        progress made).

        ``checkpoint`` names a file for anytime snapshots: the solver
        resumes from it when present (same formula), rewrites it after
        each eliminated universal, and removes it once the solve
        completes.
        """
        guard = ResourceGuard.ensure(limits)
        self.stats = {}
        # Per-stage wall-clock accounting, always present (0.0 when a
        # stage never ran) so sweep reports can aggregate uniformly.
        for key in STAGE_TIMERS:
            self.stats[key] = 0.0
        self.trace = []
        start = time.monotonic()
        self._kernel_counters = None
        self._sat_session = None
        self._fraig_engine = None
        exhausted: Optional[ResourceExhausted] = None
        answer = False
        try:
            answer = self._solve_inner(formula, guard, checkpoint)
            discard(checkpoint)
        except ResourceExhausted as exc:
            exhausted = exc
        finally:
            self._export_kernel_stats()
            self._export_sat_stats()
            self._export_guard_stats(guard)
        runtime = time.monotonic() - start
        if exhausted is not None:
            return exhausted_result(exhausted, guard, runtime, dict(self.stats))
        return SolveResult(SAT if answer else UNSAT, runtime, dict(self.stats))

    # ------------------------------------------------------------------
    def _solve_inner(
        self,
        formula: Dqbf,
        guard: ResourceGuard,
        checkpoint_path: Optional[str] = None,
    ) -> bool:
        options = self.options
        formula.validate()

        # Anytime resume: a matching checkpoint skips preprocessing, AIG
        # construction and selection and re-enters the elimination loop
        # where the previous run left off.  Any problem with the file
        # (missing, corrupt, different formula) just starts fresh.
        fingerprint: Optional[str] = None
        resumed: Optional[SolverCheckpoint] = None
        if checkpoint_path is not None:
            fingerprint = formula_fingerprint(formula)
            resumed, corrupt = SolverCheckpoint.load_or_quarantine(
                checkpoint_path, fingerprint
            )
            if corrupt is not None:
                # A bad snapshot must cost a restart, never the answer:
                # record the diagnosis and fall through to a fresh solve.
                self.stats["checkpoint_corrupt"] = 1
                self._trace(f"checkpoint unusable, starting fresh: {corrupt}")
        if resumed is not None:
            return self._resume(resumed, guard, checkpoint_path, fingerprint)

        guard.enter_stage("preprocess")
        gates: List[Gate] = []
        if options.use_preprocessing:
            with self._timed("time_preprocess"):
                pre = preprocess(formula, guard=guard)
            self.stats.update({f"pre_{k}": v for k, v in pre.stats.as_dict().items()})
            if pre.status is not None:
                self._trace(f"preprocessing decided the formula: {pre.status}")
                return pre.status
            self._trace(
                f"preprocessing: {pre.stats.units_propagated} units, "
                f"{pre.stats.universal_reductions} universal reductions, "
                f"{pre.stats.equivalences_substituted} equivalences, "
                f"{pre.stats.gates_detected} gates"
            )
            work = pre.formula
            gates = pre.gates
        else:
            work = formula.copy()

        guard.check()
        with self._timed("time_aig_build"):
            state = self._build_state(work, gates)
        state.prune_prefix()
        self._bind_services(state, guard)
        self.stats["initial_matrix_size"] = state.matrix_size()
        if state.root > 1:
            self.stats["initial_matrix_level"] = state.aig.level_of(state.root)
        self._trace(
            f"matrix AIG built: {state.matrix_size()} AND nodes, "
            f"{len(state.prefix.universals)} universal / "
            f"{len(state.prefix.existentials)} existential variables "
            f"({state.aig.backend} kernel)"
        )

        if options.use_sat_probe:
            with self._timed("time_probe"):
                refuted = not self._sat_probe(state, guard)
            if refuted:
                # The all-zero universal branch has no satisfying existential
                # assignment, so no Skolem functions can exist.
                self.stats["sat_probe_refuted"] = 1
                self._trace("SAT probe refuted the all-zero branch: UNSAT")
                return False

        eliminations = {"universal": 0, "existential": 0}

        # MaxSAT selection of the minimum elimination set (computed once,
        # before the main loop, as in the paper).  Ladder rung 1: when
        # the MaxSAT search blows its stage budget, fall back to the
        # greedy dependency-graph covering heuristic — a larger but
        # still valid elimination set, for a bounded price.
        elimination_pool: List[int] = []
        if options.use_maxsat_selection:
            guard.enter_stage("selection")
            tick = time.monotonic()
            try:
                selection = select_elimination_set(
                    state.prefix,
                    conflict_limit=MAXSAT_CONFLICT_BUDGET,
                    deadline=guard.stage_deadline(MAXSAT_TIME_FRACTION),
                )
                self._trace(
                    f"MaxSAT selection: eliminate {selection.variables} "
                    f"({selection.num_pairs} incomparable pairs)"
                )
            except StageBudgetExceeded:
                guard.check()  # whole-solve budget gone instead? raise it
                selection = greedy_elimination_set(state.prefix)
                self.stats["degrade_maxsat"] = 1
                self._trace(
                    f"MaxSAT selection over budget: greedy fallback "
                    f"eliminates {selection.variables}"
                )
            self._add_time("time_maxsat", tick)
            elimination_pool = list(selection.variables)
            self.stats["maxsat_time"] = selection.maxsat_time
            self.stats["maxsat_pairs"] = selection.num_pairs
            self.stats["maxsat_conflicts"] = selection.conflicts
            self.stats["maxsat_decisions"] = selection.decisions
            self.stats["selected_universals"] = len(elimination_pool)

        return self._elimination_loop(
            state, guard, elimination_pool, eliminations, checkpoint_path, fingerprint
        )

    # ------------------------------------------------------------------
    def _resume(
        self,
        resumed: SolverCheckpoint,
        guard: ResourceGuard,
        checkpoint_path: str,
        fingerprint: str,
    ) -> bool:
        """Re-enter the elimination loop from a saved snapshot.

        The resumed run gets the *fresh* budget it was called with; the
        previous run's spend is absorbed into the guard so cumulative
        effort still shows up in stats and diagnoses.
        """
        state = resumed.restore_state()
        state.prune_prefix()
        self._bind_services(state, guard)
        self.stats.update(resumed.stats)
        self.stats["checkpoint_resumed"] = 1
        guard.absorb_checkpoint(resumed.elapsed, resumed.conflicts)
        self._trace(
            f"resumed from checkpoint: {resumed.eliminations} eliminated, "
            f"matrix {state.matrix_size()} nodes, "
            f"{resumed.elapsed:.3f}s prior work"
        )
        return self._elimination_loop(
            state,
            guard,
            list(resumed.elimination_pool),
            dict(resumed.eliminations),
            checkpoint_path,
            fingerprint,
        )

    # ------------------------------------------------------------------
    def _bind_services(self, state: AigDqbf, guard: ResourceGuard) -> None:
        """Attach the kernel counters, SAT session and FRAIG engine."""
        # Kernel counters live on the AIG manager and survive compaction
        # (extract shares the object); keep a handle for stats export.
        self._kernel_counters = state.aig.counters
        self.stats["kernel_backend_numpy"] = int(state.aig.backend == "numpy")
        # One SAT session serves every query of the run.  Every query
        # charges its conflicts to the guard.
        self._sat_session = AigSatSession(
            state.aig,
            max_clauses=SAT_SESSION_MAX_CLAUSES,
            guard=guard,
        )
        self._fraig_engine = FraigEngine(FraigOptions())

    # ------------------------------------------------------------------
    def _elimination_loop(
        self,
        state: AigDqbf,
        guard: ResourceGuard,
        elimination_pool: List[int],
        eliminations: Dict[str, int],
        checkpoint_path: Optional[str],
        fingerprint: Optional[str],
    ) -> bool:
        options = self.options
        unit_pure_stats = UnitPureStats()
        unit_pure_time = 0.0
        qbf_stats = QbfSolverStats()
        # Ladder rung 3: once the QBF back-end blows its stage slice it
        # stays off for the rest of the solve and the loop keeps
        # expanding universals (the bounded-expansion fallback).
        qbf_enabled = options.use_qbf_backend

        fraig_countdown = options.fraig_interval
        guard.enter_stage("elimination")

        while True:
            guard.check()
            self._maybe_compact(state)
            guard.check_nodes(state.matrix_size())
            guard.note(
                universal_eliminations=eliminations["universal"],
                existential_eliminations=eliminations["existential"],
            )

            constant = state.is_constant()
            if constant is not None:
                return constant

            if options.use_unit_pure:
                tick = time.monotonic()
                decided = apply_unit_pure(state, unit_pure_stats, guard=guard)
                unit_pure_time += time.monotonic() - tick
                self.stats["unit_pure_time"] = unit_pure_time
                self._export_unit_pure(unit_pure_stats)
                if decided is not None:
                    return decided
            state.prune_prefix()

            # Theorem 2: eliminate existentials depending on all universals.
            tick = time.monotonic()
            progressed = True
            while progressed:
                progressed = False
                for y in eliminable_existentials(state):
                    guard.check()
                    eliminate_existential(state, y)
                    eliminations["existential"] += 1
                    self._trace(
                        f"Theorem 2: eliminated existential {y}, "
                        f"matrix {state.matrix_size()} nodes"
                    )
                    progressed = True
                constant = state.is_constant()
                if constant is not None:
                    self._add_time("time_eliminate", tick)
                    self._export_eliminations(eliminations)
                    return constant
                state.prune_prefix()
            self._add_time("time_eliminate", tick)

            if not state.prefix.universals:
                # Pure SAT endgame.
                self._export_eliminations(eliminations)
                self._trace("no universals left: SAT endgame")
                guard.enter_stage("sat-endgame")
                return is_satisfiable(
                    state.aig, state.root, guard.deadline(), self._sat_session
                )

            if is_acyclic(state.prefix):
                self._export_eliminations(eliminations)
                if qbf_enabled:
                    # Ladder rung 3: the back-end runs on a bounded slice
                    # of the remaining budget.  Blowing the slice leaves
                    # the state intact (the root is only reassigned on
                    # success), so the loop can continue with bounded
                    # expansion instead of giving up.
                    blocked = linearize(state.prefix)
                    self._trace(
                        f"dependency graph acyclic: QBF back-end with prefix {blocked!r}"
                    )
                    qbf_guard = guard.slice(
                        time_fraction=QBF_TIME_FRACTION,
                        stage="qbf-backend",
                    )
                    tick = time.monotonic()
                    try:
                        result = solve_aig_qbf(
                            state.aig,
                            state.root,
                            blocked,
                            qbf_guard,
                            use_unit_pure=options.use_unit_pure,
                            stats=qbf_stats,
                            sat_session=self._sat_session,
                        )
                        self._add_time("time_qbf", tick)
                        self.stats.update(
                            {f"qbf_{k}": v for k, v in qbf_stats.as_dict().items()}
                        )
                        self._trace(f"QBF back-end decided by {_backend_path(qbf_stats)}")
                        return result
                    except (
                        StageBudgetExceeded,
                        TimeoutExceeded,
                        ConflictLimitExceeded,
                    ):
                        self._add_time("time_qbf", tick)
                        guard.check()  # whole-solve budget gone? raise it
                        qbf_enabled = False
                        self.stats["degrade_qbf"] = 1
                        self.stats.update(
                            {f"qbf_{k}": v for k, v in qbf_stats.as_dict().items()}
                        )
                        guard.enter_stage("elimination")
                        self._trace(
                            "QBF back-end over budget: bounded expansion fallback"
                        )
                # Expansion path (ablation baseline, or the rung-3
                # fallback after a degraded back-end).
                x = self._next_universal(state, list(state.prefix.universals))
            else:
                candidates = [
                    x for x in elimination_pool if state.prefix.is_universal(x)
                ]
                if not candidates:
                    candidates = self._fallback_candidates(state)
                x = self._next_universal(state, candidates)

            tick = time.monotonic()
            copies = eliminate_universal(state, x, guard=guard)
            self._add_time("time_eliminate", tick)
            eliminations["universal"] += 1
            self._trace(
                f"Theorem 1: eliminated universal {x} "
                f"({len(copies)} copies), matrix {state.matrix_size()} nodes"
            )
            self._export_eliminations(eliminations)

            if checkpoint_path is not None:
                self._save_checkpoint(
                    checkpoint_path,
                    fingerprint,
                    state,
                    elimination_pool,
                    eliminations,
                    guard,
                )

            if options.fraig_interval:
                fraig_countdown -= 1
                if fraig_countdown <= 0:
                    fraig_countdown = options.fraig_interval
                    self._fraig(state, guard)

    # ------------------------------------------------------------------
    def _build_state(self, work: Dqbf, gates: List[Gate]) -> AigDqbf:
        """Create the AIG matrix, inlining detected gates via compose."""
        aig, root = cnf_to_aig(work.matrix.clauses)
        if gates:
            gate_edges: Dict[int, int] = {}
            for gate in gates:  # inputs-first order
                inputs = []
                for lit in gate.inputs:
                    v = var_of(lit)
                    edge = gate_edges.get(v)
                    if edge is None:
                        edge = aig.var(v)
                    inputs.append(complement(edge) if lit < 0 else edge)
                if gate.kind == "and":
                    edge = aig.land_many(inputs)
                elif gate.kind == "or":
                    edge = aig.lor_many(inputs)
                elif gate.kind == "xor":
                    edge = inputs[0]
                    for other in inputs[1:]:
                        edge = aig.lxor(edge, other)
                else:  # pragma: no cover
                    raise ValueError(f"unknown gate kind {gate.kind}")
                gate_edges[gate.output] = edge
            root = aig.compose(root, gate_edges)
            for gate in gates:
                if work.prefix.quantifies(gate.output):
                    work.prefix.remove_variable(gate.output)
        next_var = max(
            [work.matrix.num_vars]
            + work.prefix.all_variables()
            + [0]
        ) + 1
        return AigDqbf(aig, root, work.prefix, next_var)

    def _sat_probe(self, state: AigDqbf, guard: ResourceGuard) -> bool:
        """One SAT call on the all-zero universal branch (Section IV).

        If the matrix restricted to ``x := 0`` for every universal has no
        satisfying assignment of the existentials, the DQBF is trivially
        unsatisfied.  Returns ``False`` exactly in that refuting case.
        """
        constant = state.is_constant()
        if constant is not None:
            return constant
        branch = state.aig.compose(
            state.root, {x: FALSE for x in state.prefix.universals}
        )
        return is_satisfiable(
            state.aig, branch, guard.deadline(), self._sat_session
        )

    def _maybe_compact(self, state: AigDqbf) -> None:
        live = state.matrix_size()
        if state.aig.num_nodes > COMPACT_RATIO * max(live, 64):
            state.compact()
            if self._sat_session is not None:
                self._sat_session.rebind(state.aig)

    def _fraig(self, state: AigDqbf, guard: ResourceGuard) -> None:
        # Ladder rung 2: the sweep's SAT merging runs on a bounded time
        # slice; past it the engine finishes in structural-hashing-only
        # mode (still sound, still compacting) and reports the
        # degradation, which we count as ``degrade_fraig``.
        counters = state.aig.counters
        generation = state.aig.cache_generation
        tick = time.monotonic()
        try:
            fresh, root = self._fraig_engine.sweep(
                state.aig,
                state.root,
                session=self._sat_session,
                deadline=guard.stage_deadline(FRAIG_TIME_FRACTION),
            )
        finally:
            self._add_time("time_fraig", tick)
        if self._fraig_engine.last_sweep_degraded:
            self.stats["degrade_fraig"] = self.stats.get("degrade_fraig", 0) + 1
            self._trace("FRAIG sweep over budget: strash-only compaction")
        # FRAIG rebuilds into a brand-new manager: keep accumulating
        # kernel work in the same counters and advance the generation.
        fresh.counters = counters
        fresh.cache_generation = generation + 1
        state.aig = fresh
        state.root = root
        if self._sat_session is not None:
            self._sat_session.rebind(fresh)

    def _next_universal(self, state: AigDqbf, candidates: List[int]) -> int:
        if self.options.elimination_order == "growth":
            from .elimination import universal_growth_estimate

            return min(
                candidates, key=lambda x: (universal_growth_estimate(state, x), x)
            )
        ordered = order_by_copy_cost(state.prefix, candidates)
        return ordered[0]

    def _fallback_candidates(self, state: AigDqbf) -> List[int]:
        """Without MaxSAT selection: universals occurring in some pair difference."""
        pool: Set[int] = set()
        for y, y_prime in incomparable_pairs(state.prefix):
            d_y = state.prefix.dependencies(y)
            d_yp = state.prefix.dependencies(y_prime)
            pool |= d_y ^ d_yp
        if not pool:  # pragma: no cover - cyclic prefix always has pairs
            pool = set(state.prefix.universals)
        return sorted(pool)

    def _save_checkpoint(
        self,
        path: str,
        fingerprint: Optional[str],
        state: AigDqbf,
        elimination_pool: List[int],
        eliminations: Dict[str, int],
        guard: ResourceGuard,
    ) -> None:
        snapshot = SolverCheckpoint.capture(
            fingerprint or "",
            state,
            elimination_pool,
            eliminations,
            self.stats,
            elapsed=guard.prior_elapsed + guard.elapsed(),
            conflicts=guard.prior_conflicts + guard.conflicts,
        )
        snapshot.save(path)
        self.stats["checkpoint_writes"] = self.stats.get("checkpoint_writes", 0) + 1

    def _export_guard_stats(self, guard: ResourceGuard) -> None:
        self.stats["guard_checks"] = guard.checks
        self.stats["guard_conflicts"] = guard.conflicts
        if guard.prior_elapsed:
            self.stats["prior_elapsed"] = guard.prior_elapsed
        if guard.prior_conflicts:
            self.stats["prior_conflicts"] = guard.prior_conflicts

    def _export_unit_pure(self, stats: UnitPureStats) -> None:
        self.stats["units_eliminated"] = stats.units_eliminated
        self.stats["pures_eliminated"] = stats.pures_eliminated

    def _export_eliminations(self, counters: Dict[str, int]) -> None:
        self.stats["universal_eliminations"] = counters["universal"]
        self.stats["existential_eliminations"] = counters["existential"]

    def _export_kernel_stats(self) -> None:
        """Publish the AIG kernel counters as ``kernel_*`` stats fields."""
        counters = self._kernel_counters
        if counters is None:
            return
        raw = counters.as_dict()
        for key, value in raw.items():
            self.stats[f"kernel_{key}"] = value
        lookups = raw["strash_lookups"]
        self.stats["kernel_strash_hit_rate"] = (
            raw["strash_hits"] / lookups if lookups else 0.0
        )
        support_queries = raw["support_cache_hits"] + raw["support_cache_misses"]
        self.stats["kernel_support_cache_hit_rate"] = (
            raw["support_cache_hits"] / support_queries if support_queries else 0.0
        )
        unitpure_queries = raw["unitpure_cache_hits"] + raw["unitpure_cache_misses"]
        self.stats["kernel_unitpure_cache_hit_rate"] = (
            raw["unitpure_cache_hits"] / unitpure_queries if unitpure_queries else 0.0
        )
        self._trace(
            f"kernel: {raw['rebuild_passes']} rebuild passes, "
            f"{raw['fused_passes']} fused passes, "
            f"{raw['nodes_visited']} nodes visited, "
            f"{raw['nodes_shared']} shared, "
            f"strash hit rate {self.stats['kernel_strash_hit_rate']:.2f}"
        )

    def _export_sat_stats(self) -> None:
        """Publish the SAT session counters as ``sat_*`` stats fields."""
        session = self._sat_session
        if session is None:
            return
        raw = session.stats
        for key, value in raw.as_dict().items():
            self.stats[f"sat_{key}"] = value
        if self._fraig_engine is not None:
            self.stats["sat_fraig_sweeps"] = self._fraig_engine.sweeps
        if raw.queries:
            self._trace(
                f"sat service: {raw.queries} queries "
                f"({raw.sat_answers} SAT / {raw.unsat_answers} UNSAT), "
                f"{raw.conflicts} conflicts, "
                f"{raw.clauses_encoded} clauses encoded, "
                f"{raw.encode_cache_hits} encode cache hits, "
                f"{raw.counterexamples} counterexamples absorbed"
            )


def _backend_path(stats: QbfSolverStats) -> str:
    """Which part of the QBF back-end reached its verdict."""
    if stats.cegar_rounds:
        return "CEGAR"
    return "unit/pure rules and the SAT endgame"


def solve_dqbf(
    formula: Dqbf,
    limits=None,
    options: Optional[HqsOptions] = None,
    checkpoint: Optional[str] = None,
) -> SolveResult:
    """Solve a DQBF with HQS; the main public entry point of the library."""
    return HqsSolver(options).solve(formula, limits, checkpoint=checkpoint)
