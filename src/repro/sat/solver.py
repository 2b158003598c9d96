"""A CDCL SAT solver (the ``antom`` stand-in of the reproduction).

Implements the standard modern architecture: two-watched-literal
propagation, first-UIP conflict analysis with clause minimization, VSIDS
branching with phase saving, Luby restarts, LBD-based learned-clause
deletion, and an incremental assumption interface (needed by the MaxSAT
layer and by FRAIG sweeping).

Literals follow the DIMACS convention externally; internally literal
``l`` is encoded as ``2*v`` (positive) or ``2*v+1`` (negative) so watch
lists and values can live in flat lists.  ``_val[enc]`` is 1, -1 or 0
(true, false, unassigned) for every encoded literal: an assignment sets
both ``_val[enc]`` and ``_val[enc ^ 1]``, so reading a literal's value
is one list index with no sign flip.

The hot loops are written MiniSat-style (Eén & Sörensson, SAT 2003),
with the containers bound to locals and no per-literal method calls:
``_propagate`` inlines the value tests and the enqueue, ``_backtrack``
re-inserts unassigned variables into the VSIDS heap with the sift-up
inline, ``_pick_branch`` pops the heap with the sift-down inline, and
``_analyze`` bumps activities with the sift-up inline.  The search
trajectory (decisions, propagations, conflicts, learnt clauses, models
and cores, in order) is part of the solver's behaviour — every layer
above sees its models and cores — and ``TestTrajectoryOracle`` in
``tests/test_sat_solver.py`` pins it, so a rewrite may change only the
constant factor.

**Scoped calls.**  ``solve(decide=vars)`` branches only on ``vars`` and
answers SAT as soon as each of them is assigned without a conflict;
other variables may stay unassigned, and :meth:`CdclSolver.model` omits
them.  This is sound for a query about one AIG cone, with ``vars`` the
Tseitin variables of that cone:

* at a conflict-free propagation fixpoint, every clause whose variables
  are all assigned is satisfied (the two-watched-literal invariant: a
  clause with all literals false would have been found conflicting);
* every Tseitin clause of the cone mentions only cone variables;
* so the cone's clauses are satisfied, and its input values satisfy the
  queried root.

The call decides in VSIDS order over a heap of ``vars`` alone, built in
descending (activity, variable) order: among equal activities the most
recently created variable, the cone's gate nearest the root, is decided
first.  The sift loops keep their comparisons, which stop at an equal
activity, so afterwards equal activities are served in heap order (a
pop moves the heap's last entry, the oldest of such a run, to the
root).  Variables outside the scope are marked ``-2`` in ``_heap_pos``
and never re-enter the heap.  The next call without ``decide`` rebuilds
the full heap, and a solver that is never scoped runs exactly as
before.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


def _encode(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def _decode(enc: int) -> int:
    var = enc >> 1
    return var if (enc & 1) == 0 else -var


class _Clause:
    """A clause in the solver database."""

    __slots__ = ("lits", "learnt", "lbd", "activity")

    def __init__(self, lits: List[int], learnt: bool = False, lbd: int = 0):
        self.lits = lits
        self.learnt = learnt
        self.lbd = lbd
        self.activity = 0.0


class CdclSolver:
    """Conflict-driven clause-learning SAT solver.

    Typical use::

        solver = CdclSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        assert solver.solve() == SAT
        model = solver.model()          # {var: bool}
        assert solver.solve([-2]) == UNSAT
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        self._watches: List[List[_Clause]] = [[], []]
        self._val: List[int] = [0, 0]          # 1 true, -1 false, 0 unassigned (per literal)
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._trail: List[int] = []            # encoded literals
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: List[float] = [0.0]
        self._polarity: List[bool] = [False]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._order: List[int] = []            # lazy heap (indices = vars)
        # Slot of each variable in ``_order``: -1 when popped (re-inserted
        # on backtrack), -2 when outside a scoped call's ``decide`` set.
        self._heap_pos: List[int] = [-1]
        self._scoped = False                   # ``_order`` holds a decide set
        self._ok = True
        self._model: Dict[int, bool] = {}
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._failed_assumptions: List[int] = []
        self._seen: List[int] = [0]

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return its index."""
        self.num_vars += 1
        var = self.num_vars
        self._val.append(0)
        self._val.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._polarity.append(False)
        self._seen.append(0)
        self._watches.append([])
        self._watches.append([])
        # Activities are never negative, so a new variable (activity 0)
        # never sifts up: it goes to the end of the heap.
        self._heap_pos.append(len(self._order))
        self._order.append(var)
        return var

    def ensure_vars(self, max_var: int) -> None:
        while self.num_vars < max_var:
            self.new_var()

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns ``False`` if the database became trivially UNSAT."""
        if not self._ok:
            return False
        seen: Set[int] = set()
        clause: List[int] = []
        for lit in lits:
            if lit > 0:
                var = lit
                enc = lit << 1
            elif lit < 0:
                var = -lit
                enc = (var << 1) | 1
            else:
                raise ValueError("0 is not a literal")
            if var > self.num_vars:
                self.ensure_vars(var)
            if enc ^ 1 in seen:
                return True  # tautology
            if enc in seen:
                continue
            seen.add(enc)
            clause.append(enc)

        # Adding clauses is only supported at decision level 0.
        if self._trail_lim:
            self._backtrack(0)
        val = self._val
        kept: List[int] = []
        for enc in clause:
            value = val[enc]
            if value == 1:
                return True
            if value == 0:
                kept.append(enc)
        if not kept:
            self._ok = False
            return False
        if len(kept) == 1:
            if not self._enqueue(kept[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        record = _Clause(kept)
        self._clauses.append(record)
        self._watches[kept[0]].append(record)
        self._watches[kept[1]].append(record)
        return True

    def add_and_gate(self, out: int, a: int, b: int) -> None:
        """Add the Tseitin clauses of ``out <-> a & b``.

        The clauses ``(-out | a)``, ``(-out | b)`` and ``(out | -a | -b)``
        go in with the literal order, clause order and watches the three
        :meth:`add_clause` calls give them.  The short path applies when
        the solver is at level 0 and ``out``, ``a`` and ``b`` are
        allocated, unassigned, and on three distinct variables; anything
        else takes the three calls.
        """
        val = self._val
        var_a = a if a > 0 else -a
        var_b = b if b > 0 else -b
        if (
            not self._ok
            or self._trail_lim
            or not 0 < out <= self.num_vars
            or var_a > self.num_vars
            or var_b > self.num_vars
            or var_a == var_b
            or out == var_a
            or out == var_b
            or val[out << 1]
            or val[var_a << 1]
            or val[var_b << 1]
        ):
            self.add_clause([-out, a])
            self.add_clause([-out, b])
            self.add_clause([out, -a, -b])
            return
        enc_out = out << 1
        enc_a = a << 1 if a > 0 else (var_a << 1) | 1
        enc_b = b << 1 if b > 0 else (var_b << 1) | 1
        watches = self._watches
        clauses = self._clauses
        for lits in ([enc_out | 1, enc_a], [enc_out | 1, enc_b], [enc_out, enc_a ^ 1, enc_b ^ 1]):
            record = _Clause(lits)
            clauses.append(record)
            watches[lits[0]].append(record)
            watches[lits[1]].append(record)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        deadline: Optional[float] = None,
        decide: Optional[Iterable[int]] = None,
    ) -> str:
        """Solve under assumptions.

        Returns :data:`SAT`, :data:`UNSAT`, or :data:`UNKNOWN` when the
        optional ``conflict_limit`` was exhausted or the wall-clock
        ``deadline`` (a ``time.monotonic`` timestamp) passed.

        ``conflict_limit`` is a *per-call* budget: it counts conflicts
        from this call's entry, not over the solver's lifetime, so
        incremental sessions issuing many limited queries are not
        starved by earlier work.

        ``decide`` scopes the call to the variables it may branch on
        (see the module docstring): SAT is answered as soon as all of
        them are assigned without a conflict, and :meth:`model` then
        omits the variables left unassigned.
        """
        if not self._ok:
            return UNSAT
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        if decide is not None:
            decide = list(decide)
            if decide:
                self.ensure_vars(max(decide))
        self._model = {}
        self._failed_assumptions = []
        self._backtrack(0)
        if decide is not None:
            self._scope_heap(decide)
        elif self._scoped:
            self._full_heap()
        assumption_encs = [_encode(lit) for lit in assumptions]

        restarts = 0
        budget = self._conflicts + conflict_limit if conflict_limit is not None else -1

        while True:
            limit = _luby(restarts) * 100
            status = self._search(limit, assumption_encs, budget)
            if status is not None:
                self._backtrack(0)
                return status
            restarts += 1
            if budget >= 0 and self._conflicts >= budget:
                self._backtrack(0)
                return UNKNOWN
            if deadline is not None and time.monotonic() > deadline:
                self._backtrack(0)
                return UNKNOWN

    def model(self) -> Dict[int, bool]:
        """Return the satisfying assignment from the last :data:`SAT` answer.

        After a scoped call (``decide=``) it holds only the variables
        that call assigned.
        """
        return dict(self._model)

    def failed_assumptions(self) -> List[int]:
        """Subset of assumptions responsible for the last :data:`UNSAT` answer."""
        return list(self._failed_assumptions)

    @property
    def statistics(self) -> Dict[str, int]:
        return {
            "conflicts": self._conflicts,
            "decisions": self._decisions,
            "propagations": self._propagations,
            "clauses": len(self._clauses),
            "learnts": len(self._learnts),
        }

    # Single counters, for callers that read them around every query
    # and should not build the ``statistics`` dict each time.
    @property
    def conflicts(self) -> int:
        return self._conflicts

    @property
    def decisions(self) -> int:
        return self._decisions

    @property
    def propagations(self) -> int:
        return self._propagations

    @property
    def num_learnts(self) -> int:
        return len(self._learnts)

    # ------------------------------------------------------------------
    # core search
    # ------------------------------------------------------------------
    def _search(
        self, conflict_budget: int, assumptions: List[int], global_budget: int
    ) -> Optional[str]:
        trail = self._trail
        trail_lim = self._trail_lim
        val = self._val
        num_assumptions = len(assumptions)
        local_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self._conflicts += 1
                local_conflicts += 1
                if not trail_lim:
                    self._ok = False
                    return UNSAT
                learnt, backtrack_level = self._analyze(conflict)
                if len(trail_lim) <= num_assumptions:
                    # Conflict depends only on assumptions: compute the core.
                    self._analyze_final(conflict, assumptions)
                    self._ok = True
                    return UNSAT
                self._backtrack(max(backtrack_level, 0))
                self._record_learnt(learnt)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if 0 <= global_budget <= self._conflicts:
                    return None
                if local_conflicts >= conflict_budget:
                    self._backtrack(0)
                    return None
            else:
                # assumption handling
                next_decision = None
                while len(trail_lim) < num_assumptions:
                    enc = assumptions[len(trail_lim)]
                    value = val[enc]
                    if value == 1:
                        trail_lim.append(len(trail))
                        continue
                    if value == -1:
                        self._failed_from_assumption(enc, assumptions)
                        return UNSAT
                    next_decision = enc
                    break
                if next_decision is None:
                    next_decision = self._pick_branch()
                    if next_decision is None:
                        self._model = {
                            var: value == 1 for var, value in enumerate(val[2::2], 1) if value
                        }
                        return SAT
                    self._decisions += 1
                # The decision literal is unassigned: enqueue it inline.
                var = next_decision >> 1
                val[next_decision] = 1
                val[next_decision ^ 1] = -1
                self._level[var] = len(trail_lim) + 1
                self._reason[var] = None
                self._polarity[var] = (next_decision & 1) == 0
                trail_lim.append(len(trail))
                trail.append(next_decision)

    def _propagate(self) -> Optional[_Clause]:
        trail = self._trail
        watches = self._watches
        val = self._val
        level = self._level
        reason = self._reason
        polarity = self._polarity
        current = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[false_lit]
            # No clause gains a watch on false_lit while its list is
            # scanned (a new watch is never false), so the size is fixed.
            size = len(watchers)
            i = 0
            j = 0
            while i < size:
                clause = watchers[i]
                i += 1
                lits = clause.lits
                # Make sure the false literal is at position 1.
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                if val[first] == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                # Look for a new watch.
                for k in range(2, len(lits)):
                    lit = lits[k]
                    if val[lit] != -1:
                        lits[1] = lit
                        lits[k] = false_lit
                        watches[lit].append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    watchers[j] = clause
                    j += 1
                    if val[first] == -1:
                        # conflict: close the gap over the moved watchers
                        del watchers[j:i]
                        self._propagations += qhead - start
                        self._qhead = len(trail)
                        return clause
                    var = first >> 1
                    val[first] = 1
                    val[first ^ 1] = -1
                    level[var] = current
                    reason[var] = clause
                    polarity[var] = (first & 1) == 0
                    trail.append(first)
            del watchers[j:]
        self._propagations += qhead - start
        self._qhead = qhead
        return None

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        learnt: List[int] = [0]  # reserve slot for the asserting literal
        seen = self._seen
        level = self._level
        trail = self._trail
        activity = self._activity
        order = self._order
        heap_pos = self._heap_pos
        var_inc = self._var_inc
        counter = 0
        enc = -1
        index = len(trail) - 1
        reason: Optional[_Clause] = conflict
        current_level = len(self._trail_lim)

        while True:
            assert reason is not None
            if reason.learnt:
                self._bump_clause(reason)
            lits = reason.lits
            for k in range(0 if enc == -1 else 1, len(lits)):
                q = lits[k]
                var = q >> 1
                if seen[var] == 0 and level[var] > 0:
                    seen[var] = 1
                    # VSIDS bump, then sift the variable up its heap slot.
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale_activities()
                        var_inc = self._var_inc
                        act = activity[var]
                    slot = heap_pos[var]
                    if slot >= 0:
                        while slot > 0:
                            parent = (slot - 1) >> 1
                            above = order[parent]
                            if activity[above] >= act:
                                break
                            order[slot] = above
                            heap_pos[above] = slot
                            slot = parent
                        order[slot] = var
                        heap_pos[var] = slot
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # pick next literal to expand from the trail
            while seen[trail[index] >> 1] == 0:
                index -= 1
            enc = trail[index]
            index -= 1
            var = enc >> 1
            reason = self._reason[var]
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
        learnt[0] = enc ^ 1

        # Minimize: drop literals implied by the rest of the clause.
        cached = {lit >> 1 for lit in learnt}
        minimized = [learnt[0]]
        for lit in learnt[1:]:
            if not self._redundant(lit, cached):
                minimized.append(lit)
        # compute backtrack level and clean the seen markers
        for lit in learnt:
            seen[lit >> 1] = 0
        if len(minimized) == 1:
            return minimized, 0
        max_index = 1
        for k in range(2, len(minimized)):
            if level[minimized[k] >> 1] > level[minimized[max_index] >> 1]:
                max_index = k
        minimized[1], minimized[max_index] = minimized[max_index], minimized[1]
        return minimized, level[minimized[1] >> 1]

    def _redundant(self, enc: int, cached: Set[int]) -> bool:
        reason = self._reason[enc >> 1]
        if reason is None:
            return False
        level = self._level
        for other in reason.lits:
            var = other >> 1
            if var == enc >> 1:
                continue
            if level[var] == 0 or var in cached:
                continue
            return False
        return True

    def _analyze_final(self, conflict: _Clause, assumptions: List[int]) -> None:
        """Compute the subset of assumptions implying the conflict."""
        assumption_vars = {enc >> 1 for enc in assumptions}
        core: Set[int] = set()
        seen: Set[int] = set()
        stack = [lit >> 1 for lit in conflict.lits]
        while stack:
            var = stack.pop()
            if var in seen or self._level[var] == 0:
                continue
            seen.add(var)
            reason = self._reason[var]
            if reason is None:
                if var in assumption_vars:
                    core.add(var)
            else:
                stack.extend(lit >> 1 for lit in reason.lits)
        self._failed_assumptions = [
            _decode(enc) for enc in assumptions if (enc >> 1) in core
        ]

    def _failed_from_assumption(self, enc: int, assumptions: List[int]) -> None:
        """An assumption is already false; derive the failing subset."""
        core_vars: Set[int] = set()
        stack = [enc >> 1]
        seen: Set[int] = set()
        assumption_vars = {a >> 1 for a in assumptions}
        while stack:
            var = stack.pop()
            if var in seen or self._level[var] == 0:
                continue
            seen.add(var)
            reason = self._reason[var]
            if reason is None:
                if var in assumption_vars:
                    core_vars.add(var)
            else:
                stack.extend(lit >> 1 for lit in reason.lits)
        core_vars.add(enc >> 1)
        self._failed_assumptions = [
            _decode(a) for a in assumptions if (a >> 1) in core_vars
        ]

    def _record_learnt(self, lits: List[int]) -> None:
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return
        levels = {self._level[lit >> 1] for lit in lits}
        clause = _Clause(lits, learnt=True, lbd=len(levels))
        self._learnts.append(clause)
        self._attach(clause)
        self._bump_clause(clause)
        self._enqueue(lits[0], clause)
        if len(self._learnts) > 4000 + 8 * len(self._clauses):
            self._reduce_db()

    def _reduce_db(self) -> None:
        self._learnts.sort(key=lambda c: (c.lbd, -c.activity))
        keep = len(self._learnts) // 2
        locked = {id(self._reason[lit >> 1]) for lit in self._trail if self._reason[lit >> 1]}
        survivors: List[_Clause] = []
        for index, clause in enumerate(self._learnts):
            if index < keep or clause.lbd <= 2 or id(clause) in locked:
                survivors.append(clause)
            else:
                self._detach(clause)
        self._learnts = survivors

    # ------------------------------------------------------------------
    # assignment bookkeeping
    # ------------------------------------------------------------------
    def _enqueue(self, enc: int, reason: Optional[_Clause]) -> bool:
        value = self._val[enc]
        if value:
            return value == 1
        var = enc >> 1
        self._val[enc] = 1
        self._val[enc ^ 1] = -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._polarity[var] = (enc & 1) == 0
        self._trail.append(enc)
        return True

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        boundary = trail_lim[level]
        val = self._val
        reason = self._reason
        order = self._order
        heap_pos = self._heap_pos
        activity = self._activity
        for enc in reversed(trail[boundary:]):
            val[enc] = 0
            val[enc ^ 1] = 0
            var = enc >> 1
            reason[var] = None
            if heap_pos[var] == -1:
                # Re-insert into the VSIDS heap: append, then sift up.
                act = activity[var]
                slot = len(order)
                order.append(var)
                while slot > 0:
                    parent = (slot - 1) >> 1
                    above = order[parent]
                    if activity[above] >= act:
                        break
                    order[slot] = above
                    heap_pos[above] = slot
                    slot = parent
                order[slot] = var
                heap_pos[var] = slot
        del trail[boundary:]
        del trail_lim[level:]
        self._qhead = boundary

    def _attach(self, clause: _Clause) -> None:
        self._watches[clause.lits[0]].append(clause)
        self._watches[clause.lits[1]].append(clause)

    def _detach(self, clause: _Clause) -> None:
        for enc in clause.lits[:2]:
            watchers = self._watches[enc]
            try:
                watchers.remove(clause)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # VSIDS order (binary heap over activities)
    # ------------------------------------------------------------------
    def _pick_branch(self) -> Optional[int]:
        order = self._order
        heap_pos = self._heap_pos
        activity = self._activity
        val = self._val
        while order:
            # Pop the root; move the last entry there and sift it down.
            top = order[0]
            last = order.pop()
            heap_pos[top] = -1
            size = len(order)
            if size:
                act = activity[last]
                slot = 0
                left = 1
                while left < size:
                    best = left
                    right = left + 1
                    if right < size and activity[order[right]] > activity[order[left]]:
                        best = right
                    below = order[best]
                    if activity[below] <= act:
                        break
                    order[slot] = below
                    heap_pos[below] = slot
                    slot = best
                    left = 2 * slot + 1
                order[slot] = last
                heap_pos[last] = slot
            if val[top << 1] == 0:
                return (top << 1) | (0 if self._polarity[top] else 1)
        return None

    def _scope_heap(self, decide: Iterable[int]) -> None:
        """Make ``_order`` a heap over ``decide`` alone (see the module docstring)."""
        heap_pos = self._heap_pos
        # Every unassigned variable is in the heap or already -2, so only
        # the heap's entries need taking out of scope.
        for var in self._order:
            heap_pos[var] = -2
        # Descending (activity, variable) order is a valid heap: sort by
        # variable, then stably by activity.
        order = sorted(set(decide), reverse=True)
        order.sort(key=self._activity.__getitem__, reverse=True)
        for slot, var in enumerate(order):
            heap_pos[var] = slot
        self._order = order
        self._scoped = True

    def _full_heap(self) -> None:
        """Put every unassigned variable back in the heap after a scoped call."""
        val = self._val
        order = [var for var in range(1, self.num_vars + 1) if val[var << 1] == 0]
        order.sort(key=self._activity.__getitem__, reverse=True)
        heap_pos = self._heap_pos = [-1] * (self.num_vars + 1)
        for slot, var in enumerate(order):
            heap_pos[var] = slot
        self._order = order
        self._scoped = False

    def _rescale_activities(self) -> None:
        activity = self._activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learnts:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20


def _luby(index: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (0-indexed)."""
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq


def solve_cnf(
    clauses: Iterable[Iterable[int]], assumptions: Sequence[int] = ()
) -> Tuple[str, Dict[int, bool]]:
    """One-shot convenience wrapper: returns ``(status, model)``."""
    solver = CdclSolver()
    solver.add_clauses(clauses)
    status = solver.solve(assumptions)
    return status, solver.model() if status == SAT else {}
