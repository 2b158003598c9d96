"""Counterexample-guided QBF solving over the AIG (RAReQS).

Expanding a universal block of ``n`` variables conjoins ``2^n``
cofactors, one variable at a time.  Recursive abstraction refinement
(Janota et al., "Solving QBF with counterexample guided refinement",
AIJ 2016; the clausal form is Tentrup & Rabe, "Clausal Abstraction for
DQBF") instantiates only the opponent moves that actually refute a
candidate.

The game on ``∃X ∀Y Q Z … φ``: the ∃ player keeps an *abstraction*,
the conjunction of ``φ|μ`` over the counter-moves ``μ`` of ``Y`` found
so far, with the inner blocks' variables of each instance renamed to
fresh labels.  Each round solves the abstraction (recursively: it has
two fewer blocks per instance) for a candidate ``τ`` of ``X``, then
plays the opponent's game ``∃Y Q̄ Z … ¬φ|τ``.  A counter-move refines
the abstraction; none means ``τ`` wins.

* **FALSE is sound**: every instance is implied by ``∀Y``, so the
  abstraction over-approximates the formula.
* **TRUE is exact**: it is returned only when the opponent's game,
  decided by the same procedure, has no counter-move.
* **Seeding**: each game starts its abstraction from the counter-moves
  its previous round found.  Any complete opponent assignment gives a
  valid instance, so a seed can only save rounds.

A formula whose outermost block is universal is solved as the
complement.  All SAT queries go through one private
:class:`~repro.sat.incremental.AigSatSession` per call.  There is no
budget of its own: :func:`solve_cegar` always decides, and only the
caller's guard (deadline, conflict or node limit) can stop it.

**Later rounds do not pay for earlier ones.**  Every round encodes new
restricted copies into the one solver, which ends up holding several
times the variables of any one query.  Two things keep a round's cost
to what its own query needs:

* the session decides only inside the queried root's cone, so a SAT
  answer never has to assign the copies of other frames or rounds;
* each frame of :meth:`_Game.solve` keeps one
  :class:`~repro.aig.graph.RestrictMemo` per restriction site: the
  candidate's ``restrict(root, τ)`` and the counter-move's inside
  :meth:`_Game._instance`.  Within a frame the root and the restricted
  variables are fixed, so a round rebuilds only the nodes that depend
  on a variable whose value changed since the previous round; the
  result is the same edge a plain call returns.  A memo lives as long
  as its frame; nothing is cached across :func:`solve_cegar` calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..aig.graph import FALSE, TRUE, Aig, RestrictMemo
from ..core.guard import ResourceGuard
from ..formula.prefix import EXISTS, FORALL
from ..sat.incremental import AigSatSession

if TYPE_CHECKING:  # pragma: no cover - aigsolve imports this module
    from .aigsolve import QbfSolverStats

Block = Tuple[str, List[int]]
Move = Dict[int, bool]


def solve_cegar(
    aig: Aig,
    root: int,
    blocks: Sequence[Tuple[str, Sequence[int]]],
    limits=None,
    stats: Optional["QbfSolverStats"] = None,
    sat_session: Optional[AigSatSession] = None,
) -> bool:
    """Decide the closed QBF ``blocks . root``.

    ``blocks`` alternate quantifiers, outermost first, as
    :attr:`~repro.formula.prefix.BlockedPrefix.blocks` gives them.
    Nothing the caller holds is changed: new nodes go into ``aig``, but
    ``root`` and ``blocks`` are untouched, so the caller can continue
    from the same state when the guard stops the call.

    ``limits`` is a guard or ``Limits``: it is checked every round and
    after every SAT query, its deadline bounds every SAT call, and the
    SAT conflicts are charged to it.  Its exhaustion raises as usual.
    ``sat_session`` only lends its counters: the queries run on a
    private solver, because the clauses of the copies CEGAR introduces
    would stay in a shared one's database for the rest of the solve.
    """
    guard = ResourceGuard.ensure(limits)
    if stats is None:
        from .aigsolve import QbfSolverStats

        stats = QbfSolverStats()
    session = AigSatSession(
        aig, guard=guard, stats=None if sat_session is None else sat_session.stats
    )
    game = _Game(aig, session, guard, stats)
    blocks = [(quantifier, list(variables)) for quantifier, variables in blocks]
    negated = bool(blocks) and blocks[0][0] == FORALL
    if negated:
        root, blocks = root ^ 1, _dual(blocks)
    move, _counters = game.solve(root, blocks or [(EXISTS, [])], [])
    return (move is None) if negated else (move is not None)


def _dual(blocks: Sequence[Block]) -> List[Block]:
    """The same blocks with every quantifier flipped (the opponent's view)."""
    return [(EXISTS if q == FORALL else FORALL, variables) for q, variables in blocks]


class _Game:
    """State shared by the recursive games of one :func:`solve_cegar` call."""

    def __init__(
        self, aig: Aig, session: AigSatSession, guard: ResourceGuard, stats
    ) -> None:
        self.aig = aig
        self.session = session
        self.guard = guard
        self.stats = stats
        self.next_label = aig.max_input_label() + 1

    def solve(
        self, root: int, blocks: List[Block], seeds: List[Move]
    ) -> Tuple[Optional[Move], List[Move]]:
        """Play ``∃ blocks[0] … root`` for the ∃ player.

        Returns a winning move for ``blocks[0]`` (``None`` when the
        player loses) and the counter-moves of ``blocks[1]`` the
        abstraction was refined with, to seed the next round's game.
        """
        outer = blocks[0][1]
        if len(blocks) == 1:
            return self._sat(root, outer), []
        aig, guard, stats = self.aig, self.guard, self.stats
        opponent = blocks[1][1]
        inner = blocks[2:]
        reply = _dual(blocks[1:])
        abstraction = TRUE
        abstract_blocks: List[Block] = [(EXISTS, list(outer))]
        counters: List[Move] = []
        abstract_seeds: List[Move] = []
        reply_seeds: List[Move] = []
        # ``root``, ``outer`` and ``opponent`` are fixed for the frame, so
        # each restriction site redoes only what the new values change.
        candidate_memo, move_memo = RestrictMemo(), RestrictMemo()
        # The abstraction only grows (the cone of ``land(A, I)`` is A's
        # plus I's plus the new node), so its size is kept incrementally.
        abstraction_cone: Set[int] = set()
        abstraction_size = 0
        pending = list(seeds)
        while True:
            guard.check()
            for move in pending:
                instance = self._instance(
                    root, opponent, move, inner, abstract_blocks, move_memo
                )
                abstraction = aig.land(abstraction, instance)
                counters.append(move)
            if abstraction == FALSE:
                return None, counters
            abstraction_size += aig.grow_cone(abstraction, abstraction_cone)
            guard.check_nodes(abstraction_size)
            stats.cegar_rounds += 1
            guard.note(qbf_cegar_rounds=float(stats.cegar_rounds))
            candidate, abstract_seeds = self.solve(
                abstraction, abstract_blocks, abstract_seeds
            )
            if candidate is None:
                return None, counters
            tau = {x: candidate.get(x, False) for x in outer}
            counter, reply_seeds = self.solve(
                aig.restrict(root, tau, candidate_memo) ^ 1, reply, reply_seeds
            )
            if counter is None:
                return tau, counters
            pending = [counter]

    def _instance(
        self,
        root: int,
        opponent: List[int],
        move: Move,
        inner: List[Block],
        abstract_blocks: List[Block],
        memo: RestrictMemo,
    ) -> int:
        """``root`` under the opponent's ``move``, inner blocks renamed fresh.

        The fresh copies join the abstraction's prefix: inner block ``k``
        (its player alternates like the original's) merges into
        abstraction block ``k``.
        """
        aig = self.aig
        instance = aig.restrict(root, {y: move.get(y, False) for y in opponent}, memo)
        if not inner or instance in (TRUE, FALSE):
            return instance
        mapping: Dict[int, int] = {}
        for depth, (quantifier, variables) in enumerate(inner):
            fresh = list(range(self.next_label, self.next_label + len(variables)))
            self.next_label += len(variables)
            mapping.update(zip(variables, fresh))
            if depth < len(abstract_blocks):
                abstract_blocks[depth][1].extend(fresh)
            else:
                abstract_blocks.append((quantifier, fresh))
        return aig.rename(instance, mapping)

    def _sat(self, root: int, variables: List[int]) -> Optional[Move]:
        """A model of ``root`` over ``variables``, ``None`` if unsatisfiable."""
        if root == FALSE:
            return None
        if root == TRUE:
            return {}
        self.stats.cegar_sat_calls += 1
        satisfiable = self.session.is_satisfiable(root, self.guard.deadline())
        # The query charged its conflicts to the guard: a whole-solve
        # conflict limit stops CEGAR at the first query that crosses it.
        self.guard.check()
        if not satisfiable:
            return None
        model = self.session.model_inputs()
        return {v: model.get(v, False) for v in variables}
