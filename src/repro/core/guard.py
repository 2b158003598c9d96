"""Cooperative resource guard shared by every solver layer.

Elimination-based DQBF solving has unpredictable cost spikes: universal
elimination duplicates existential cones, FRAIG sweeps and the MaxSAT
selection can each blow a whole time budget on their own.  Historically
each module kept its own ``time.time()`` bookkeeping (and each solver
``restart_clock()``-ed the :class:`~repro.core.result.Limits` it was
handed, silently granting nested calls a fresh budget).  The
:class:`ResourceGuard` replaces all of that with one shared object:

* **one monotonic deadline**, computed once; ``check()`` is a single
  ``time.monotonic()`` call and compare, cheap enough for inner loops;
* **an AIG node budget** (``check_nodes``), the memout stand-in;
* **a SAT-conflict budget** (``charge_conflicts``), fed by the SAT
  session and MaxSAT search so runaway CDCL work is bounded even when
  wall-clock limits are generous;
* **stage and progress tracking** — when a budget runs out the raised
  exception carries a :class:`~repro.errors.FailureDiagnosis` naming
  the stage, the resource and the progress made, which the solver front
  ends surface as ``SolveResult.failure``;
* **stage slices** (:meth:`slice`, :meth:`stage_deadline`) — carve a
  bounded sub-budget out of the remaining one so a single pipeline
  stage going over budget degrades to a fallback procedure instead of
  sinking the whole solve.

Nested solver calls (certificate extraction, the QBF back-end, the BDD
cross-check inside a portfolio leg) share the *same* guard via
:meth:`ensure`, which is what fixes the historical double-counting of
elapsed time against fresh clock starts.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Union

from ..errors import (
    ConflictLimitExceeded,
    FailureDiagnosis,
    NodeLimitExceeded,
    StageBudgetExceeded,
    TimeoutExceeded,
)


class ResourceGuard:
    """Monotonic-deadline + node + conflict budget with O(1) ``check()``."""

    __slots__ = (
        "time_limit",
        "node_limit",
        "conflict_limit",
        "_start",
        "_deadline",
        "conflicts",
        "stage",
        "progress",
        "checks",
        "prior_elapsed",
        "prior_conflicts",
        "_parent",
    )

    def __init__(
        self,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        conflict_limit: Optional[int] = None,
        stage: str = "init",
        _parent: Optional["ResourceGuard"] = None,
    ) -> None:
        self.time_limit = time_limit
        self.node_limit = node_limit
        self.conflict_limit = conflict_limit
        self._start = time.monotonic()
        self._deadline = None if time_limit is None else self._start + time_limit
        self.conflicts = 0
        self.stage = stage
        self.progress: Dict[str, float] = {}
        self.checks = 0
        # Accounting absorbed from a checkpoint (reported, not charged —
        # a resumed worker gets a fresh budget but the cumulative work is
        # still visible in the diagnosis and the stats).
        self.prior_elapsed = 0.0
        self.prior_conflicts = 0
        self._parent = _parent

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_limits(cls, limits) -> "ResourceGuard":
        """Wrap a :class:`~repro.core.result.Limits` budget, starting the
        clock now (the one and only clock start of the solve)."""
        return cls(
            time_limit=limits.time_limit,
            node_limit=limits.node_limit,
            conflict_limit=getattr(limits, "conflict_limit", None),
        )

    @classmethod
    def ensure(cls, budget: Union["ResourceGuard", object, None]) -> "ResourceGuard":
        """Coerce ``budget`` (guard, ``Limits`` or ``None``) into a guard.

        An existing guard is returned *as is* — its clock keeps running —
        which is how nested solver calls share one budget instead of
        each restarting a fresh one.
        """
        if budget is None:
            return cls()
        if isinstance(budget, ResourceGuard):
            return budget
        return cls.from_limits(budget)

    def slice(
        self,
        time_fraction: Optional[float] = None,
        time_limit: Optional[float] = None,
        conflict_limit: Optional[int] = None,
        stage: Optional[str] = None,
    ) -> "ResourceGuard":
        """A sub-guard bounded by what is *left* of this one.

        ``time_fraction`` grants that share of the remaining time (a
        plain ``time_limit`` is capped at the remaining time); the node
        budget is inherited, the conflict budget is the given one.  The
        slice raises :class:`StageBudgetExceeded` when *its own* budget
        runs out but the parent still has headroom, so callers can
        distinguish "this stage is too expensive" (degrade) from "the
        whole solve is out of budget" (give up).  Conflicts charged to
        the slice propagate to the parent, and the slice's ``check()``
        raises the parent's :class:`ConflictLimitExceeded` once the
        parent's conflict budget is spent.
        """
        remaining = self.remaining()
        slice_time: Optional[float] = None
        if time_fraction is not None:
            if time_fraction <= 0.0:
                slice_time = 0.0  # fault-injection hook: instantly spent
            elif remaining is not None:
                slice_time = remaining * time_fraction
            elif time_limit is not None:
                slice_time = time_limit
        elif time_limit is not None:
            slice_time = time_limit
        if slice_time is not None and remaining is not None:
            slice_time = min(slice_time, remaining)
        child = ResourceGuard(
            time_limit=slice_time,
            node_limit=self.node_limit,
            conflict_limit=conflict_limit,
            stage=stage or self.stage,
            _parent=self,
        )
        child.progress = self.progress  # shared snapshot, one source of truth
        return child

    # ------------------------------------------------------------------
    # stage / progress bookkeeping
    # ------------------------------------------------------------------
    def enter_stage(self, name: str) -> None:
        self.stage = name
        if self._parent is None:
            # Stage changes on a slice also show up in the parent's
            # diagnosis via the shared progress dict; the stage string
            # itself only propagates upward explicitly.
            return
        self._parent.stage = name

    def note(self, **progress: float) -> None:
        """Record forward progress (shows up in the failure diagnosis)."""
        self.progress.update(progress)

    def diagnosis(self, resource: str) -> FailureDiagnosis:
        return FailureDiagnosis(
            stage=self.stage,
            resource=resource,
            progress=dict(self.progress),
            elapsed=self.prior_elapsed + self.elapsed(),
        )

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def remaining(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())

    def deadline(self) -> Optional[float]:
        """Absolute ``time.monotonic`` timestamp of the budget, if any."""
        return self._deadline

    def stage_deadline(self, fraction: float) -> Optional[float]:
        """Absolute deadline for a stage slice of ``fraction`` of the
        remaining time, never past the overall deadline.

        With an unlimited guard the stage is unlimited too (``None``) —
        degradation only kicks in when the user actually set budgets —
        except for ``fraction <= 0``, which yields an already-expired
        deadline (the fault-injection hook used by the tests).
        """
        if fraction <= 0.0:
            return time.monotonic()
        if self._deadline is None:
            return None
        now = time.monotonic()
        return min(self._deadline, now + max(0.0, self._deadline - now) * fraction)

    def absorb_checkpoint(self, elapsed: float, conflicts: int) -> None:
        """Account for work a previous (checkpointed) run already did."""
        self.prior_elapsed += elapsed
        self.prior_conflicts += conflicts

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def check(self) -> None:
        """O(1) cooperative check of the time and conflict budgets."""
        self.checks += 1
        if self._deadline is not None and time.monotonic() > self._deadline:
            self._raise_time()
        if self.conflict_limit is not None and self.conflicts > self.conflict_limit:
            self._raise_conflicts()
        parent = self._parent
        if (
            parent is not None
            and parent.conflict_limit is not None
            and parent.conflicts > parent.conflict_limit
        ):
            # A slice's own budget says nothing about the whole solve's
            # conflicts, which its queries also charge.
            parent._raise_conflicts()

    def check_nodes(self, num_nodes: int) -> None:
        self.note(matrix_size=float(num_nodes))
        if self.node_limit is not None and num_nodes > self.node_limit:
            raise NodeLimitExceeded(diagnosis=self.diagnosis("nodes"))

    def charge_conflicts(self, count: int) -> None:
        """Add ``count`` conflicts to the accounting (and the parent's)."""
        if count <= 0:
            return
        self.conflicts += count
        if self._parent is not None:
            self._parent.charge_conflicts(count)

    def exhausted(self) -> bool:
        """Non-raising probe: is any budget already gone?"""
        if self._deadline is not None and time.monotonic() > self._deadline:
            return True
        if self.conflict_limit is not None and self.conflicts > self.conflict_limit:
            return True
        return False

    def _raise_time(self) -> None:
        if self._parent is not None and not self._parent.exhausted():
            # Only this slice is spent: signal the ladder, not the user.
            raise StageBudgetExceeded(diagnosis=self.diagnosis("time"))
        raise TimeoutExceeded(diagnosis=self.diagnosis("time"))

    def _raise_conflicts(self) -> None:
        if self._parent is not None and not self._parent.exhausted():
            raise StageBudgetExceeded(diagnosis=self.diagnosis("conflicts"))
        raise ConflictLimitExceeded(diagnosis=self.diagnosis("conflicts"))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"ResourceGuard(stage={self.stage!r}, time={self.time_limit}, "
            f"nodes={self.node_limit}, conflicts={self.conflict_limit}, "
            f"elapsed={self.elapsed():.3f}s)"
        )
