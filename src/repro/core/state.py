"""The AIG-backed DQBF state manipulated by the elimination engine.

After preprocessing, HQS trades the CNF matrix for an AIG; the state
couples that AIG (a root edge in a shared manager) with the dependency
prefix and a fresh-variable counter for the copies that Theorem 1
introduces.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..aig.graph import FALSE, TRUE, Aig
from ..formula.prefix import DependencyPrefix

#: An AIG manager is compacted once it holds more than this many times
#: its live cone (counted from 64 nodes up); HQS's main loop and the
#: QBF back-end both apply it.
COMPACT_RATIO = 4


class AigDqbf:
    """A DQBF whose matrix lives in an AIG.

    ``root`` and ``aig`` are properties: assigning either invalidates
    the memoized live-cone size (``matrix_size``), so solver loops can
    poll the size every iteration without re-walking the cone.
    """

    def __init__(self, aig: Aig, root: int, prefix: DependencyPrefix, next_var: int):
        self._aig = aig
        self._root = root
        self.prefix = prefix
        self.next_var = next_var
        self._matrix_size: Optional[int] = None

    @property
    def aig(self) -> Aig:
        return self._aig

    @aig.setter
    def aig(self, manager: Aig) -> None:
        self._aig = manager
        self._matrix_size = None

    @property
    def root(self) -> int:
        return self._root

    @root.setter
    def root(self, edge: int) -> None:
        self._root = edge
        self._matrix_size = None

    def fresh_var(self) -> int:
        var = self.next_var
        self.next_var += 1
        return var

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def support(self) -> frozenset:
        if self.root in (TRUE, FALSE):
            return frozenset()
        return self.aig.support_of(self.root)

    def prune_prefix(self) -> None:
        """Remove prefix variables that no longer occur in the matrix."""
        self.prefix.restrict_to(self.support())

    def is_constant(self) -> Optional[bool]:
        if self.root == TRUE:
            return True
        if self.root == FALSE:
            return False
        return None

    def matrix_size(self) -> int:
        """AND-node count of the live cone (the |phi| of the paper).

        Memoized until the next ``root``/``aig`` assignment — the solver
        loop polls this every iteration for compaction and node-budget
        checks, which used to cost one full cone walk each.
        """
        if self.root in (TRUE, FALSE):
            return 0
        if self._matrix_size is None:
            self._matrix_size = self.aig.cone_size(self.root)
        return self._matrix_size

    def compact(self) -> None:
        """Garbage-collect the AIG manager, keeping only the live cone."""
        fresh, (root,) = self.aig.extract([self.root])
        self.aig = fresh
        self.root = root

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        if self.root == TRUE:
            return True
        if self.root == FALSE:
            return False
        return self.aig.evaluate(self.root, assignment)

    def __repr__(self) -> str:
        return (
            f"AigDqbf(|phi|={self.matrix_size()}, "
            f"A={len(self.prefix.universals)}, E={len(self.prefix.existentials)})"
        )
