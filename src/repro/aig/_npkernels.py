"""Vectorized numpy kernels over the struct-of-arrays AIG core.

This module is only imported when a manager runs on the ``numpy``
backend (see :mod:`repro.aig.backend`).  :class:`NumpyKernels` mirrors
the manager's flat parallel node arrays (``fanin0``, ``fanin1``, input
labels, levels) into ``int64`` ndarrays grown with amortized doubling
and synced lazily — scalar node construction stays on Python lists,
which are faster to append to, while the hot sweeps below run at C
speed:

* **cone marking** — breadth-first frontier expansion over the fanin
  arrays; node ids ascend fanin-before-node, so the marked ids in
  ascending order are a topological order of the cone;
* **dependency masks** — "does the cone of node *n* contain any of
  these external variables", one boolean per node, computed by a single
  level-ordered array sweep.  The fused elimination kernels consult
  this mask for their share-vs-rebuild classification instead of
  filling per-node frozenset support caches;
* **support / level queries** — the structural support of a root is the
  label set of the inputs inside its cone mask (levels are maintained
  eagerly by the core and never need a sweep);
* **bit-parallel simulation** — :class:`NumpyWordTable` keeps one row
  of ``uint64`` pattern words per node and simulates whole level groups
  at a time, replacing the per-node Python-bignum dictionary of the
  historical FRAIG path.

Level groups (the AND nodes bucketed by level, ascending) are the
backbone of every sweep: levels are strictly fanin-monotone, so
processing groups in order guarantees operands are ready, and each
group is one vectorized gather/combine/scatter.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .backend import get_numpy

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def _int_to_words(np, value: int, num_words: int):
    """Little-endian split of a Python bignum into ``uint64`` words."""
    return np.frombuffer(
        (value & ((1 << (_WORD_BITS * num_words)) - 1)).to_bytes(
            num_words * 8, "little"
        ),
        dtype=np.uint64,
    ).copy()


def _words_to_int(row) -> int:
    """Recombine a ``uint64`` word row into a Python bignum."""
    return int.from_bytes(row.tobytes(), "little")


class NumpyKernels:
    """Array mirror + vectorized kernels for one :class:`Aig` manager."""

    def __init__(self, aig) -> None:
        self._aig = aig
        self._np = get_numpy()
        self._cap = 0
        self._synced = 0  # nodes mirrored so far (sync watermark)
        self._f0 = self._f1 = self._label = self._level = None
        self._f0n = self._f1n = None  # fanin node ids (edges >> 1)
        self._groups_n = -1  # node count the cached level groups refer to
        self._groups: List = []
        self._cone_key = (-1, -1)  # (node, node count) of the memoized mask
        self._cone = None

    # ------------------------------------------------------------------
    # array mirror
    # ------------------------------------------------------------------
    def sync(self) -> int:
        """Mirror nodes appended since the last sync; returns node count."""
        aig = self._aig
        f0_list = aig._fanin0
        n = len(f0_list)
        if n > self._cap:
            self._grow(max(2 * self._cap, n, 1024))
        start = self._synced
        if start < n:
            np = self._np
            self._f0[start:n] = f0_list[start:n]
            self._f1[start:n] = aig._fanin1[start:n]
            self._label[start:n] = aig._input_label[start:n]
            self._level[start:n] = aig._level[start:n]
            np.right_shift(self._f0[start:n], 1, out=self._f0n[start:n])
            np.right_shift(self._f1[start:n], 1, out=self._f1n[start:n])
            self._synced = n
        return n

    def _grow(self, capacity: int) -> None:
        np = self._np
        for name in ("_f0", "_f1", "_label", "_level", "_f0n", "_f1n"):
            fresh = np.empty(capacity, dtype=np.int64)
            old = getattr(self, name)
            if old is not None:
                fresh[: self._synced] = old[: self._synced]
            setattr(self, name, fresh)
        self._cap = capacity

    def _and_level_groups(self) -> List:
        """AND-node ids bucketed by level, ascending (cached per count)."""
        n = self.sync()
        if self._groups_n == n:
            return self._groups
        np = self._np
        and_ids = np.nonzero(self._f0[:n] >= 0)[0]
        groups: List = []
        if and_ids.size:
            levels = self._level[and_ids]
            order = and_ids[np.argsort(levels, kind="stable")]
            sorted_levels = self._level[order]
            # group boundaries: one slice per distinct level value
            cuts = np.nonzero(sorted_levels[1:] != sorted_levels[:-1])[0] + 1
            start = 0
            for cut in cuts.tolist() + [order.size]:
                groups.append(order[start:cut])
                start = cut
        self._groups_n = n
        self._groups = groups
        return groups

    # ------------------------------------------------------------------
    # cone marking
    # ------------------------------------------------------------------
    def cone_mask(self, node: int):
        """Boolean per-node mask of the transitive fanin cone of ``node``.

        One descending level sweep: fanin levels are strictly smaller,
        so by the time a group is processed every mark that can reach it
        from above has been scattered.  Each group is filtered to its
        marked members first, so work stays proportional to the cone
        (plus one boolean gather per group).

        The last mask is memoized on ``(node, node count)``, exact
        because nodes are append-only; it is returned read-only, so a
        caller must copy before mutating.
        """
        np = self._np
        n = self.sync()
        if self._cone_key == (node, n):
            return self._cone
        mask = np.zeros(n, dtype=bool)
        mask[node] = True
        node_level = int(self._level[node])
        f0n, f1n = self._f0n, self._f1n
        for ids in reversed(self._and_level_groups()):
            if int(self._level[ids[0]]) > node_level:
                continue
            ids = ids[mask[ids]]
            if ids.size:
                mask[f0n[ids]] = True
                mask[f1n[ids]] = True
        mask.flags.writeable = False
        self._cone_key = (node, n)
        self._cone = mask
        return mask

    def cone_support(self, node: int) -> frozenset:
        """External variables labelling the inputs inside the cone."""
        mask = self.cone_mask(node)
        labels = self._label[: mask.size][mask]
        labels = labels[labels > 0]
        return frozenset(labels.tolist())

    def cone_and_count(self, root: int) -> int:
        """Number of AND nodes in the cone of a root edge."""
        mask = self.cone_mask(root >> 1)
        return int(self._np.count_nonzero(mask & (self._f0[: mask.size] >= 0)))

    # ------------------------------------------------------------------
    # dependency masks (share-vs-rebuild classification)
    # ------------------------------------------------------------------
    def depends_mask(self, labels: Iterable[int]) -> List[bool]:
        """Per-node flag: does the cone of the node contain any label?

        Equivalent to ``not support_of(node).isdisjoint(labels)`` for
        every node at once; returned as a plain list for fast scalar
        indexing in the rebuild loops.
        """
        np = self._np
        n = self.sync()
        dep = self._seed_mask(labels, n)
        f0n, f1n = self._f0n, self._f1n
        for ids in self._and_level_groups():
            dep[ids] = dep[f0n[ids]] | dep[f1n[ids]]
        return dep.tolist()

    def depends_mask2(
        self, var: int, others: Iterable[int]
    ) -> Tuple[List[bool], List[bool]]:
        """One sweep computing (depends on ``var``, depends on ``var`` or
        any of ``others``) — the two classifications the fused Theorem-1
        kernel needs."""
        np = self._np
        n = self.sync()
        dep_var = np.equal(self._label[:n], var)
        dep_rel = dep_var | self._seed_mask(others, n)
        f0n, f1n = self._f0n, self._f1n
        for ids in self._and_level_groups():
            dep_var[ids] = dep_var[f0n[ids]] | dep_var[f1n[ids]]
            dep_rel[ids] = dep_rel[f0n[ids]] | dep_rel[f1n[ids]]
        return dep_var.tolist(), dep_rel.tolist()

    def _seed_mask(self, labels: Iterable[int], n: int):
        np = self._np
        labels = list(labels)
        if not labels:
            return np.zeros(n, dtype=bool)
        if len(labels) == 1:
            return np.equal(self._label[:n], labels[0])
        # labels are positive and non-input nodes carry label 0, so a
        # plain membership test marks exactly the matching input nodes
        return np.isin(self._label[:n], np.array(labels, dtype=np.int64))

    # ------------------------------------------------------------------
    # misc vectorized queries
    # ------------------------------------------------------------------
    def count_depending_ands(self, root: int, var: int) -> int:
        """AND nodes in the cone of ``root`` whose cone contains ``var``."""
        np = self._np
        n = self.sync()
        dep = np.equal(self._label[:n], var)
        f0n, f1n = self._f0n, self._f1n
        for ids in self._and_level_groups():
            dep[ids] = dep[f0n[ids]] | dep[f1n[ids]]
        mask = self.cone_mask(root >> 1)
        return int(np.count_nonzero(mask & dep & (self._f0[:n] >= 0)))

    def input_fanout_counts(self, root: int, labels) -> Dict[int, int]:
        """Direct fanout count of each label's input node inside the cone."""
        np = self._np
        mask = self.cone_mask(root >> 1)
        n = mask.size
        ands = np.nonzero(mask & (self._f0[:n] >= 0))[0]
        if not ands.size:
            return {}
        children = np.concatenate((self._f0n[ands], self._f1n[ands]))
        child_labels = self._label[children]
        child_labels = child_labels[child_labels > 0]
        wanted = set(labels)
        uniq, counts = np.unique(child_labels, return_counts=True)
        return {
            int(label): int(count)
            for label, count in zip(uniq.tolist(), counts.tolist())
            if label in wanted
        }

    def find_pures(self, root: int) -> Dict[int, bool]:
        """Vectorized negation-parity propagation (Theorem 6 pures).

        ``parity[node]`` is a 2-bit mask: bit 0 = reachable from the
        root with an even number of negations, bit 1 = odd.  Levels are
        strictly fanin-monotone, so one descending level sweep
        propagates final parities parents-before-children.
        """
        np = self._np
        n = self.sync()
        parity = np.zeros(n, dtype=np.uint8)
        parity[root >> 1] = 1 << (root & 1)
        f0, f1, f0n, f1n = self._f0, self._f1, self._f0n, self._f1n
        for ids in reversed(self._and_level_groups()):
            active = parity[ids] != 0
            if not active.any():
                continue
            ids = ids[active]
            p = parity[ids]
            swapped = ((p & 1) << 1) | (p >> 1)
            np.bitwise_or.at(
                parity, f0n[ids], np.where((f0[ids] & 1) == 1, swapped, p)
            )
            np.bitwise_or.at(
                parity, f1n[ids], np.where((f1[ids] & 1) == 1, swapped, p)
            )
        inputs = np.nonzero((self._label[:n] > 0) & (parity > 0) & (parity < 3))[0]
        return {
            int(self._label[node]): bool(parity[node] == 1)
            for node in inputs.tolist()
        }


class NumpyWordTable:
    """Per-node simulation words as a ``(nodes, words)`` ``uint64`` array.

    The drop-in replacement for the FRAIG engine's ``Dict[int, int]``
    bignum table: one row per node, bit *i* of the pattern stored
    little-endian as bit ``i % 64`` of word ``i // 64``.  Simulation
    runs level group by level group; counterexample absorption sets one
    new bit column in place instead of shifting every word.
    """

    is_numpy = True

    def __init__(self, kernels: NumpyKernels) -> None:
        self._kernels = kernels
        self._np = kernels._np
        self.width = 0
        self._num_words = 0
        self._rows = 0
        self._words = None
        self._known = None
        self._full = None  # complement mask vector for the current width

    # -- storage -------------------------------------------------------
    def _ensure(self, rows: int, width: int) -> None:
        np = self._np
        num_words = max(1, (width + _WORD_BITS - 1) // _WORD_BITS)
        if self._words is None or rows > self._rows or num_words > self._num_words:
            cap = max(self._rows * 2, rows, 1024)
            fresh = np.zeros((cap, num_words), dtype=np.uint64)
            known = np.zeros(cap, dtype=bool)
            if self._words is not None:
                fresh[: self._rows, : self._num_words] = self._words[: self._rows]
                known[: self._rows] = self._known[: self._rows]
            self._words = fresh
            self._known = known
            self._rows = cap
            self._num_words = num_words
        if width != self.width or self._full is None:
            self._full = _int_to_words(
                np, (1 << width) - 1 if width else 0, self._num_words
            )
            self.width = width

    # -- the dict-like face used by tests and callers ------------------
    def __contains__(self, node: int) -> bool:
        return self._known is not None and node < self._rows and bool(self._known[node])

    def __getitem__(self, node: int) -> int:
        if node not in self:
            raise KeyError(node)
        return self.word(node)

    def get(self, node: int, default: Optional[int] = None) -> Optional[int]:
        if node not in self:
            return default
        return self.word(node)

    def keys(self):
        if self._known is None:
            return []
        return self._np.nonzero(self._known)[0].tolist()

    def mark_constant(self, width: int) -> None:
        """Record only the constant node (used for constant sweep results)."""
        self._ensure(1, max(width, 1))
        self._known[0] = True
        self.width = width

    def word(self, node: int) -> int:
        """The node's pattern word as a Python bignum (width bits)."""
        mask = (1 << self.width) - 1 if self.width else 0
        return _words_to_int(self._words[node]) & mask

    def items(self):
        np = self._np
        if self._known is None:
            return
        for node in np.nonzero(self._known)[0].tolist():
            yield node, self.word(node)

    # -- simulation ----------------------------------------------------
    def simulate(self, aig, root: int, patterns: Dict[int, int], width: int,
                 pattern_word=None) -> None:
        """Fill words for every not-yet-known node in the cone of ``root``.

        ``pattern_word(patterns, label, width)`` resolves the word of an
        external variable (and may back-fill missing labels); it
        defaults to a plain ``dict`` lookup.
        """
        np = self._np
        kernels = self._kernels
        n = kernels.sync()
        self._ensure(n, width)
        cone = kernels.cone_mask(root >> 1)
        todo = cone & ~self._known[:n]
        if not todo.any():
            return
        label = kernels._label[:n]
        resolve = pattern_word if pattern_word is not None else (
            lambda mapping, lab, _width: mapping[lab]
        )
        width_mask = (1 << width) - 1
        inputs = np.nonzero(todo & (label > 0))[0]
        if inputs.size:
            # one frombuffer over a joined blob instead of one ndarray
            # round trip per input — the resolver loop is the only
            # remaining per-input Python work
            num_bytes = self._num_words * 8
            get = patterns.get
            chunks = []
            for lab in label[inputs].tolist():
                value = get(lab)
                if value is None:
                    value = resolve(patterns, int(lab), width)
                chunks.append((value & width_mask).to_bytes(num_bytes, "little"))
            blob = b"".join(chunks)
            self._words[inputs, : self._num_words] = np.frombuffer(
                blob, dtype=np.uint64
            ).reshape(inputs.size, self._num_words)
        # the constant node's row is all-zero by construction
        f0, f1 = kernels._f0, kernels._f1
        f0n, f1n = kernels._f0n, kernels._f1n
        full = self._full
        words = self._words
        for ids in kernels._and_level_groups():
            ids = ids[todo[ids]]
            if not ids.size:
                continue
            w0 = words[f0n[ids]]
            w1 = words[f1n[ids]]
            w0[(f0[ids] & 1).astype(bool)] ^= full
            w1[(f1[ids] & 1).astype(bool)] ^= full
            words[ids] = w0 & w1
        self._known[:n] |= cone

    def canon(self, node: int) -> Tuple[bytes, bool]:
        """Canonical (up to complement) signature key and phase bit."""
        row = self._words[node]
        phase = bool(row[0] & self._np.uint64(1))
        if phase:
            row = row ^ self._full
        return row.tobytes(), phase

    def absorb(self, aig, cone, assignment: Dict[int, bool],
               patterns: Dict[int, int]) -> None:
        """Append the distinguishing input as one new bit column.

        ``cone`` is the ascending node-id list of the current sweep's
        cone; every pattern word and every cone-node word gains the new
        bit at position ``width`` (no shifting), after which the table's
        width grows by one.
        """
        np = self._np
        kernels = self._kernels
        position = self.width
        word_index, bit_index = divmod(position, _WORD_BITS)
        n = kernels.sync()
        self._ensure(n, position + 1)
        for label in patterns:
            if assignment.get(label, False):
                patterns[label] |= 1 << position
        # one-bit simulation of the counterexample over the cone
        in_cone = np.zeros(n, dtype=bool)
        cone_ids = np.array(cone, dtype=np.int64)
        in_cone[cone_ids] = True
        label = kernels._label[:n]
        bit = np.zeros(n, dtype=bool)
        for node in np.nonzero(in_cone & (label > 0))[0].tolist():
            bit[node] = assignment.get(int(label[node]), False)
        f0, f1 = kernels._f0, kernels._f1
        f0n, f1n = kernels._f0n, kernels._f1n
        for ids in kernels._and_level_groups():
            ids = ids[in_cone[ids]]
            if not ids.size:
                continue
            b0 = bit[f0n[ids]] ^ (f0[ids] & 1).astype(bool)
            b1 = bit[f1n[ids]] ^ (f1[ids] & 1).astype(bool)
            bit[ids] = b0 & b1
        column = bit[cone_ids].astype(np.uint64) << np.uint64(bit_index)
        self._words[cone_ids, word_index] |= column

