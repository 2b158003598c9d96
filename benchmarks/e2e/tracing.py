"""Layer spans recorded from outside the solver.

The benchmark never edits ``src/``: it replaces public module functions
and methods by timing wrappers (see :data:`SOLVER_LAYERS` and
:data:`SERVICE_LAYERS`) and hooks ``gc.callbacks``.  Each call records
one span ``(layer, start, end, parent, tag)`` on the monotonic clock in
a per-thread list; nothing is written until the caller asks for the
records.  A layer's self time is its spans' durations minus the time
their child spans cover, so the self times of all layers partition the
traced time.

Only boundaries that run at most a few thousand times per solve are
wrapped; per-node calls such as ``Aig.land`` or ``Aig.support_of``
would cost more than the work they time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (module, attribute path, layer) for the batch solve path.  Names are
#: patched where the caller looks them up: ``repro.core.hqs`` imports
#: its stages by name, so its module attributes are the boundaries.
SOLVER_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.hqs", "HqsSolver.solve", "hqs"),
    ("repro.core.hqs", "preprocess", "preprocess"),
    ("repro.core.hqs", "cnf_to_aig", "aig.build"),
    ("repro.aig.graph", "Aig.compose", "aig.build"),
    ("repro.core.hqs", "select_elimination_set", "selection"),
    ("repro.core.hqs", "greedy_elimination_set", "selection"),
    ("repro.core.hqs", "is_acyclic", "depgraph"),
    ("repro.core.hqs", "linearize", "depgraph"),
    ("repro.core.hqs", "incomparable_pairs", "depgraph"),
    ("repro.core.selection", "incomparable_pairs", "depgraph"),
    ("repro.core.hqs", "apply_unit_pure", "unitpure"),
    ("repro.qbf.aigsolve", "detect_unit_pure", "unitpure"),
    ("repro.core.hqs", "eliminate_universal", "elimination"),
    ("repro.core.hqs", "eliminate_existential", "elimination"),
    ("repro.core.hqs", "eliminable_existentials", "elimination"),
    ("repro.core.hqs", "solve_aig_qbf", "qbf"),
    ("repro.aig.graph", "Aig.cofactor2", "aig.cofactor2"),
    ("repro.aig.graph", "Aig.restrict", "aig.restrict"),
    ("repro.aig.graph", "Aig.extract", "aig.extract"),
    ("repro.aig.graph", "Aig.cone_size", "aig.cone"),
    ("repro.aig.graph", "Aig.input_fanout_counts", "aig.cone"),
    ("repro.aig.graph", "Aig.count_depending_ands", "aig.cone"),
    ("repro.sat.incremental", "AigSatSession.is_satisfiable", "sat"),
    ("repro.sat.incremental", "AigSatSession.implies", "sat"),
    ("repro.sat.incremental", "AigSatSession.equivalent", "sat"),
    ("repro.aig.fraig", "FraigEngine.sweep", "fraig"),
)

#: (module, attribute path, layer) for the ``hqs-serve`` host process.
#: Worker processes are forked and cannot report spans; their numbers
#: come from the ``stats`` in each reply instead.
SERVICE_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.server", "parse_dqdimacs", "formula.parse"),
    ("repro.service.server", "formula_fingerprint", "formula.fingerprint"),
    ("repro.service.cache", "ResultCache.lookup", "cache.lookup"),
    ("repro.service.cache", "ResultCache.store", "cache.store"),
    ("repro.experiments.parallel", "ResultLog.append", "log.append"),
    ("repro.service.pool", "WorkerPool.solve", "pool.solve"),
    ("repro.service.pool", "WarmWorker.request", "worker.request"),
)

#: Calls a wrapper lets through untimed: the pool supervisor's
#: heartbeat pings go through ``WarmWorker.request`` too.
_SKIP: Dict[str, Callable[[tuple], bool]] = {
    "worker.request": lambda args: args[1].get("op") != "solve",
}

#: Span record fields (a list per span keeps recording cheap).
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Collects spans from wrapped functions and the garbage collector."""

    def __init__(self) -> None:
        #: Label attached to new spans (the benchmark sets the instance).
        self.tag: Optional[str] = None
        self._local = threading.local()
        self._threads: List[List[list]] = []
        self._threads_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_hooked = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        records = getattr(local, "records", None)
        if records is None:
            records = local.records = []
            local.stack = []
            local.gc_start = 0.0
            with self._threads_lock:
                self._threads.append(records)
        return records, local.stack

    def open(self, name: str) -> list:
        """Start a span in this thread; pass the result to :meth:`close`."""
        records, stack = self._state()
        record = [name, time.monotonic(), 0.0, stack[-1] if stack else -1, self.tag]
        stack.append(len(records))
        records.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = time.monotonic()
        self._local.stack.pop()

    def _wrapper(self, original, layer: str):
        skip = _SKIP.get(layer)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            records, stack = self._state()
            if (stack and records[stack[-1]][NAME] == layer) or (skip and skip(args)):
                return original(*args, **kwargs)
            record = self.open(layer)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(record)

        return traced

    def _on_gc(self, phase: str, _info) -> None:
        if phase == "start":
            self._state()
            self._local.gc_start = time.monotonic()
            return
        records, stack = self._state()
        records.append(
            ["gc", self._local.gc_start, time.monotonic(),
             stack[-1] if stack else -1, self.tag]
        )

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, layers: Sequence[Tuple[str, str, str]]) -> None:
        """Wrap every boundary in ``layers`` and hook the collector."""
        for module_name, path, layer in layers:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, layer))
        if not self._gc_hooked:
            gc.callbacks.append(self._on_gc)
            self._gc_hooked = True

    def uninstall(self) -> None:
        """Restore every wrapped name and unhook the collector."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._gc_hooked:
            gc.callbacks.remove(self._on_gc)
            self._gc_hooked = False

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def take(self) -> List[List[list]]:
        """Finished span records per thread; recording restarts empty.

        Call between passes, when no span is open in any thread.
        """
        with self._threads_lock:
            taken = [list(records) for records in self._threads]
            for records in self._threads:
                records.clear()
        return taken

    def dump(self, path: str) -> None:
        """Write all finished spans as JSON (the service host's exit)."""
        payload = {"threads": self.take()}
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def layer_table(threads: List[List[list]]) -> Dict[str, Dict[str, float]]:
    """Per layer: span count, inclusive seconds and self seconds.

    Inclusive time counts only outermost spans of a layer, so a layer
    re-entered through another layer is not counted twice.
    """
    table: Dict[str, Dict[str, float]] = {}
    for records in threads:
        child_time = [0.0] * len(records)
        for record in records:
            parent = record[PARENT]
            if parent >= 0:
                child_time[parent] += record[END] - record[START]
        for index, record in enumerate(records):
            name = record[NAME]
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = record[END] - record[START]
            row["count"] += 1
            row["self_s"] += duration - child_time[index]
            parent = record[PARENT]
            while parent >= 0 and records[parent][NAME] != name:
                parent = records[parent][PARENT]
            if parent < 0:
                row["total_s"] += duration
    return table


def load_dump(path: str) -> List[List[list]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["threads"]
