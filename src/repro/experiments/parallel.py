"""Fault-tolerant parallel execution for the benchmark harness.

The paper's evaluation (Section IV) races HQS against the baselines over
hundreds of PEC instances under a 2 h timeout and 8 GB memout.  The
serial :func:`repro.experiments.runner.run_suite` replays that in-process
with only *cooperative* ``Limits.check_time()`` checks, so one stuck or
crashing solver stalls or aborts the whole sweep.  This module supplies
the production execution layer:

hard timeouts
    every (instance, solver) pair runs in its own worker process; a
    solver that never reaches a cooperative check is killed at a hard
    wall-clock deadline and recorded as ``TIMEOUT`` with
    ``stats["hard_timeout"] = 1``.

crash containment
    a worker exception becomes an ``ERROR`` record (traceback preserved
    in the JSONL log), a wrong definitive answer a ``MISMATCH`` record;
    the remaining pairs keep running either way.

persistence + resume
    records stream to a JSONL log as they complete; restarting with
    ``resume=True`` skips already-recorded (instance, solver) pairs and
    tolerates a truncated final line from an interrupted run.

portfolio racing
    several solver configurations race on one instance; the first
    definitive (SAT/UNSAT) answer wins and the losers are cancelled.

Workers are forked when the platform allows it so that test- or
user-registered entries in :data:`repro.experiments.runner.SOLVERS` are
inherited; under ``spawn`` the registry is rebuilt from the module, so
dynamically registered solvers must be importable.

Instances are shipped to workers by pickling.  Regenerating a suite
shard instead (for distributed workers) requires only the
``(family, count, scale, seed)`` tuple — which is why ``BenchConfig``
reads ``REPRO_BENCH_SEED`` and :func:`repro.pec.families.generate_family`
uses a process-stable family hash.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..core.result import ERROR, MEMOUT, MISMATCH, TIMEOUT, UNKNOWN, Limits, SolveResult
from ..durable import ResultLog  # re-exported as part of this module's API
from ..pec.encode import PecInstance
from ..pec.families import FAMILIES
from ..proc import close_foreign_sockets, default_grace, mp_context, reap
from .runner import (
    SOLVERS,
    BenchConfig,
    RunRecord,
    _check_expected,
    generate_suite,
    supports_checkpoint,
)

#: Seconds between supervisor polls of the live worker set.
POLL_INTERVAL = 0.02


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _worker_entry(conn, instance: PecInstance, solver_name: str,
                  time_limit: Optional[float], node_limit: Optional[int],
                  checkpoint: Optional[str] = None) -> None:
    """Solve one (instance, solver) pair and ship the outcome back.

    ``checkpoint`` (for solvers that support it) makes the attempt
    resumable: the solver picks up a matching snapshot left by a
    previous killed/crashed worker and rewrites it as it progresses.
    """
    started = time.monotonic()
    # A worker forked from a host with live sockets (a service, a
    # notebook) must not hold their fds open past the host's close.
    close_foreign_sockets(keep=(conn.fileno(),))
    # Chaos hook: a scheduled crash/wedge/slow fault for this worker
    # (plan inherited via fork, or re-read from REPRO_FAULTS under
    # spawn).  The supervisor must turn it into ERROR/TIMEOUT records.
    faults.apply_worker_fault(faults.fire("parallel.worker"))
    try:
        solver = SOLVERS[solver_name]
        limits = Limits(time_limit=time_limit, node_limit=node_limit)
        kwargs = {}
        if checkpoint is not None and supports_checkpoint(solver):
            kwargs["checkpoint"] = checkpoint
        result = solver(instance.formula.copy(), limits, **kwargs)
        result = _check_expected(instance, solver_name, result)
        payload = result.as_dict()
    except BaseException:
        payload = {
            "status": ERROR,
            "runtime": time.monotonic() - started,
            "stats": {"worker_error": 1.0},
            "error": traceback.format_exc(),
        }
    try:
        conn.send(payload)
        conn.close()
    except (BrokenPipeError, OSError):  # supervisor already gave up on us
        pass


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------

class _Job:
    """One live worker process and its bookkeeping."""

    def __init__(self, ctx, instance: PecInstance, solver: str,
                 time_limit: Optional[float], node_limit: Optional[int],
                 grace: float, checkpoint: Optional[str] = None):
        self.instance = instance
        self.solver = solver
        recv, send = ctx.Pipe(duplex=False)
        self.conn = recv
        self.process = ctx.Process(
            target=_worker_entry,
            args=(send, instance, solver, time_limit, node_limit, checkpoint),
            daemon=True,
        )
        self.process.start()
        send.close()
        self.started = time.monotonic()
        self.deadline = (
            None if time_limit is None else self.started + time_limit + grace
        )

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def poll(self) -> Optional[Dict[str, object]]:
        """Return the result payload once the job is finished, else ``None``.

        Finishing means: the worker sent a payload, the worker died
        without sending one (``ERROR``), or the hard deadline passed
        (kill + ``TIMEOUT``).
        """
        # Liveness first: a worker that sends its payload and exits
        # between the two checks must not be mistaken for a dead one.
        alive = self.process.is_alive()
        if self.conn.poll(0):
            try:
                payload = self.conn.recv()
            except (EOFError, OSError):
                payload = None
            if payload is not None:
                self._reap()
                return payload
            return self._dead_payload()
        if not alive:
            # died without sending anything (segfault, os._exit, kill)
            return self._dead_payload()
        if self.deadline is not None and time.monotonic() > self.deadline:
            return self._kill_payload()
        return None

    def cancel(self) -> None:
        """Terminate a loser leg (portfolio) or an abandoned job."""
        if self.process.is_alive():
            self.process.terminate()
        self._reap()

    def _reap(self) -> None:
        reap(self.process, self.conn)

    def _dead_payload(self) -> Dict[str, object]:
        exitcode = self.process.exitcode
        self._reap()
        return {
            "status": ERROR,
            "runtime": self.elapsed(),
            "stats": {"worker_error": 1.0,
                      "exitcode": float(exitcode if exitcode is not None else -1)},
            "error": f"worker exited with code {exitcode} before reporting a result",
        }

    def _kill_payload(self) -> Dict[str, object]:
        elapsed = self.elapsed()
        self.process.terminate()
        self._reap()
        return {
            "status": TIMEOUT,
            "runtime": elapsed,
            "stats": {"hard_timeout": 1.0},
        }


def record_to_entry(record: RunRecord) -> Dict[str, object]:
    """Flatten a :class:`RunRecord` into its JSONL form."""
    entry: Dict[str, object] = {
        "instance": record.instance.name,
        "family": record.instance.family,
        "solver": record.solver,
    }
    entry.update(record.result.as_dict())
    error = getattr(record, "error", None)
    if error:
        entry["error"] = error
    return entry


def _record_from_payload(instance: PecInstance, solver: str,
                         payload: Dict[str, object]) -> RunRecord:
    record = RunRecord(instance, solver, SolveResult.from_dict(payload))
    if payload.get("error"):
        record.error = str(payload["error"])
    return record


# ----------------------------------------------------------------------
# pool scheduler
# ----------------------------------------------------------------------

def run_records(
    instances: Sequence[PecInstance],
    solvers: Sequence[str],
    config: BenchConfig,
    jobs: int = 1,
    log: Optional[ResultLog] = None,
    done: Optional[Dict[Tuple[str, str], Dict[str, object]]] = None,
    grace: Optional[float] = None,
    on_record: Optional[Callable[[RunRecord], None]] = None,
) -> List[RunRecord]:
    """Run every (instance, solver) pair through the worker pool.

    Results come back in deterministic (instance, solver) order
    regardless of completion order.  ``done`` maps already-recorded
    pairs (from :meth:`ResultLog.load`) to their entries; those pairs
    are not re-run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    grace = default_grace(config.timeout) if grace is None else grace
    done = done or {}
    ctx = mp_context()

    order: List[Tuple[str, str]] = []
    by_name: Dict[str, PecInstance] = {}
    queue: List[Tuple[PecInstance, str]] = []
    results: Dict[Tuple[str, str], RunRecord] = {}
    for instance in instances:
        by_name[instance.name] = instance
        for solver in solvers:
            key = (instance.name, solver)
            order.append(key)
            if key in done:
                results[key] = _record_from_payload(instance, solver, done[key])
            else:
                queue.append((instance, solver))

    pending = list(reversed(queue))  # pop() from the front of the suite
    live: List[_Job] = []
    try:
        while pending or live:
            while pending and len(live) < jobs:
                instance, solver = pending.pop()
                live.append(_Job(ctx, instance, solver,
                                 config.timeout, config.node_limit, grace,
                                 checkpoint=config.checkpoint_path(
                                     instance.name, solver)))
            finished_any = False
            for job in list(live):
                payload = job.poll()
                if payload is None:
                    continue
                finished_any = True
                live.remove(job)
                record = _record_from_payload(job.instance, job.solver, payload)
                results[(job.instance.name, job.solver)] = record
                if log is not None:
                    log.append(record_to_entry(record))
                if on_record is not None:
                    on_record(record)
            if not finished_any and live:
                time.sleep(POLL_INTERVAL)
    finally:
        for job in live:  # interrupted: don't leak workers
            job.cancel()
    return [results[key] for key in order]


# ----------------------------------------------------------------------
# portfolio racing
# ----------------------------------------------------------------------

def portfolio_label(solvers: Sequence[str]) -> str:
    return "PORTFOLIO[" + "+".join(solvers) + "]"


#: Preference order for the recorded status when no leg wins a race.
_LOSS_ORDER = (MISMATCH, MEMOUT, TIMEOUT, UNKNOWN, ERROR)


def run_portfolio(
    instance: PecInstance,
    solvers: Sequence[str],
    config: BenchConfig,
    grace: Optional[float] = None,
) -> RunRecord:
    """Race ``solvers`` on one instance; first definitive answer wins.

    All legs start together, each on a child budget carved out of one
    shared :class:`Limits` clock, so the race as a whole respects the
    per-instance budget.  On the first SAT/UNSAT the remaining legs are
    cancelled.  If no leg answers, the recorded status is the most
    informative loss (``MISMATCH`` > ``MEMOUT`` > ``TIMEOUT`` >
    ``UNKNOWN`` > ``ERROR``).
    """
    if not solvers:
        raise ValueError("portfolio needs at least one solver")
    budget = config.limits()
    grace = default_grace(config.timeout) if grace is None else grace
    ctx = mp_context()
    label = portfolio_label(solvers)

    legs: List[_Job] = []
    for solver in solvers:
        child = budget.child()
        legs.append(_Job(ctx, instance, solver,
                         child.time_limit, child.node_limit, grace))
    losses: List[Tuple[str, Dict[str, object]]] = []
    winner: Optional[Tuple[str, Dict[str, object]]] = None
    try:
        while legs and winner is None:
            progressed = False
            for leg in list(legs):
                payload = leg.poll()
                if payload is None:
                    continue
                progressed = True
                legs.remove(leg)
                if str(payload["status"]) in ("SAT", "UNSAT"):
                    winner = (leg.solver, payload)
                    break
                losses.append((leg.solver, payload))
            if not progressed and legs:
                time.sleep(POLL_INTERVAL)
    finally:
        for leg in legs:
            leg.cancel()

    if winner is not None:
        solver, payload = winner
        stats = dict(payload.get("stats") or {})
        stats["portfolio_legs"] = float(len(solvers))
        stats["portfolio_winner"] = float(list(solvers).index(solver))
        stats["portfolio_cancelled"] = float(len(solvers) - 1 - len(losses))
        result = SolveResult(str(payload["status"]),
                             float(payload.get("runtime", 0.0)), stats)
        record = RunRecord(instance, label, result)
        record.winner = solver
        return record

    losses.sort(key=lambda item: _LOSS_ORDER.index(str(item[1]["status"]))
                if str(item[1]["status"]) in _LOSS_ORDER else len(_LOSS_ORDER))
    solver, payload = losses[0]
    stats = dict(payload.get("stats") or {})
    stats["portfolio_legs"] = float(len(solvers))
    result = SolveResult(str(payload["status"]),
                         float(payload.get("runtime", 0.0)), stats)
    record = RunRecord(instance, label, result)
    if payload.get("error"):
        record.error = str(payload["error"])
    return record


# ----------------------------------------------------------------------
# suite front end
# ----------------------------------------------------------------------

def run_suite_parallel(
    config: BenchConfig,
    solvers: Sequence[str] = ("HQS", "IDQ"),
    families: Sequence[str] = FAMILIES,
    jobs: int = 1,
    log_path: Optional[str] = None,
    resume: bool = False,
    portfolio: bool = False,
    grace: Optional[float] = None,
    on_record: Optional[Callable[[RunRecord], None]] = None,
) -> List[RunRecord]:
    """Parallel, fault-tolerant equivalent of :func:`runner.run_suite`.

    Produces the same set of (instance, solver, status) records as the
    serial path on a healthy suite; hanging or crashing solvers cost
    only their own record.  With ``portfolio=True`` each instance gets a
    single record from racing all ``solvers`` (see
    :func:`run_portfolio`); otherwise every (instance, solver) pair is
    measured.  ``resume=True`` skips pairs already present in
    ``log_path``.
    """
    suite = generate_suite(config, families)
    instances = [inst for family in families for inst in suite[family]]

    log = ResultLog(log_path) if log_path is not None else None
    done = log.load() if (log is not None and resume) else {}
    try:
        if not portfolio:
            return run_records(instances, solvers, config, jobs=jobs,
                               log=log, done=done, grace=grace,
                               on_record=on_record)
        label = portfolio_label(solvers)
        records: List[RunRecord] = []
        for instance in instances:
            key = (instance.name, label)
            if key in done:
                record = _record_from_payload(instance, label, done[key])
            else:
                record = run_portfolio(instance, solvers, config, grace=grace)
                if log is not None:
                    log.append(record_to_entry(record))
            if on_record is not None:
                on_record(record)
            records.append(record)
        return records
    finally:
        if log is not None:
            log.close()


if __name__ == "__main__":  # pragma: no cover - thin alias for hqs-bench
    import sys

    from ..cli import bench_main

    sys.exit(bench_main(sys.argv[1:]))
