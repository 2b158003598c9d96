"""Warm worker pool: long-lived solver processes.

Adapted from the one-shot workers of :mod:`repro.experiments.parallel`
(same fork context, same hard-kill discipline via :mod:`repro.proc`),
but inverted: instead of one process per (instance, solver) pair, each
:class:`WarmWorker` process lives across requests, so fork, imports and
interpreter warm-up are paid once per worker, not once per request.
Every request is solved by a fresh ``HqsSolver(HqsOptions())``, the
batch solver's configuration and code path; no solver state crosses
requests.

Requests are routed by family affinity (CRC-32 of the family hint
modulo pool size), so one family's requests land on one process; the
hint is only an affinity key.  Requests without a hint round-robin.
Each worker handles one request at a time — a per-worker lock
serializes submitters, which is what the front door's executor threads
block on.

Failure handling goes beyond the benchmark runner's kill-and-respawn:

* a request whose budget (plus :func:`repro.proc.default_grace`) passes
  without an answer gets the worker killed and recycled, and reports
  ``TIMEOUT`` with ``stats["hard_timeout"]``;
* a worker that dies mid-request (crash, OOM kill) is respawned and the
  request reports ``ERROR`` — the replacement starts cold but the pool
  stays at full strength;
* **supervision**: with ``heartbeat_interval`` set, a daemon thread
  pings idle workers and proactively respawns dead or wedged ones, so
  a crash between requests is healed before the next request pays for
  it; respawns after rapid deaths back off exponentially (base
  doubling up to a cap) so a worker that dies on arrival — a broken
  import, an exhausted machine — cannot pin a CPU with a fork storm;
* a **per-family circuit breaker** counts consecutive failures
  (worker death, hard kill) per routing family; past the threshold the
  family's requests fail fast with ``stats["circuit_open"]`` instead
  of feeding more requests to a crashing input, and after the cooldown
  one probe request is let through (half-open) to test recovery;
* :meth:`WorkerPool.shutdown` drains: workers busy with a request may
  finish within the drain budget; past it they are killed, which is
  safe because solves checkpoint after every eliminated universal (the
  next request for the same fingerprint resumes from the snapshot).

Chaos testing: the worker request loop is a :mod:`repro.faults` site
(``pool.solve`` — ``crash``/``wedge``/``slow``/``clock``), and a
:class:`FaultPlan` handed to the pool constructor is installed inside
every worker it spawns.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
import zlib
from typing import Dict, List, Optional

from .. import faults
from ..core.result import ERROR, TIMEOUT
from ..proc import close_foreign_sockets, default_grace, mp_context, reap

#: A worker that dies sooner than this after spawning counts as a
#: "rapid death" and escalates the respawn backoff.
RAPID_DEATH_WINDOW = 5.0


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

def _safe_send(conn, payload: Dict[str, object]) -> None:
    try:
        conn.send(payload)
    except (BrokenPipeError, OSError):  # supervisor already gave up on us
        pass


def _solve_message(message: Dict[str, object]) -> Dict[str, object]:
    """Run one solve request with the batch solver's configuration."""
    started = time.monotonic()
    # Chaos hook: crash/wedge/slow are enacted here; a ``clock`` fault
    # collapses the request's time budget so the ResourceGuard trips
    # (budget exhaustion -> diagnosed UNKNOWN, never a wrong answer).
    fault = faults.apply_worker_fault(faults.fire("pool.solve"))
    if fault is not None and fault.kind == "clock":
        squeezed = fault.args.get("seconds", 0.001)
        limit = message.get("time_limit")
        message = dict(message,
                       time_limit=squeezed if limit is None
                       else min(float(limit), squeezed))
    try:
        from ..core.hqs import HqsOptions, HqsSolver
        from ..core.result import Limits
        from ..formula.dqdimacs import parse_dqdimacs

        formula = parse_dqdimacs(str(message["formula"]))
        limits = Limits(
            time_limit=message.get("time_limit"),
            node_limit=message.get("node_limit"),
        )
        result = HqsSolver(HqsOptions()).solve(
            formula, limits, checkpoint=message.get("checkpoint")
        )
        payload = result.as_dict()
        payload["worker_pid"] = os.getpid()
        return payload
    except BaseException:
        return {
            "status": ERROR,
            "runtime": time.monotonic() - started,
            "stats": {"worker_error": 1.0},
            "error": traceback.format_exc(),
        }


def _worker_main(
    conn, fault_plan=None, fault_offsets: Optional[Dict[str, int]] = None,
) -> None:
    """Request loop of one warm worker process.

    ``fault_offsets`` pre-advances the fault plan's per-site counters
    to where the slot's previous incarnation left off, so a respawned
    worker continues the chaos schedule instead of replaying it.
    """
    # Workers respawned mid-serving fork the server process, inheriting
    # dups of every live client connection — which would then hold
    # those connections open (no FIN) after the server closes them.
    # Drop everything socket-shaped except our own command pipe.
    close_foreign_sockets(keep=(conn.fileno(),))
    if fault_plan is not None:
        faults.install(fault_plan)
    plan = faults.active()
    if plan is not None:
        for site, count in (fault_offsets or {}).items():
            plan.advance(site, count)
    solves = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        op = message.get("op")
        if op == "shutdown":
            _safe_send(conn, {"ok": True, "solves": solves})
            break
        if op == "ping":
            _safe_send(conn, {"ok": True, "pid": os.getpid()})
        elif op == "stall":  # test hook: a solver stuck in native code
            time.sleep(float(message.get("seconds", 0.0)))
            _safe_send(conn, {"ok": True})
        elif op == "solve":
            payload = _solve_message(message)
            solves += 1
            _safe_send(conn, payload)
        else:
            _safe_send(conn, {"ok": False, "error": f"unknown worker op {op!r}"})
    conn.close()


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------

class WarmWorker:
    """One long-lived worker slot: the live process plus respawn policy.

    The *slot* outlives any single worker process.  Respawns after
    rapid deaths (a worker that died within :data:`RAPID_DEATH_WINDOW`
    of spawning) sleep an exponentially growing backoff first, so a
    worker that is poisoned — crashing on arrival every time — costs a
    bounded fork rate instead of a spin loop.  The slot also carries
    the cumulative count of solve requests it dispatched, handed to
    each new process as a fault-site offset: "the Nth solve at this
    slot" stays well defined across incarnations, which is what keeps
    seeded chaos schedules meaningful when workers die mid-plan.
    """

    def __init__(self, ctx, fault_plan=None,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0):
        self._ctx = ctx
        self._fault_plan = fault_plan
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.solves = 0
        self.recycles = 0
        self.rapid_deaths = 0
        self.backoff_slept = 0.0
        self.solve_requests = 0
        self._spawned_at = 0.0
        self._spawn()

    def _spawn(self) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        self.conn = parent
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child, self._fault_plan,
                  {"pool.solve": self.solve_requests}),
            daemon=True,
        )
        self.process.start()
        child.close()
        self._spawned_at = time.monotonic()

    def request(
        self, message: Dict[str, object], hard_deadline: Optional[float]
    ) -> Optional[Dict[str, object]]:
        """Send one request, block for the reply.

        ``None`` means the hard deadline passed (caller must
        :meth:`recycle`); a dead worker surfaces as :class:`EOFError`.
        """
        if message.get("op") == "solve":
            self.solve_requests += 1
        self.conn.send(message)
        while True:
            if hard_deadline is None:
                timeout = 1.0
            else:
                timeout = max(0.0, hard_deadline - time.monotonic())
            if self.conn.poll(timeout):
                return self.conn.recv()  # EOFError when the worker died
            if not self.process.is_alive():
                raise EOFError("worker died without replying")
            if hard_deadline is not None and time.monotonic() >= hard_deadline:
                return None

    def backoff_delay(self) -> float:
        """The respawn delay owed right now (0.0 after a healthy run)."""
        if time.monotonic() - self._spawned_at >= RAPID_DEATH_WINDOW:
            return 0.0
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** self.rapid_deaths))

    def recycle(self) -> None:
        """Kill (if needed) and respawn — the process is new, the slot survives."""
        if self.process.is_alive():
            self.process.terminate()
        reap(self.process, self.conn)
        self.recycles += 1
        delay = self.backoff_delay()
        if delay > 0.0:
            self.rapid_deaths += 1
            self.backoff_slept += delay
            time.sleep(delay)
        else:
            self.rapid_deaths = 0
        self._spawn()

    def close(self, kill: bool = False) -> None:
        if kill and self.process.is_alive():
            self.process.terminate()
        reap(self.process, self.conn)


class WorkerPool:
    """A fixed-size pool of :class:`WarmWorker` processes.

    Fork the pool *before* starting threads or event loops (the workers
    inherit a clean single-threaded image); it is then safe to call
    :meth:`solve` from many threads concurrently.
    """

    def __init__(
        self,
        size: int = 2,
        grace: Optional[float] = None,
        fault_plan=None,
        heartbeat_interval: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 5.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.grace = grace
        self._ctx = mp_context()
        self.fault_plan = fault_plan
        self._workers: List[WarmWorker] = [
            WarmWorker(self._ctx, fault_plan=fault_plan,
                       backoff_base=backoff_base, backoff_cap=backoff_cap)
            for _ in range(size)
        ]
        self._locks = [threading.Lock() for _ in range(size)]
        self._rr_lock = threading.Lock()
        self._rr = 0
        self._closed = False
        self.hard_kills = 0
        self.worker_deaths = 0
        self.completed = 0
        # per-family circuit breaker: family -> [consecutive_failures,
        # open_until_monotonic]
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._breaker: Dict[str, List[float]] = {}
        self._breaker_lock = threading.Lock()
        self.breaker_opens = 0
        self.breaker_rejections = 0
        # heartbeat supervision of idle workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeats = 0
        self.heartbeat_failures = 0
        self.supervised_restarts = 0
        self._stop_supervisor = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        if heartbeat_interval is not None:
            self._supervisor = threading.Thread(
                target=self._supervise_loop, name="hqs-pool-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    # ------------------------------------------------------------------
    # supervision: heartbeats + proactive respawn
    # ------------------------------------------------------------------
    def _supervise_loop(self) -> None:
        """Ping idle workers; respawn dead or unresponsive ones.

        Runs in a daemon thread.  Busy workers (slot lock held by a
        request) are skipped — their requester is already watching the
        hard deadline; an idle slot whose process died (or stopped
        answering pings) is recycled *now*, before a request pays the
        latency of discovering the corpse.
        """
        interval = self.heartbeat_interval or 1.0
        while not self._stop_supervisor.wait(interval):
            for index, worker in enumerate(self._workers):
                if self._closed:
                    return
                if not self._locks[index].acquire(blocking=False):
                    continue  # busy: the request path supervises it
                try:
                    if self._closed:
                        return
                    if not worker.process.is_alive():
                        self.supervised_restarts += 1
                        worker.recycle()
                        continue
                    self.heartbeats += 1
                    try:
                        reply = worker.request(
                            {"op": "ping"},
                            time.monotonic() + max(2.0 * interval, 1.0),
                        )
                    except (EOFError, OSError):
                        reply = None
                    if reply is None:  # wedged or died mid-ping
                        self.heartbeat_failures += 1
                        self.supervised_restarts += 1
                        worker.recycle()
                finally:
                    self._locks[index].release()

    # ------------------------------------------------------------------
    # per-family circuit breaker
    # ------------------------------------------------------------------
    def _breaker_check(self, family: Optional[str]) -> Optional[Dict[str, object]]:
        """Fail fast when ``family``'s breaker is open (else ``None``).

        After the cooldown the breaker goes half-open: the first
        request through is the probe (its outcome re-opens or closes
        the circuit); concurrent requests keep failing fast until the
        probe verdict lands.
        """
        if not family:
            return None
        with self._breaker_lock:
            state = self._breaker.get(family)
            if state is None or state[0] < self.breaker_threshold:
                return None
            now = time.monotonic()
            if now >= state[1]:
                # half-open: let this request probe, hold the rest back
                state[1] = now + self.breaker_cooldown
                return None
            self.breaker_rejections += 1
        return {
            "status": ERROR,
            "runtime": 0.0,
            "stats": {"circuit_open": 1.0},
            "error": (
                f"circuit breaker open for family {family!r}: "
                f"{int(state[0])} consecutive worker failures; "
                f"retry after cooldown"
            ),
        }

    def _breaker_record(self, family: Optional[str], failed: bool) -> None:
        if not family:
            return
        with self._breaker_lock:
            if not failed:
                self._breaker.pop(family, None)
                return
            state = self._breaker.setdefault(family, [0.0, 0.0])
            state[0] += 1
            if state[0] >= self.breaker_threshold:
                if state[0] == self.breaker_threshold:
                    self.breaker_opens += 1
                state[1] = time.monotonic() + self.breaker_cooldown

    def breaker_state(self) -> Dict[str, Dict[str, float]]:
        """Open/half-open families and their failure counts (stats op)."""
        now = time.monotonic()
        with self._breaker_lock:
            return {
                family: {
                    "consecutive_failures": state[0],
                    "open": float(state[0] >= self.breaker_threshold),
                    "cooldown_remaining": max(0.0, state[1] - now),
                }
                for family, state in self._breaker.items()
                if state[0] > 0
            }

    # ------------------------------------------------------------------
    def route(self, family: Optional[str]) -> int:
        """Worker index for ``family`` (affinity) or round-robin."""
        if family:
            return zlib.crc32(family.encode("utf-8")) % self.size
        with self._rr_lock:
            self._rr = (self._rr + 1) % self.size
            return self._rr

    def solve(
        self,
        formula: str,
        family: Optional[str] = None,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        checkpoint: Optional[str] = None,
    ) -> Dict[str, object]:
        """Solve DQDIMACS text on the family's worker (blocking)."""
        message: Dict[str, object] = {
            "op": "solve",
            "formula": formula,
            "time_limit": time_limit,
            "node_limit": node_limit,
            "checkpoint": checkpoint,
        }
        rejected = self._breaker_check(family)
        if rejected is not None:
            return rejected
        grace = default_grace(time_limit) if self.grace is None else self.grace
        deadline = (
            None if time_limit is None
            else time.monotonic() + time_limit + grace
        )
        payload = self._request(self.route(family), message, deadline)
        # Only worker-level failures feed the breaker: a death or a
        # hard kill says "this family keeps destroying workers"; a bad
        # formula or a budget UNKNOWN leaves the worker healthy.
        stats = payload.get("stats") or {}
        self._breaker_record(
            family,
            bool(stats.get("worker_died") or stats.get("hard_timeout")),
        )
        return payload

    def _request(
        self, index: int, message: Dict[str, object],
        hard_deadline: Optional[float],
    ) -> Dict[str, object]:
        if self._closed:
            return {
                "status": ERROR,
                "runtime": 0.0,
                "stats": {"worker_error": 1.0},
                "error": "worker pool is shut down",
            }
        worker = self._workers[index]
        started = time.monotonic()
        with self._locks[index]:
            if self._closed:
                return {
                    "status": ERROR,
                    "runtime": 0.0,
                    "stats": {"worker_error": 1.0},
                    "error": "worker pool is shut down",
                }
            try:
                payload = worker.request(message, hard_deadline)
            except (EOFError, OSError):
                self.worker_deaths += 1
                worker.recycle()
                return {
                    "status": ERROR,
                    "runtime": time.monotonic() - started,
                    "stats": {"worker_error": 1.0, "worker_died": 1.0},
                    "error": "worker died mid-request; recycled",
                }
            if payload is None:
                self.hard_kills += 1
                worker.recycle()
                return {
                    "status": TIMEOUT,
                    "runtime": time.monotonic() - started,
                    "stats": {"hard_timeout": 1.0},
                }
            worker.solves += 1
            self.completed += 1
            return payload

    def ping(self) -> List[Dict[str, object]]:
        """Liveness probe of every worker (serialized per worker)."""
        replies = []
        for index in range(self.size):
            replies.append(self._request(index, {"op": "ping"},
                                         time.monotonic() + 10.0))
        return replies

    def stats(self) -> Dict[str, object]:
        return {
            "workers": self.size,
            "alive": sum(1 for w in self._workers if w.process.is_alive()),
            "completed": self.completed,
            "hard_kills": self.hard_kills,
            "worker_deaths": self.worker_deaths,
            "recycles": sum(w.recycles for w in self._workers),
            "worker_solves": [w.solves for w in self._workers],
            "heartbeats": self.heartbeats,
            "heartbeat_failures": self.heartbeat_failures,
            "supervised_restarts": self.supervised_restarts,
            "backoff_slept_s": sum(w.backoff_slept for w in self._workers),
            "breaker_opens": self.breaker_opens,
            "breaker_rejections": self.breaker_rejections,
            "breaker": self.breaker_state(),
        }

    # ------------------------------------------------------------------
    def shutdown(self, drain_timeout: float = 10.0) -> Dict[str, int]:
        """Stop the pool, draining in-flight solves where possible.

        Workers idle (or finishing within the drain budget) exit
        cleanly; workers still busy past it are killed — their
        in-progress solves survive as on-disk checkpoints, so nothing
        is lost beyond the wall-clock already spent past the last
        eliminated universal.
        """
        self._closed = True
        self._stop_supervisor.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        deadline = time.monotonic() + max(0.0, drain_timeout)
        drained = 0
        killed = 0
        for index, worker in enumerate(self._workers):
            remaining = max(0.0, deadline - time.monotonic())
            if self._locks[index].acquire(timeout=remaining):
                try:
                    try:
                        worker.conn.send({"op": "shutdown"})
                        worker.conn.poll(5.0)
                    except (BrokenPipeError, OSError):
                        pass
                    worker.close()
                    drained += 1
                finally:
                    self._locks[index].release()
            else:
                worker.close(kill=True)
                killed += 1
        return {"drained": drained, "killed": killed}

    def kill(self) -> None:
        """Immediate teardown (tests, error paths); no draining."""
        self._closed = True
        self._stop_supervisor.set()
        for worker in self._workers:
            worker.close(kill=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        if not self._closed:
            self.kill()
