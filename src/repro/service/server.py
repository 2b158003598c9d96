"""The asyncio front door: ``hqs-serve``.

One process runs three layers:

* :class:`SolverService` — transport-independent request handling:
  fingerprint computation (memoized per exact formula text),
  result-cache lookup, **in-flight deduplication** (concurrent
  identical requests attach to one solve), dispatch to the
  :class:`~repro.service.pool.WorkerPool` through an executor, result
  logging;
* :class:`ServiceServer` — the TCP listener speaking the
  newline-delimited JSON protocol, plus an optional minimal HTTP/1.1
  front end (``POST /solve``, ``GET /stats``, ``GET /ping``,
  ``GET /healthz``, ``GET /readyz``) for curl-style access and
  orchestrator probes;
* graceful shutdown — SIGTERM/SIGINT (or the ``shutdown`` op) stop the
  listeners, wait up to ``drain_timeout`` for in-flight solves, then
  drain the pool (busy workers past the budget are killed; their
  progress survives as cache-directory checkpoints).  Every completed
  solve is in the JSONL result log exactly once: entries are fsynced on
  append and deduplicated by fingerprint against the log loaded at
  startup.

The worker pool **must** be created before the event loop starts (the
workers are forked; see :class:`~repro.service.pool.WorkerPool`), which
is why :func:`main` builds pool → service → loop in that order.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import signal
import sys
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Sequence

from .. import faults
from ..core.checkpoint import formula_fingerprint
from ..durable import ResultLog
from ..formula.dqdimacs import DqdimacsError, parse_dqdimacs
from .cache import ResultCache
from .pool import WorkerPool
from .protocol import (
    DEFAULT_PORT,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    busy_response,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    validate_request,
)

#: Solver label under which service results are logged (pairs with the
#: fingerprint to form the JSONL key, mirroring the bench harness).
LOG_SOLVER = "HQS"


class ServiceConfig:
    """Knobs of one server instance."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        http_port: Optional[int] = None,
        workers: int = 2,
        cache_capacity: int = 1024,
        cache_dir: Optional[str] = None,
        log_path: Optional[str] = None,
        default_timeout: Optional[float] = 60.0,
        default_node_limit: Optional[int] = 2_000_000,
        drain_timeout: float = 10.0,
        max_pending: Optional[int] = None,
        heartbeat_interval: Optional[float] = 1.0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 5.0,
    ):
        self.host = host
        self.port = port
        self.http_port = http_port
        self.workers = workers
        self.cache_capacity = cache_capacity
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.default_timeout = default_timeout
        self.default_node_limit = default_node_limit
        self.drain_timeout = drain_timeout
        #: Bound on queued-plus-running solves before new requests get
        #: an explicit BUSY rejection instead of unbounded queueing
        #: (``None`` -> ``4 * workers``).
        self.max_pending = 4 * workers if max_pending is None else max_pending
        self.heartbeat_interval = heartbeat_interval
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown


class SolverService:
    """Transport-independent request handling over pool + cache."""

    def __init__(
        self,
        pool: WorkerPool,
        cache: ResultCache,
        config: Optional[ServiceConfig] = None,
    ):
        self.config = config or ServiceConfig()
        self.pool = pool
        self.cache = cache
        self.started = time.monotonic()
        self.requests = 0
        self.coalesced = 0
        self.errors = 0
        self.busy_rejections = 0
        #: Solves dispatched to (or queued for) the pool right now;
        #: bounded by ``config.max_pending`` — the backpressure valve.
        self._pending = 0
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Admission memo: BLAKE2b of the exact formula text -> the
        #: fingerprint its parse + validate + canonical hash produced.
        #: Only successful admissions are stored; an LRU bounded by
        #: ``cache_capacity``, touched only on the event loop.
        self._admitted: "OrderedDict[bytes, str]" = OrderedDict()
        self.parses = 0
        self.memo_hits = 0
        # One executor slot per worker: a request beyond pool capacity
        # queues here instead of stacking threads.
        self._executor = ThreadPoolExecutor(
            max_workers=pool.size, thread_name_prefix="hqs-pool"
        )
        # Dedicated single thread for the post-solve disk writes (cache
        # store + fsynced log append).  They must not run on the event
        # loop — an fsync stalls every connected client — and must not
        # queue behind long solves in the pool executor.  One thread
        # also serializes ResultLog.append, which is not reentrant.
        self._io_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="hqs-io"
        )
        self._log_lock = threading.Lock()
        self._log: Optional[ResultLog] = None
        self._logged = set()
        if self.config.log_path is not None:
            self._log = ResultLog(self.config.log_path)
            self._logged = set(self._log.load())

    # ------------------------------------------------------------------
    async def handle(self, message: Dict[str, object]) -> Dict[str, object]:
        """Answer one request message (any op)."""
        self.requests += 1
        try:
            op = validate_request(message)
        except ProtocolError as exc:
            self.errors += 1
            return error_response(message, str(exc))
        if op == "ping":
            return ok_response(message, pong=True, uptime=self.uptime())
        if op == "stats":
            return ok_response(message, **self.snapshot_stats())
        if op == "health":
            return ok_response(message, **self.health_snapshot())
        if op == "shutdown":
            # The transport layer sees the op and trips the stop event
            # after this acknowledgement is written.
            return ok_response(message, stopping=True)
        return await self._solve(message)

    # ------------------------------------------------------------------
    async def _solve(self, message: Dict[str, object]) -> Dict[str, object]:
        text = str(message["formula"])
        # Same bytes, same fingerprint: a repeat skips the parse and the
        # canonical hash.  surrogatepass keeps a lone surrogate (legal
        # in JSON) on the parser's "bad formula" path.
        digest = hashlib.blake2b(text.encode("utf-8", "surrogatepass"),
                                 digest_size=32).digest()
        fingerprint = self._admitted.get(digest)
        if fingerprint is not None:
            self._admitted.move_to_end(digest)
            self.memo_hits += 1
        else:
            self.parses += 1
            try:
                formula = parse_dqdimacs(text)
                formula.validate()
            except (DqdimacsError, ValueError) as exc:
                self.errors += 1
                return error_response(message, f"bad formula: {exc}")
            fingerprint = formula_fingerprint(formula)
            self._admitted[digest] = fingerprint
            if len(self._admitted) > self.config.cache_capacity:
                self._admitted.popitem(last=False)

        if not message.get("no_cache"):
            cached = self.cache.lookup(fingerprint)
            if cached is not None:
                return self._result_response(message, fingerprint, cached,
                                             str(cached.get("cache", "hit")))
            inflight = self._inflight.get(fingerprint)
            if inflight is not None:
                self.coalesced += 1
                payload = await asyncio.shield(inflight)
                return self._result_response(
                    message, fingerprint, payload, "coalesced"
                )

        # Backpressure: a genuinely new solve consumes a pool slot (or
        # a queue position).  Past the bound, reject *now* with an
        # explicitly retriable BUSY instead of queueing without limit —
        # overload must degrade into latency the client controls, not
        # into memory growth and deadline blowouts it cannot see.
        if self._pending >= self.config.max_pending:
            self.busy_rejections += 1
            return busy_response(
                message,
                f"server busy: {self._pending} solves pending "
                f"(max_pending={self.config.max_pending}); retry with backoff",
            )

        future = asyncio.get_running_loop().create_future()
        self._inflight[fingerprint] = future
        self._pending += 1
        try:
            payload = await self._dispatch(message, fingerprint)
            if not future.done():
                future.set_result(payload)
        except BaseException as exc:
            if not future.done():  # wake coalesced waiters on the error too
                future.set_exception(exc)
                future.exception()  # consumed: avoid the never-retrieved warning
            raise
        finally:
            self._pending -= 1
            self._inflight.pop(fingerprint, None)
        return self._result_response(message, fingerprint, payload, "miss")

    async def _dispatch(
        self, message: Dict[str, object], fingerprint: str
    ) -> Dict[str, object]:
        config = self.config
        time_limit = message.get("timeout")
        time_limit = (
            config.default_timeout if time_limit is None
            else min(float(time_limit), config.default_timeout or float(time_limit))
        )
        node_limit = message.get("node_limit")
        node_limit = (
            config.default_node_limit if node_limit is None
            else min(int(node_limit), config.default_node_limit or int(node_limit))
        )
        checkpoint = self.cache.checkpoint_path(fingerprint)
        resuming = self.cache.has_checkpoint(fingerprint)
        family = message.get("family")
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(
            self._executor,
            lambda: self.pool.solve(
                str(message["formula"]),
                family=str(family) if family is not None else None,
                time_limit=time_limit,
                node_limit=node_limit,
                checkpoint=checkpoint,
            ),
        )
        if resuming and payload.get("stats", {}).get("checkpoint_resumed"):
            self.cache.note_resume()

        def _persist() -> None:
            if self.cache.store(fingerprint, payload):
                self._append_log(fingerprint, payload)

        # Blocking disk IO (cache write, fsynced log append) stays off
        # the event loop; the response waits so drain still guarantees
        # every acknowledged result is on disk.
        await loop.run_in_executor(self._io_executor, _persist)
        return payload

    def _result_response(
        self,
        message: Dict[str, object],
        fingerprint: str,
        payload: Dict[str, object],
        cache: str,
    ) -> Dict[str, object]:
        response = ok_response(message, fingerprint=fingerprint, cache=cache)
        for key in ("status", "runtime", "stats", "failure", "error",
                    "worker_pid"):
            if key in payload:
                response[key] = payload[key]
        return response

    # ------------------------------------------------------------------
    def _append_log(self, fingerprint: str, payload: Dict[str, object]) -> None:
        """Log a *fresh* definitive result exactly once per fingerprint.

        Runs on the IO executor thread; the lock keeps the dedup set
        and the non-reentrant :class:`ResultLog` consistent with the
        drain path.
        """
        if self._log is None:
            return
        key = (fingerprint, LOG_SOLVER)
        with self._log_lock:
            if key in self._logged:
                return
            entry = {"instance": fingerprint, "solver": LOG_SOLVER}
            entry.update(
                {k: payload[k] for k in ("status", "runtime", "stats")
                 if k in payload}
            )
            self._log.append(entry)
            self._logged.add(key)

    # ------------------------------------------------------------------
    def uptime(self) -> float:
        return time.monotonic() - self.started

    def snapshot_stats(self) -> Dict[str, object]:
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime": self.uptime(),
            "requests": self.requests,
            "coalesced": self.coalesced,
            "request_errors": self.errors,
            "inflight": len(self._inflight),
            "pending": self._pending,
            "max_pending": self.config.max_pending,
            "busy_rejections": self.busy_rejections,
            "admission": {
                "parses": self.parses,
                "memo_hits": self.memo_hits,
                "memo_entries": len(self._admitted),
            },
            "cache": self.cache.stats.as_dict(),
            "cache_entries": len(self.cache),
            "pool": self.pool.stats(),
        }

    def health_snapshot(self) -> Dict[str, object]:
        """Liveness + readiness in one view.

        ``live`` is "the process is serving" (always true when this
        code runs); ``ready`` is "a new solve would be accepted and has
        a worker to land on": at least one worker process alive and
        queue headroom below the backpressure bound.
        """
        pool_stats = self.pool.stats()
        alive = int(pool_stats.get("alive", 0))
        ready = alive > 0 and self._pending < self.config.max_pending
        return {
            "live": True,
            "ready": ready,
            "uptime": self.uptime(),
            "workers_alive": alive,
            "workers": self.pool.size,
            "pending": self._pending,
            "max_pending": self.config.max_pending,
            "busy_rejections": self.busy_rejections,
            "breaker": self.pool.breaker_state(),
        }

    async def drain(self, timeout: float) -> int:
        """Wait for in-flight solves (bounded); returns how many remained."""
        pending = [f for f in self._inflight.values() if not f.done()]
        if pending:
            await asyncio.wait(pending, timeout=timeout)
        return sum(1 for f in self._inflight.values() if not f.done())

    def close(self) -> None:
        self._executor.shutdown(wait=False)
        self._io_executor.shutdown(wait=True)  # flush queued log appends
        if self._log is not None:
            with self._log_lock:
                self._log.close()


class ServiceServer:
    """TCP (+ optional HTTP) listeners around a :class:`SolverService`."""

    def __init__(
        self,
        config: ServiceConfig,
        pool: WorkerPool,
        cache: Optional[ResultCache] = None,
    ):
        self.config = config
        self.pool = pool
        self.cache = cache if cache is not None else ResultCache(
            capacity=config.cache_capacity, disk_dir=config.cache_dir
        )
        self.service = SolverService(pool, self.cache, config)
        self.port: Optional[int] = None
        self.http_port: Optional[int] = None
        self._stop: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: "set[asyncio.Task]" = set()

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------
    async def _handle_tcp(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """One JSON-lines connection; requests answered in order."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_message(
                        error_response({}, "message too large")))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    message = decode_message(line)
                    response = await self.service.handle(message)
                except ProtocolError as exc:
                    self.service.errors += 1
                    message, response = {}, error_response({}, str(exc))
                except Exception as exc:  # solver-side surprise: keep serving
                    message, response = {}, self._internal_error(
                        exc, traceback.format_exc())
                encoded = encode_message(response)
                fault = faults.fire("server.send")
                if fault is not None and fault.kind == "slow":
                    await asyncio.sleep(fault.seconds)
                elif fault is not None and fault.kind == "drop":
                    # Half a frame, then a hard abort: the client sees a
                    # line with no terminating newline — the mid-frame
                    # EOF the retry/idempotency machinery must absorb.
                    writer.write(encoded[: max(1, len(encoded) // 2)])
                    await writer.drain()
                    writer.transport.abort()
                    return
                writer.write(encoded)
                await writer.drain()
                if message.get("op") == "shutdown":
                    self.request_stop()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancelled us between requests: completing
            # normally (writer closed below) keeps the teardown quiet —
            # a task that *stays* cancelled trips asyncio's noisy
            # connection_made callback on 3.11.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):  # pragma: no cover
                pass

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """Minimal HTTP/1.1: POST /solve, GET /stats, GET /ping,
        GET /healthz (liveness), GET /readyz (readiness)."""
        try:
            request_line = (await reader.readline()).decode("latin-1").strip()
            parts = request_line.split()
            if len(parts) != 3:
                return await self._http_reply(writer, 400, {"error": "bad request"})
            method, path, _version = parts
            length = 0
            while True:
                header = (await reader.readline()).decode("latin-1").strip()
                if not header:
                    break
                name, _, value = header.partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        length = int(value.strip())
                    except ValueError:
                        length = -1
                    if length < 0:
                        return await self._http_reply(
                            writer, 400, {"error": "bad content-length"})
            if length > MAX_LINE_BYTES:
                return await self._http_reply(writer, 413, {"error": "too large"})
            body = await reader.readexactly(length) if length else b""

            if method == "GET" and path == "/stats":
                return await self._http_reply(
                    writer, 200, ok_response({}, **self.service.snapshot_stats()))
            if method == "GET" and path == "/ping":
                return await self._http_reply(
                    writer, 200, ok_response({}, pong=True))
            if method == "GET" and path == "/healthz":
                # Liveness: if this handler runs, the process serves.
                return await self._http_reply(
                    writer, 200,
                    ok_response({}, **self.service.health_snapshot()))
            if method == "GET" and path == "/readyz":
                health = self.service.health_snapshot()
                return await self._http_reply(
                    writer, 200 if health["ready"] else 503,
                    ok_response({}, **health))
            if method == "POST" and path == "/solve":
                try:
                    message = decode_message(body)
                except ProtocolError as exc:
                    return await self._http_reply(writer, 400,
                                                  {"error": str(exc)})
                message["op"] = "solve"
                response = await self.service.handle(message)
                code = 200 if response.get("ok") else (
                    503 if response.get("busy") else 400)
                return await self._http_reply(writer, code, response)
            await self._http_reply(writer, 404, {"error": f"no route {path}"})
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass
        except Exception as exc:  # solver-side surprise: a 500, not a dropped socket
            response = self._internal_error(exc, traceback.format_exc())
            try:
                await self._http_reply(writer, 500, response)
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):  # pragma: no cover
                pass

    def _internal_error(self, exc: Exception, trace: str) -> Dict[str, object]:
        """Count an unexpected failure and build its terse client reply.

        The operator gets the full traceback on stderr — a swallowed one
        is the only evidence when a worker wedges a request.
        """
        print(f"c internal error serving request: {exc!r}\n{trace}",
              file=sys.stderr)
        self.service.errors += 1
        return error_response({}, f"internal error: {exc!r}")

    async def _http_reply(self, writer: asyncio.StreamWriter, code: int,
                          payload: Dict[str, object]) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  413: "Payload Too Large", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(code, "Error")
        writer.write(
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1") + body
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listeners (port 0 picks free ports; see ``.port``)."""
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_tcp, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http, self.config.host, self.config.http_port,
                limit=MAX_LINE_BYTES,
            )
            self.http_port = self._http_server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def serve(self, install_signals: bool = True) -> Dict[str, object]:
        """Run until SIGTERM/SIGINT or a ``shutdown`` op, then drain.

        Returns a shutdown summary (for logging and the smoke tests):
        how many in-flight solves finished during the drain window and
        how many busy workers had to be killed (their progress lives on
        as checkpoints in the cache directory).
        """
        if self._server is None:
            await self.start()
        loop = asyncio.get_event_loop()
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.request_stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        await self._stop.wait()
        return await self.shutdown()

    async def shutdown(self) -> Dict[str, object]:
        """Stop accepting, drain in-flight solves, stop the pool."""
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        drain = self.config.drain_timeout
        still_running = await self.service.drain(drain)
        # Idle keep-alive connections would otherwise linger until the
        # event loop is torn down and be killed mid-readline there.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        pool_summary = self.pool.shutdown(drain_timeout=1.0 if still_running
                                          else drain)
        self.service.close()
        return {
            "undrained": still_running,
            "pool": pool_summary,
            "requests": self.service.requests,
            "cache": self.cache.stats.as_dict(),
        }

    def run(self, install_signals: bool = True) -> Dict[str, object]:
        """Blocking convenience wrapper: start, serve, drain."""
        return asyncio.run(self._run(install_signals))

    async def _run(self, install_signals: bool) -> Dict[str, object]:
        await self.start()
        self.announce()
        return await self.serve(install_signals=install_signals)

    def announce(self) -> None:
        print(f"c hqs-serve listening on {self.config.host}:{self.port}"
              + (f" (http {self.http_port})" if self.http_port else ""),
              flush=True)


# ----------------------------------------------------------------------
# console entry
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqs-serve",
        description=(
            "Serve DQBF/PEC solve requests over JSON-lines TCP with a "
            "fingerprint-keyed result cache and a warm worker pool"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port (default {DEFAULT_PORT}; 0 = ephemeral)")
    parser.add_argument("--http-port", type=int, default=None,
                        help="also serve minimal HTTP on this port (0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=2,
                        help="warm worker processes (default 2)")
    parser.add_argument("--cache-capacity", type=int, default=1024,
                        help="in-memory result cache entries, also the bound "
                             "of the admission memo (default 1024)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk cache tier: results + resume checkpoints")
    parser.add_argument("--log", default=None, metavar="PATH",
                        help="JSONL log of completed solves (fsynced, deduplicated)")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="per-request time budget cap in seconds (default 60)")
    parser.add_argument("--node-limit", type=int, default=2_000_000,
                        help="per-request AIG node budget cap (default 2e6)")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        help="seconds granted to in-flight solves on shutdown")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="solve-queue bound before BUSY rejections "
                             "(default 4 x workers)")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0,
                        help="worker heartbeat period in seconds; "
                             "0 disables supervision (default 1.0)")
    parser.add_argument("--breaker-threshold", type=int, default=5,
                        help="consecutive worker failures per family before "
                             "the circuit opens (default 5)")
    parser.add_argument("--breaker-cooldown", type=float, default=5.0,
                        help="seconds an open circuit rejects before a "
                             "half-open probe (default 5.0)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        workers=args.workers,
        cache_capacity=args.cache_capacity,
        cache_dir=args.cache_dir,
        log_path=args.log,
        default_timeout=args.timeout,
        default_node_limit=args.node_limit,
        drain_timeout=args.drain_timeout,
        max_pending=args.max_pending,
        heartbeat_interval=args.heartbeat_interval or None,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    # Fork the workers before asyncio spins up any threads.
    pool = WorkerPool(
        size=config.workers,
        fault_plan=faults.active(),
        heartbeat_interval=config.heartbeat_interval,
        breaker_threshold=config.breaker_threshold,
        breaker_cooldown=config.breaker_cooldown,
    )
    server = ServiceServer(config, pool)
    summary = server.run()
    print(f"c hqs-serve drained: {json.dumps(summary, sort_keys=True)}",
          flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
