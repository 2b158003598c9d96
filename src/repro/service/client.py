"""Blocking client library for the solver service: ``hqs-client``.

:class:`ServiceClient` speaks the newline-delimited JSON protocol over
one TCP connection.  Requests on a single client are serialized (the
protocol answers in order); for concurrent load, open one client per
thread — sockets are cheap, warm workers are shared server-side.

Resilience: the client retries transparently on transport failures
(connection refused/reset, mid-frame EOF) and on the server's explicit
``busy`` backpressure rejections, reconnecting with jittered
exponential backoff between attempts.  This is safe because every
protocol operation is idempotent — a ``solve`` is keyed by the formula
fingerprint server-side, so resubmitting a request whose response was
lost either coalesces onto the still-running solve or hits the result
cache.  Each request carries an overall wall-clock ``deadline`` across
all attempts.  Failures that survive the retry budget surface as:

* :class:`ServiceProtocolError` — the connection died mid-frame or the
  reply was unparsable; carries the partial frame for diagnosis;
* :class:`ServiceBusyError` — the server kept answering BUSY;
* :class:`ServiceError` — everything else (including ``ok: false``
  responses, which are never retried: the server *answered*).

Library use::

    from repro.service import ServiceClient

    with ServiceClient(port=20150) as client:
        reply = client.solve(formula, family="adder", timeout=30.0)
        print(reply["status"], reply["cache"])   # "SAT", "hit"

CLI use::

    hqs-client solve problem.dqdimacs --family adder
    hqs-client stats
    hqs-client shutdown

``solve`` exits with the (D)QBF convention of the ``hqs`` CLI:
10 = SAT, 20 = UNSAT, 0 = inconclusive, 2 = transport/protocol error.
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import sys
import threading
import time
import zlib
from typing import Dict, Optional, Sequence, Tuple, Union

from ..formula.dqbf import Dqbf
from ..formula.dqdimacs import write_dqdimacs
from .protocol import (
    DEFAULT_PORT,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
    solve_request,
)


class ServiceError(RuntimeError):
    """A transport failure or an ``ok: false`` response."""


class ServiceProtocolError(ServiceError):
    """The reply frame was cut short or unparsable.

    ``partial`` holds the bytes received before the connection died (up
    to :data:`PARTIAL_CONTEXT` of them) — enough to tell "server closed
    mid-frame" apart from "server sent garbage" in a bug report.
    """

    def __init__(self, message: str, partial: bytes = b"") -> None:
        self.partial = partial[:PARTIAL_CONTEXT]
        if partial:
            message = (f"{message} (partial frame, {len(partial)} bytes: "
                       f"{self.partial!r})")
        super().__init__(message)


class ServiceBusyError(ServiceError):
    """The server rejected the request with backpressure (``busy``).

    Only raised once the retry budget is exhausted — a busy reply means
    the request was never dispatched, so retrying is always safe.
    """


#: How much of a broken frame :class:`ServiceProtocolError` preserves.
PARTIAL_CONTEXT = 256


class ServiceClient:
    """One connection to ``hqs-serve``; thread-safe via a request lock.

    ``retries`` bounds the *additional* attempts after the first
    (transport failures and BUSY rejections only); ``backoff`` is the
    initial sleep between attempts, doubled per retry up to
    ``backoff_cap`` with +-50% jitter; ``deadline`` caps the total
    wall-clock of one logical request across all attempts.

    ``seed`` makes the retry jitter reproducible: with a seed set,
    :meth:`solve` derives its backoff RNG from ``seed`` combined with
    the formula text, so a ``REPRO_FAULTS`` soak replays the identical
    retry schedule per request regardless of thread interleaving.
    Without one, jitter is entropy-seeded as before (decorrelating
    concurrent clients is the whole point of the jitter).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 300.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        deadline: Optional[float] = None,
        seed: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.deadline = deadline
        self.seed = seed
        #: Attempts beyond the first, across the client's lifetime.
        self.retried = 0
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    def _connect(self, timeout: Optional[float]) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port),
                                        timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._file = sock.makefile("rb")

    def close(self) -> None:
        with self._lock:
            self.close_nolock()

    def close_nolock(self) -> None:
        """Drop the socket (lock already held by :meth:`request`)."""
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def jitter_rng(self, payload: str) -> random.Random:
        """The backoff RNG for one logical request.

        With :attr:`seed` set, the RNG is derived from the seed and the
        request payload, so the retry schedule of a given formula is
        identical across runs and independent of how concurrent
        requests interleave.  Without a seed, the shared client RNG is
        used.
        """
        if self.seed is None:
            return self._rng
        fingerprint = zlib.crc32(payload.encode("ascii", "replace"))
        return random.Random((self.seed << 32) ^ fingerprint)

    def request(
        self,
        message: Dict[str, object],
        rng: Optional[random.Random] = None,
    ) -> Dict[str, object]:
        """Send one request message, return the response dict.

        Retries transport failures and BUSY rejections (reconnecting
        with jittered backoff) up to ``self.retries`` extra attempts
        within ``self.deadline`` seconds.  ``rng`` overrides the jitter
        source (see :meth:`jitter_rng`).  Raises :class:`ServiceError`
        (or a subclass) when the budget is exhausted or the server
        answers ``ok: false``.
        """
        rng = rng if rng is not None else self._rng
        deadline_at = (
            time.monotonic() + self.deadline if self.deadline is not None
            else None
        )
        if "id" not in message:
            with self._lock:
                self._next_id += 1
                message = dict(message, id=self._next_id)
        last_error: Optional[ServiceError] = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = self._backoff_delay(attempt, deadline_at, rng)
                if delay is None:
                    break  # deadline spent: surface the last failure
                time.sleep(delay)
                self.retried += 1
            try:
                response = self._request_once(message, deadline_at)
            except (ServiceBusyError, ServiceProtocolError) as exc:
                last_error = exc
                continue
            except ServiceError as exc:
                # Transport-level failure (connect/send/recv).  The
                # protocol is idempotent (solves are fingerprint-keyed
                # server-side), so resubmission is safe.
                last_error = exc
                continue
            if not response.get("ok"):
                if response.get("busy"):
                    last_error = ServiceBusyError(
                        str(response.get("error", "server busy")))
                    continue  # explicitly retriable: never dispatched
                raise ServiceError(
                    str(response.get("error", "request failed")))
            return response
        raise last_error if last_error is not None else ServiceError(
            "request failed before any attempt")

    def _backoff_delay(
        self,
        attempt: int,
        deadline_at: Optional[float],
        rng: Optional[random.Random] = None,
    ) -> Optional[float]:
        """Jittered exponential backoff; ``None`` when past the deadline."""
        rng = rng if rng is not None else self._rng
        delay = min(self.backoff_cap, self.backoff * (2 ** (attempt - 1)))
        delay *= 0.5 + rng.random()  # +-50% jitter: decorrelate clients
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                return None
            delay = min(delay, remaining)
        return delay

    def _request_once(
        self, message: Dict[str, object], deadline_at: Optional[float]
    ) -> Dict[str, object]:
        """One attempt: connect if needed, send, read one reply line."""
        io_timeout = self.timeout
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"deadline of {self.deadline}s exhausted before the "
                    f"request could be (re)sent")
            io_timeout = min(io_timeout, remaining) if io_timeout else remaining
        with self._lock:
            try:
                self._connect(io_timeout)
                self._sock.settimeout(io_timeout)
                self._sock.sendall(encode_message(message))
                line = self._file.readline(MAX_LINE_BYTES + 1)
            except OSError as exc:
                self.close_nolock()
                raise ServiceError(f"connection to {self.host}:{self.port} "
                                   f"failed: {exc}") from exc
            if not line:
                self.close_nolock()
                raise ServiceError("server closed the connection")
            if not line.endswith(b"\n"):
                # Mid-frame EOF: the server (or the network) died while
                # the reply was in flight.  Never leaks as a raw
                # JSONDecodeError — the partial frame is preserved.
                self.close_nolock()
                if len(line) > MAX_LINE_BYTES:
                    raise ServiceError("oversized response")
                raise ServiceProtocolError(
                    "connection closed mid-frame", partial=line)
        try:
            response = decode_message(line)
        except ProtocolError as exc:
            with self._lock:
                self.close_nolock()  # resync: the stream can't be trusted
            raise ServiceProtocolError(f"bad response: {exc}",
                                       partial=line) from exc
        return response

    # ------------------------------------------------------------------
    def solve(
        self,
        formula: Union[str, Dqbf],
        family: Optional[str] = None,
        timeout: Optional[float] = None,
        node_limit: Optional[int] = None,
        no_cache: bool = False,
        resubmit: int = 0,
        resubmit_statuses: Tuple[str, ...] = ("ERROR",),
    ) -> Dict[str, object]:
        """Solve a formula (a :class:`~repro.formula.dqbf.Dqbf` or
        DQDIMACS text); returns the response dict (``status``,
        ``runtime``, ``stats``, ``fingerprint``, ``cache``).

        ``resubmit`` re-sends the request up to N more times while the
        answer's ``status`` is in ``resubmit_statuses`` — for statuses
        that are *transient* rather than properties of the formula
        (a crashed worker's ``ERROR``, a budget-starved ``UNKNOWN``
        that resumes from its checkpoint).  Resubmission is idempotent:
        the solve is keyed by the formula fingerprint server-side.
        """
        if isinstance(formula, Dqbf):
            formula = write_dqdimacs(formula)
        message = solve_request(
            formula, family=family, timeout=timeout,
            node_limit=node_limit, no_cache=no_cache,
        )
        rng = self.jitter_rng(formula)
        reply = self.request(message, rng=rng)
        for _ in range(max(0, resubmit)):
            if str(reply.get("status")) not in resubmit_statuses:
                break
            reply = self.request(dict(message), rng=rng)  # fresh id per attempt
        return reply

    def ping(self) -> Dict[str, object]:
        return self.request({"op": "ping"})

    def stats(self) -> Dict[str, object]:
        return self.request({"op": "stats"})

    def health(self) -> Dict[str, object]:
        """Liveness/readiness detail (the TCP twin of ``/healthz``)."""
        return self.request({"op": "health"})

    def shutdown(self) -> Dict[str, object]:
        """Ask the server to drain and exit (acknowledged before it does)."""
        return self.request({"op": "shutdown"})


def wait_for_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    timeout: float = 10.0,
    interval: float = 0.05,
) -> bool:
    """Poll until a server accepts connections (startup synchronization)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=interval):
                return True
        except OSError:
            time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# console entry
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqs-client",
        description="Talk to a running hqs-serve instance",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--retries", type=int, default=3,
                        help="extra attempts on transport failure or BUSY "
                             "(default 3)")
    parser.add_argument("--backoff", type=float, default=0.05,
                        help="initial retry backoff in seconds, doubled per "
                             "attempt with jitter (default 0.05)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="overall wall-clock budget per request across "
                             "all retries")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed the retry jitter (reproducible backoff "
                             "schedules for fault-injection soaks)")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a DQDIMACS file")
    solve.add_argument("file")
    solve.add_argument("--family", default=None,
                       help="routing hint: same family -> same worker "
                            "process (affinity only)")
    solve.add_argument("--timeout", type=float, default=None,
                       help="per-request time budget (capped by the server)")
    solve.add_argument("--node-limit", type=int, default=None)
    solve.add_argument("--no-cache", action="store_true",
                       help="bypass the result cache (cold measurement)")
    solve.add_argument("--repeat", type=int, default=1,
                       help="send the request N times (cache demonstration)")
    solve.add_argument("--resubmit", type=int, default=0,
                       help="resubmit up to N times while the status is "
                            "transient (ERROR)")
    solve.add_argument("--stats", action="store_true",
                       help="print solver statistics of the final reply")

    sub.add_parser("ping", help="liveness probe")
    sub.add_parser("stats", help="print server/cache/pool counters as JSON")
    sub.add_parser("health", help="print liveness/readiness detail as JSON")
    sub.add_parser("shutdown", help="ask the server to drain and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    client = ServiceClient(host=args.host, port=args.port,
                           retries=args.retries, backoff=args.backoff,
                           deadline=args.deadline, seed=args.seed)
    try:
        if args.command == "ping":
            reply = client.ping()
            print(f"c pong uptime={reply.get('uptime', 0.0):.3f}s")
            return 0
        if args.command == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.command == "health":
            reply = client.health()
            print(json.dumps(reply, indent=2, sort_keys=True))
            return 0 if reply.get("ready") else 1
        if args.command == "shutdown":
            client.shutdown()
            print("c server draining")
            return 0
        # solve
        with open(args.file, "r", encoding="ascii") as handle:
            text = handle.read()
        reply = None
        for _attempt in range(max(1, args.repeat)):
            reply = client.solve(
                text,
                family=args.family,
                timeout=args.timeout,
                node_limit=args.node_limit,
                no_cache=args.no_cache,
                resubmit=args.resubmit,
            )
            print(
                f"s cnf {reply['status']} ({reply.get('runtime', 0.0):.3f}s) "
                f"cache={reply.get('cache')} fingerprint={reply.get('fingerprint', '')[:12]}"
            )
        if args.stats and reply is not None and reply.get("stats"):
            for key in sorted(reply["stats"]):
                print(f"c {key} = {reply['stats'][key]}")
        if reply["status"] == "SAT":
            return 10
        if reply["status"] == "UNSAT":
            return 20
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
