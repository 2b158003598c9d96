"""Wire format of the solver service: newline-delimited JSON messages.

One request per line, one response line per request, in order.  The
same encoding is used over raw TCP (the primary transport) and as the
body format of the optional HTTP front end, and the client library
builds its requests through the helpers here, so there is exactly one
place that knows the field names.

Requests
--------

Every request is a JSON object with an ``op`` field and an optional
``id`` (any JSON value; echoed verbatim in the response so clients can
pipeline).  Operations:

``solve``
    ``formula`` (DQDIMACS text, required), ``family`` (optional routing
    hint — requests with the same family reach the same worker process;
    it is an affinity key only, no solver state crosses requests),
    ``timeout`` / ``node_limit`` (optional per-request budgets, capped
    by the server's own limits), ``no_cache`` (optional bool: bypass
    the result cache, used by benchmarks to measure the cold path).
``stats``
    server, cache and pool counters.
``ping``
    liveness probe.
``health``
    liveness + readiness detail: worker aliveness, queue headroom,
    circuit-breaker state (the TCP twin of HTTP ``/healthz`` and
    ``/readyz``).
``shutdown``
    ask the server to drain and exit (same path as SIGTERM).

Responses
---------

``{"id": ..., "ok": true, ...}`` on success.  A ``solve`` response
carries ``status``/``runtime``/``stats`` (the
:class:`~repro.core.SolveResult` fields), the formula ``fingerprint``
and ``cache`` — one of ``"miss"``, ``"hit"``, ``"disk"`` (served from
the on-disk tier), ``"coalesced"`` (attached to an identical in-flight
solve).  Failures are ``{"id": ..., "ok": false, "error": "..."}``;
the connection stays usable.

Backpressure: when the server's solve queue is full it answers
``{"ok": false, "busy": true, "error": ...}`` *immediately* instead of
queueing without bound.  ``busy`` responses are explicitly safe to
retry after a backoff (the request was never dispatched); the client
library does so automatically.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Union

#: Default TCP port of ``hqs-serve`` (HQS was published at DATE 2015).
DEFAULT_PORT = 20150

#: Hard bound on one message line (requests carry whole DQDIMACS files).
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Bumped on incompatible changes; the server reports it in ``stats``.
PROTOCOL_VERSION = 1

OPS = ("solve", "stats", "ping", "health", "shutdown")


class ProtocolError(ValueError):
    """Raised on malformed frames or requests (the connection survives)."""


def encode_message(message: Dict[str, object]) -> bytes:
    """Serialize one message to its wire form (compact JSON + newline)."""
    return (
        json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode("utf-8")


def decode_message(line: Union[bytes, str]) -> Dict[str, object]:
    """Parse one wire line into a message dict."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}") from exc
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"message is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def validate_request(message: Dict[str, object]) -> str:
    """Check a request's shape; returns the operation name."""
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
    if op == "solve":
        formula = message.get("formula")
        if not isinstance(formula, str) or not formula.strip():
            raise ProtocolError("solve request needs a non-empty 'formula' string")
        for field, kind in (("timeout", (int, float)), ("node_limit", int)):
            value = message.get(field)
            if value is not None and (
                not isinstance(value, kind) or isinstance(value, bool) or value <= 0
            ):
                raise ProtocolError(f"{field!r} must be a positive number")
    return str(op)


def solve_request(
    formula: str,
    family: Optional[str] = None,
    timeout: Optional[float] = None,
    node_limit: Optional[int] = None,
    no_cache: bool = False,
    request_id: Optional[object] = None,
) -> Dict[str, object]:
    """Build a ``solve`` request (``formula`` is DQDIMACS text)."""
    message: Dict[str, object] = {"op": "solve", "formula": formula}
    if family is not None:
        message["family"] = family
    if timeout is not None:
        message["timeout"] = timeout
    if node_limit is not None:
        message["node_limit"] = node_limit
    if no_cache:
        message["no_cache"] = True
    if request_id is not None:
        message["id"] = request_id
    return message


def ok_response(message: Dict[str, object], **fields: object) -> Dict[str, object]:
    """A success response echoing the request's ``id``."""
    response: Dict[str, object] = {"ok": True}
    if "id" in message:
        response["id"] = message["id"]
    response.update(fields)
    return response


def error_response(message: Dict[str, object], error: str) -> Dict[str, object]:
    """A failure response echoing the request's ``id``."""
    response: Dict[str, object] = {"ok": False, "error": error}
    if isinstance(message, dict) and "id" in message:
        response["id"] = message["id"]
    return response


def busy_response(message: Dict[str, object], error: str) -> Dict[str, object]:
    """An explicit backpressure rejection: retriable by contract.

    ``busy: true`` tells the client the request was *not* dispatched
    (no solve started, nothing to deduplicate against), so resubmitting
    after a backoff is always safe.
    """
    response = error_response(message, error)
    response["busy"] = True
    return response
