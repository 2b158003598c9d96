"""Solver-as-a-service: the persistent, cache-fronted serving layer.

The batch pipeline (``hqs`` CLI, :func:`repro.core.solve_dqbf`) pays the
full quantifier-elimination cost on every invocation.  Real PEC
workloads are dominated by repeated and near-duplicate queries over the
same circuit families, so this package keeps the expensive state alive
between requests: results, checkpoints and warmed-up worker processes.

:mod:`repro.service.protocol`
    the newline-delimited JSON request/response format shared by the
    TCP server, the HTTP front end and the client library;
:mod:`repro.service.cache`
    the fingerprint-keyed result cache (in-memory LRU plus an optional
    on-disk tier that also holds :class:`~repro.core.SolverCheckpoint`
    snapshots, so partially solved formulas resume instead of
    restarting);
:mod:`repro.service.pool`
    the warm worker pool — long-lived solver processes that pay fork,
    imports and interpreter warm-up once; each request is solved with
    the batch solver's configuration and no solver state crosses
    requests;
:mod:`repro.service.server`
    the asyncio front door (``hqs-serve``) with in-flight request
    deduplication and graceful, checkpoint-draining shutdown;
:mod:`repro.service.client`
    the blocking client library (``hqs-client``).

Quickstart::

    pool = WorkerPool(size=2)            # fork workers before threads
    cache = ResultCache(capacity=1024, disk_dir="cache/")
    server = ServiceServer(ServiceConfig(port=0), pool, cache)
    server.run()                         # serves until SIGTERM/SIGINT

    client = ServiceClient(port=server.port)
    client.solve(formula)                # {'status': 'SAT', ...}
"""

from .cache import CacheStats, ResultCache
from .client import (
    ServiceBusyError,
    ServiceClient,
    ServiceError,
    ServiceProtocolError,
    wait_for_server,
)
from .pool import WorkerPool
from .protocol import DEFAULT_PORT, ProtocolError, decode_message, encode_message
from .server import ServiceConfig, ServiceServer, SolverService

__all__ = [
    "CacheStats",
    "ResultCache",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceError",
    "ServiceProtocolError",
    "wait_for_server",
    "WorkerPool",
    "DEFAULT_PORT",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "ServiceConfig",
    "ServiceServer",
    "SolverService",
]
