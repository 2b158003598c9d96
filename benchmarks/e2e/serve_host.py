"""Run ``hqs-serve`` in this process, optionally recording layer spans.

Usage::

    PYTHONPATH=src python3 benchmarks/e2e/serve_host.py [--spans FILE] -- <hqs-serve args>

Traced and untraced benchmark runs both start the server through this
script, so they have the same process layout.  With ``--spans`` the
service-layer wrappers (:data:`tracing.SERVICE_LAYERS`) are installed
before ``repro.service.server.main`` forks the worker pool, forked
workers drop them again, and the spans are written to FILE when the
server has drained.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import tracing


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="serve_host.py")
    parser.add_argument("--spans", metavar="FILE",
                        help="record service-layer spans and write them here on exit")
    args = parser.parse_args(argv[:split])
    server_argv = argv[split + 1:]

    from repro.service import server

    if args.spans is None:
        return server.main(server_argv)
    tracer = tracing.Tracer()
    tracer.install(tracing.SERVICE_LAYERS)
    # Workers cannot report spans; keep them identical to untraced ones.
    os.register_at_fork(after_in_child=tracer.uninstall)
    try:
        return server.main(server_argv)
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
