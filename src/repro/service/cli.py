"""The ``serve`` subcommand of :mod:`repro.experiments.runner`.

::

    python -m repro.experiments.runner serve [--stdin] [--port N]
        [--host H] [--jobs N] [--queue-limit N] [--deadline-s S]
        [--resolution-ps PS] [--speculate K] [--max-probes N]
        [--store STORE.jsonl]

Without ``--port`` the daemon serves JSON-lines requests on stdin;
``--port`` starts the TCP/HTTP front end (``--port 0`` binds an
ephemeral port, announced as a ``listening`` event line), and adding
``--stdin`` serves both at once.  ``--store`` persists every served
result as a ``service-result`` record so a restarted daemon answers the
same questions warm.  Out-of-range numeric flags (``--jobs 0``,
``--resolution-ps nan``, ...) fail at startup with exit code 2.  See
``docs/service.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.parallel import close_shared_pool
from repro.service.daemon import SchedulingService, ServiceConfig
from repro.service.frontends import serve_stdin, serve_tcp


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner serve",
        description="Run the scheduling service daemon: warm-cache "
                    "serving, request coalescing and cold-miss "
                    "execution over a persistent worker pool.")
    parser.add_argument("--stdin", action="store_true",
                        help="serve JSON-lines requests on stdin (the "
                             "default front end when --port is omitted)")
    parser.add_argument("--port", type=int, metavar="N",
                        help="serve the line protocol (plus a minimal HTTP "
                             "view) on this TCP port; 0 binds an ephemeral "
                             "port, announced on stdout")
    parser.add_argument("--host", default="127.0.0.1", metavar="H",
                        help="TCP bind address (default: 127.0.0.1)")
    parser.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="worker processes of the cold-miss pool "
                             "(default: 2; results are identical for any "
                             "value)")
    parser.add_argument("--queue-limit", type=int, default=128, metavar="N",
                        help="cold misses pending or running at once, at "
                             "most; beyond it new cold misses get a typed "
                             "'overloaded' rejection (default: 128)")
    parser.add_argument("--deadline-s", type=float, default=300.0,
                        metavar="S",
                        help="default per-request deadline; 0 disables "
                             "(default: 300)")
    parser.add_argument("--resolution-ps", type=float, default=25.0,
                        metavar="PS",
                        help="default min-clock convergence threshold "
                             "(default: 25)")
    parser.add_argument("--speculate", type=int, default=4, metavar="K",
                        help="default min-clock batch width; fixed width "
                             "keeps results independent of --jobs "
                             "(default: 4)")
    parser.add_argument("--max-probes", type=int, default=96, metavar="N",
                        help="default min-clock probe budget (default: 96)")
    parser.add_argument("--store", dest="store_path", metavar="STORE.jsonl",
                        help="persist served results as service-result "
                             "records in this artifact store (warm "
                             "restarts)")
    return parser


def config_from_args(arguments: argparse.Namespace) -> ServiceConfig:
    """Build the daemon config from parsed ``serve`` arguments."""
    return ServiceConfig(
        jobs=arguments.jobs,
        queue_limit=arguments.queue_limit,
        deadline_s=arguments.deadline_s,
        resolution_ps=arguments.resolution_ps,
        speculate=arguments.speculate,
        max_probes=arguments.max_probes,
        store_path=arguments.store_path)


async def _serve(config: ServiceConfig, use_stdin: bool,
                 port: int | None, host: str) -> None:
    service = SchedulingService(config)
    await service.start()
    try:
        frontends = []
        if port is not None:
            frontends.append(serve_tcp(service, host=host, port=port))
        if use_stdin or port is None:
            frontends.append(serve_stdin(service))
        await asyncio.gather(*frontends)
    finally:
        await service.stop()
        snapshot = service.stats.snapshot()
        print(json.dumps({"event": "stopped", "stats": snapshot}),
              file=sys.stderr, flush=True)


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``runner serve``; returns the process exit code."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    if arguments.port is not None and not 0 <= arguments.port <= 65535:
        parser.error("--port must be in [0, 65535]")
    try:
        config = config_from_args(arguments)
    except ValueError as error:
        parser.error(str(error))
    try:
        asyncio.run(_serve(config, use_stdin=arguments.stdin,
                           port=arguments.port, host=arguments.host))
    except KeyboardInterrupt:
        pass  # SIGINT is the expected way to stop a foreground daemon
    finally:
        close_shared_pool()
    return 0


__all__ = ["config_from_args", "serve_main"]


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(serve_main())
