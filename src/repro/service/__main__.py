"""``python -m repro.service`` -- run a Sinew SQL server.

Examples::

    # in-memory instance on an ephemeral port
    python -m repro.service

    # durable instance with a background checkpointer
    python -m repro.service --path ./data/mydb --port 5543 --checkpoint 30
"""

from __future__ import annotations

import argparse
import asyncio
import signal

from ..core.sinew import SinewConfig, SinewDB
from .server import ServiceConfig, SinewService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve one SinewDB instance to many SQL clients over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5543, help="0 = ephemeral")
    parser.add_argument("--name", default="sinew", help="database name")
    parser.add_argument(
        "--path", default=None, help="durable root directory (default: in-memory)"
    )
    parser.add_argument("--max-sessions", type=int, default=64)
    parser.add_argument("--max-inflight", type=int, default=8)
    parser.add_argument(
        "--query-timeout", type=float, default=30.0, help="seconds; 0 = unlimited"
    )
    parser.add_argument("--executor-threads", type=int, default=8)
    parser.add_argument(
        "--checkpoint",
        type=float,
        default=None,
        metavar="SECONDS",
        help="background checkpoint cadence (durable databases only)",
    )
    parser.add_argument(
        "--no-daemon",
        action="store_true",
        help="do not start the background materializer daemon",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="graceful-shutdown grace period for in-flight statements",
    )
    return parser


async def _serve(service: SinewService) -> None:
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, service.stop)
        except (NotImplementedError, RuntimeError):
            pass  # non-unix event loops
    serving = asyncio.ensure_future(service.serve())
    while service.port is None and not serving.done():
        await asyncio.sleep(0.01)
    if service.port is not None:
        print(f"sinew-service listening on {service.config.host}:{service.port}")
    await serving


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.path is not None:
        sdb = SinewDB.open(args.path, args.name, SinewConfig())
    else:
        sdb = SinewDB(args.name)
    if not args.no_daemon:
        sdb.start_daemon()
    service = SinewService(
        sdb,
        ServiceConfig(
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            max_inflight=args.max_inflight,
            query_timeout=args.query_timeout or None,
            executor_threads=args.executor_threads,
            checkpoint_interval=args.checkpoint,
            drain_timeout=args.drain_timeout,
        ),
    )
    try:
        asyncio.run(_serve(service))
    except KeyboardInterrupt:
        pass
    finally:
        sdb.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
