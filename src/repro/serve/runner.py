"""The ``serve()`` front-end: wire a decision server to its transports.

:func:`serve` is what ``repro serve`` (the CLI) and the subprocess
lifecycle tests call: it builds a :class:`~repro.serve.server.DecisionServer`
from a :class:`~repro.serve.config.ServeConfig`, starts the requested
front-ends (line-JSON TCP and/or stdio, optional HTTP metrics exporter),
installs SIGTERM/SIGINT handlers that *request* shutdown (the actual
drain-then-checkpoint runs on the main thread — signal handlers only set
an event), and blocks until shutdown completes.

The startup banner lines are machine-readable on purpose::

    serving on 127.0.0.1:40213
    metrics on 127.0.0.1:40214

so a parent process can scrape the ephemeral ports; they are written to
``stdout`` and flushed before the serve loop starts.
"""

from __future__ import annotations

import signal
import sys
import threading
from typing import IO, TYPE_CHECKING, Optional

from repro.serve.config import ServeConfig
from repro.serve.protocol import ProtocolServer, serve_stdio
from repro.serve.server import DecisionServer

if TYPE_CHECKING:
    from repro.serve.exporter import MetricsExporter

__all__ = ["serve"]


def serve(
    config: ServeConfig,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    stdio: bool = False,
    metrics_port: Optional[int] = None,
    max_connections: int = 8,
    install_signal_handlers: bool = True,
    banner: Optional[IO[str]] = None,
) -> int:
    """Run a decision server until shutdown; returns an exit code.

    ``stdio=True`` pumps the protocol over this process's stdin/stdout
    (the banner then goes to ``stderr`` so protocol responses stay
    clean); otherwise a TCP front-end listens on ``host:port`` (``0``
    picks an ephemeral port, announced in the banner).  ``metrics_port``
    (``0`` for ephemeral) additionally starts the Prometheus exporter.
    ``install_signal_handlers=False`` leaves signal wiring to the caller
    (required off the main thread, e.g. in-process tests).
    """
    server = DecisionServer(config)
    server.start()

    if install_signal_handlers:

        def _request(signum: int, frame: object) -> None:
            server.request_shutdown()

        signal.signal(signal.SIGTERM, _request)
        signal.signal(signal.SIGINT, _request)

    out = banner if banner is not None else (
        sys.stderr if stdio else sys.stdout
    )
    exporter: Optional[MetricsExporter] = None
    tcp: Optional[ProtocolServer] = None
    try:
        if metrics_port is not None:
            # http.server is loaded only when the exporter runs.
            from repro.serve.exporter import MetricsExporter

            exporter = MetricsExporter(server, host=host, port=metrics_port)
            exporter.start()
            print(f"metrics on {host}:{exporter.port}", file=out, flush=True)
        if stdio:
            print("serving on stdio", file=out, flush=True)
            serve_stdio(server, sys.stdin, sys.stdout)
        else:
            tcp = ProtocolServer(
                server, host=host, port=port, max_connections=max_connections
            )
            tcp.start_background()
            print(f"serving on {host}:{tcp.port}", file=out, flush=True)
            # The main thread owns shutdown: wait for the signal/protocol
            # event, then drain.  A bounded wait keeps KeyboardInterrupt
            # deliverable on platforms where Event.wait blocks signals.
            while not server.shutdown_requested:
                server.wait_shutdown(0.2)
        server.stop()
        return 0
    except KeyboardInterrupt:
        server.request_shutdown()
        server.stop()
        return 0
    finally:
        if tcp is not None:
            tcp.stop_background()
        if exporter is not None:
            exporter.stop()
