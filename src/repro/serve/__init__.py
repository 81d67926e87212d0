"""Long-running decision serving for registry-constructed controllers.

Where :func:`repro.sim.run_simulation` drives a controller against a
*simulated* demand model for a fixed horizon, :mod:`repro.serve` drives
the same controller against demand arriving *over the wire*, open-ended:

* :class:`ServeConfig` — world identity (registry names + seed, exactly
  a campaign scenario) plus the serving knobs (buffer bound, checkpoint
  cadence, shutdown budget);
* :class:`DecisionServer` — the slot-clocked engine: buffered async
  ingest, a ``decide(slot) -> Placement`` API, periodic checkpoints
  through :mod:`repro.state` with **bit-identical warm restart**, and a
  drain-then-checkpoint shutdown path;
* :mod:`repro.serve.protocol` — a line-delimited JSON front-end over
  TCP or stdio (stdlib only);
* :class:`MetricsExporter` — ``GET /metrics`` in Prometheus text
  format, names validated against the :mod:`repro.obs.names` catalogue;
* :func:`serve` — the blocking entry point the ``repro serve`` CLI
  subcommand uses (signals, banners, transports).

Quick in-process use::

    from repro.serve import DecisionServer, ServeConfig

    server = DecisionServer(ServeConfig(controller="OL_GD", seed=7))
    server.start()
    server.offer(request=3, volume_mb=1.5)
    placement = server.decide()          # closes slot 0
    server.stop()                        # drain + checkpoint (if configured)
"""

from repro.serve.config import (
    DEFAULT_BUFFER_LIMIT,
    DEFAULT_SHUTDOWN_TIMEOUT,
    ServeConfig,
)
from repro.serve.ingest import Offer, SlotBuffer
from repro.serve.lifecycle import (
    DRAINING,
    NEW,
    RUNNING,
    STATES,
    STOPPED,
    Lifecycle,
    LifecycleError,
)
from repro.serve.protocol import (
    ERROR_CODES,
    ProtocolServer,
    handle_line,
    handle_request,
    request_over_socket,
    serve_stdio,
)
from repro.serve.runner import serve
from repro.serve.server import DecisionServer, Placement, ServeError


def __getattr__(name: str) -> object:
    # The exporter loads http.server, which only --metrics-port needs.
    if name in ("MetricsExporter", "PROMETHEUS_CONTENT_TYPE"):
        from repro.serve import exporter

        return getattr(exporter, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_BUFFER_LIMIT",
    "DEFAULT_SHUTDOWN_TIMEOUT",
    "DRAINING",
    "ERROR_CODES",
    "NEW",
    "PROMETHEUS_CONTENT_TYPE",
    "RUNNING",
    "STATES",
    "STOPPED",
    "DecisionServer",
    "Lifecycle",
    "LifecycleError",
    "MetricsExporter",
    "Offer",
    "Placement",
    "ProtocolServer",
    "ServeConfig",
    "ServeError",
    "SlotBuffer",
    "handle_line",
    "handle_request",
    "request_over_socket",
    "serve",
    "serve_stdio",
]
