"""Line-delimited JSON protocol over TCP or stdio (stdlib only).

One request per line, one response per line.  Every request is a JSON
object with an ``"op"`` field; every response carries ``"ok"``::

    -> {"op": "offer", "request": 3, "volume_mb": 1.5}
    <- {"ok": true, "accepted": true, "slot": 0, "buffer_fill": 1}
    -> {"op": "decide"}
    <- {"ok": true, "placement": {"slot": 0, "station_of": [...], ...}}
    -> {"op": "shutdown"}
    <- {"ok": true, "state": "draining"}

Failures answer ``{"ok": false, "error": <code>, "detail": <text>}``
with machine-stable error codes (``bad_request``, ``unknown_op``,
``buffer_full``, ``bad_slot``, ``not_running``, ``internal``) — the
detail text is for humans and may change.

Operations
----------

``offer``     buffer demand for the open slot (``request``, ``volume_mb``)
``decide``    close the open slot, return its placement (optional
              ``slot`` asserts the caller's clock)
``status``    operational summary (state, slot, buffer, totals)
``metrics``   the telemetry registry in Prometheus text format
``checkpoint``  force a snapshot now (needs a configured checkpoint dir)
``shutdown``  request a drain-then-checkpoint stop
``ping``      liveness probe

The same :func:`handle_request` dispatcher backs both front-ends:
:class:`ProtocolServer` (a threading TCP server whose concurrent
connection count is bounded by ``max_connections``) and
:func:`serve_stdio` (a poll loop over stdin/stdout for pipe-driven
clients and the subprocess lifecycle tests).

TCP write path
--------------

Each connection runs one loop on its handler thread: ``recv`` a chunk,
answer every complete line in it through :func:`handle_line`, and send
that chunk's responses with one ``sendall``; a partial line waits for
the next chunk.  The accepted socket has ``TCP_NODELAY`` set, so a
reply leaves as soon as it is sent instead of waiting on the client's
delayed ACK.  The two go together: without coalescing, no-delay would
put one small segment on the wire per response.

Hostile input is bounded per connection.  A line longer than
:data:`MAX_LINE_BYTES` (offers are ~60 B) is answered ``bad_request``
and the connection closed, so a client cannot grow the pending buffer
without limit.  A connection that sends nothing, or reads none of its
answers, for :data:`IDLE_TIMEOUT_S` seconds is closed, which frees its
``max_connections`` slot for the next client.
"""

from __future__ import annotations

import json
import selectors
import socket
import socketserver
import struct
import threading
from typing import IO, TYPE_CHECKING, Any, Callable, Dict, Optional

from repro import obs
from repro.serve.lifecycle import DRAINING, STOPPED
from repro.serve.server import ServeError

if TYPE_CHECKING:
    from repro.serve.server import DecisionServer

__all__ = [
    "ERROR_CODES",
    "ProtocolServer",
    "handle_line",
    "handle_request",
    "request_over_socket",
    "serve_stdio",
]

#: Longest request line a TCP connection may send, in bytes; a longer
#: one is answered ``bad_request`` and the connection closed.
MAX_LINE_BYTES = 64 * 1024
#: Seconds a TCP connection may send nothing, or leave its answers
#: unread, before the server closes it.
IDLE_TIMEOUT_S = 300.0

#: Machine-stable error codes a response's ``"error"`` field may carry.
ERROR_CODES = (
    "bad_request",
    "unknown_op",
    "buffer_full",
    "bad_slot",
    "not_running",
    "internal",
)


def _error(code: str, detail: str) -> Dict[str, Any]:
    assert code in ERROR_CODES
    return {"ok": False, "error": code, "detail": detail}


def _op_offer(server: "DecisionServer", payload: Dict[str, Any]) -> Dict[str, Any]:
    try:
        request = int(payload["request"])
        volume = float(payload["volume_mb"])
    except (KeyError, TypeError, ValueError, OverflowError):
        return _error(
            "bad_request", "offer needs integer 'request' and float 'volume_mb'"
        )
    try:
        accepted, fill = server.admit(request, volume)
    except ValueError as exc:
        return _error("bad_request", str(exc))
    except ServeError as exc:
        return _error("not_running", str(exc))
    response: Dict[str, Any] = {
        "ok": True,
        "accepted": accepted,
        "slot": server.slot,
        "buffer_fill": fill,
    }
    if not accepted:
        response["ok"] = False
        response["error"] = "buffer_full"
        response["detail"] = (
            f"slot {server.slot} buffer is full "
            f"({server.config.buffer_limit} offers); offer rejected"
        )
    return response


def _op_decide(server: "DecisionServer", payload: Dict[str, Any]) -> Dict[str, Any]:
    slot: Optional[int] = None
    if payload.get("slot") is not None:
        try:
            slot = int(payload["slot"])
        except (TypeError, ValueError, OverflowError):
            return _error("bad_request", "'slot' must be an integer")
    try:
        placement = server.decide(slot)
    except ServeError as exc:
        code = "bad_slot" if "slot mismatch" in str(exc) else "not_running"
        return _error(code, str(exc))
    return {"ok": True, "placement": placement.to_json()}


def _op_status(server: "DecisionServer", payload: Dict[str, Any]) -> Dict[str, Any]:
    return {"ok": True, "status": server.status()}


def _op_metrics(server: "DecisionServer", payload: Dict[str, Any]) -> Dict[str, Any]:
    try:
        text = obs.render_prometheus(server.metrics)
    except ServeError as exc:
        return _error("not_running", str(exc))
    return {"ok": True, "metrics": text}


def _op_checkpoint(server: "DecisionServer", payload: Dict[str, Any]) -> Dict[str, Any]:
    try:
        path = server.write_checkpoint()
    except ServeError as exc:
        return _error("not_running", str(exc))
    if path is None:
        return _error(
            "bad_request", "server has no checkpoint_dir configured"
        )
    return {"ok": True, "checkpoint": str(path), "slot": server.slot}


def _op_shutdown(server: "DecisionServer", payload: Dict[str, Any]) -> Dict[str, Any]:
    server.request_shutdown()
    return {"ok": True, "state": DRAINING}


def _op_ping(server: "DecisionServer", payload: Dict[str, Any]) -> Dict[str, Any]:
    return {"ok": True, "state": server.state, "slot": server.slot}


_OPS: Dict[str, Callable[["DecisionServer", Dict[str, Any]], Dict[str, Any]]] = {
    "offer": _op_offer,
    "decide": _op_decide,
    "status": _op_status,
    "metrics": _op_metrics,
    "checkpoint": _op_checkpoint,
    "shutdown": _op_shutdown,
    "ping": _op_ping,
}


def handle_request(
    server: "DecisionServer", payload: Dict[str, Any]
) -> Dict[str, Any]:
    """Dispatch one decoded request object to the server; never raises."""
    if not isinstance(payload, dict):
        return _error("bad_request", "request must be a JSON object")
    op = payload.get("op")
    handler = _OPS.get(op) if isinstance(op, str) else None
    if handler is None:
        return _error(
            "unknown_op",
            f"unknown op {op!r}; known: {sorted(_OPS)}",
        )
    try:
        return handler(server, payload)
    except Exception as exc:  # pragma: no cover - defensive belt
        return _error("internal", f"{type(exc).__name__}: {exc}")


def handle_line(server: "DecisionServer", line: str) -> str:
    """Decode one protocol line, dispatch it, encode the response."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        return json.dumps(_error("bad_request", f"invalid JSON: {exc}"))
    return json.dumps(handle_request(server, payload))


_LINE_TOO_LONG = json.dumps(
    _error("bad_request", f"line longer than {MAX_LINE_BYTES} bytes; closing")
)


def _answer_connection(server: "DecisionServer", conn: socket.socket) -> None:
    """Answer each received chunk's complete lines with one ``sendall``.

    Returns at EOF (after answering a last line that has no newline) or
    after refusing an over-long line; socket errors, the idle timeout
    included, propagate to the caller.
    """
    pending = b""
    while True:
        chunk = conn.recv(MAX_LINE_BYTES)
        if chunk:
            *lines, pending = (pending + chunk).split(b"\n")
        else:
            lines, pending = [pending], b""
        refused = len(pending) > MAX_LINE_BYTES
        replies = []
        for raw in lines:
            if len(raw) > MAX_LINE_BYTES:
                refused = True
                break
            line = raw.decode("utf-8", errors="replace").strip()
            if line:
                replies.append(handle_line(server, line))
        if refused:
            replies.append(_LINE_TOO_LONG)
        if replies:
            replies.append("")
            conn.sendall("\n".join(replies).encode("utf-8"))
        if refused or not chunk:
            return


class _Handler(socketserver.BaseRequestHandler):
    """One TCP connection: answer lines until EOF, refusal or idle timeout."""

    def handle(self) -> None:
        tcp: "ProtocolServer" = self.server  # type: ignore[assignment]
        conn: socket.socket = self.request
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Kernel timeouts rather than settimeout(): a socket in timeout
        # mode polls before every recv and send, doubling the system calls
        # per chunk.  A timed-out recv or send raises BlockingIOError, so a
        # client that stops sending, or stops reading, is dropped.
        seconds, fraction = divmod(IDLE_TIMEOUT_S, 1.0)
        timeval = struct.pack("ll", int(seconds), int(fraction * 1e6))
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
        with tcp.connection_slot():
            try:
                _answer_connection(tcp.decision_server, conn)
            except OSError:  # reset, broken pipe, idle timeout
                return


class ProtocolServer(socketserver.ThreadingTCPServer):
    """The TCP front-end: line-JSON protocol over a bounded thread pool.

    ``max_connections`` bounds concurrently-served connections (mapping
    the CLI's ``--jobs`` flag onto the serving layer); excess
    connections block in :meth:`connection_slot` until a slot frees.
    A slot frees when its client disconnects, sends an over-long line,
    or stays silent or stops reading for :data:`IDLE_TIMEOUT_S`.
    Pass ``port=0`` to bind an ephemeral port (tests); the bound port is
    :attr:`port`.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        decision_server: "DecisionServer",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 8,
    ) -> None:
        if max_connections < 1:
            raise ValueError(
                f"max_connections must be positive, got {max_connections}"
            )
        self.decision_server = decision_server
        self._slots = threading.BoundedSemaphore(max_connections)
        super().__init__((host, port), _Handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The actually-bound TCP port (useful with ``port=0``)."""
        return int(self.server_address[1])

    def connection_slot(self) -> "_ConnectionSlot":
        """Context manager holding one of the bounded connection slots."""
        return _ConnectionSlot(self._slots)

    def start_background(self) -> None:
        """Serve forever on a daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self.serve_forever,
            name="serve-protocol",
            daemon=True,
            kwargs={"poll_interval": 0.1},
        )
        self._thread.start()

    def stop_background(self) -> None:
        """Shut the accept loop down and join the serving thread."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()


class _ConnectionSlot:
    def __init__(self, slots: threading.BoundedSemaphore) -> None:
        self._slots = slots

    def __enter__(self) -> None:
        self._slots.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self._slots.release()


def serve_stdio(
    decision_server: "DecisionServer",
    stdin: IO[str],
    stdout: IO[str],
    *,
    poll_interval: float = 0.1,
) -> None:
    """Pump the protocol over text streams until EOF or server shutdown.

    Uses a selector with a bounded poll so a SIGTERM-driven
    ``request_shutdown`` is noticed even while idle (a blocking
    ``readline`` would pin the loop until the next request).  Falls back
    to blocking reads when the stream cannot be selected on (StringIO in
    tests, some pipes on exotic platforms).
    """
    selector: Optional[selectors.BaseSelector]
    try:
        selector = selectors.DefaultSelector()
        selector.register(stdin, selectors.EVENT_READ)
    except (ValueError, OSError, PermissionError):
        selector = None
    try:
        while not decision_server.shutdown_requested:
            if decision_server.lifecycle.is_in(DRAINING, STOPPED):
                return
            if selector is not None and not selector.select(poll_interval):
                continue
            line = stdin.readline()
            if not line:
                return
            line = line.strip()
            if not line:
                continue
            stdout.write(handle_line(decision_server, line) + "\n")
            stdout.flush()
    finally:
        if selector is not None:
            selector.close()


def request_over_socket(
    host: str, port: int, payload: Dict[str, Any], *, timeout: float = 10.0
) -> Dict[str, Any]:
    """One-shot client helper: send one request, return the response.

    Used by the CLI's client-side ops and the protocol tests; opens a
    fresh connection per call (the server multiplexes lines within one
    connection too — this is just the simplest client shape).
    """
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        stream = conn.makefile("r", encoding="utf-8")
        line = stream.readline()
    if not line:
        raise ConnectionError(f"no response from {host}:{port}")
    response = json.loads(line)
    if not isinstance(response, dict):
        raise ConnectionError(f"malformed response from {host}:{port}")
    return response
