"""The TCP front-end at the byte level: recorded replies and hostile input.

``serve_wire_reference.txt`` holds the bytes a server answered to
:data:`STREAM` (offers, a ``buffer_full``, status, decides, malformed
and unknown requests, blank and non-UTF-8 lines, a last line without
its newline) sent over one TCP connection, as recorded from the
line-at-a-time handler that wrote one response per line.  The current
front-end must return the same bytes however the stream is cut into
sends.  Only the wall-clock ``decision_seconds`` values are masked.
Running this file as a script re-records the reference from the current
code.

The hardening tests drive a real socket: an over-long line is answered
``bad_request`` and the connection closed, and a connection that stays
silent, or never reads its answers, is closed after the idle timeout,
which frees its ``max_connections`` slot.
"""

import re
import socket
import time
from pathlib import Path

import pytest

from repro.serve import DecisionServer, ProtocolServer, ServeConfig, protocol

REFERENCE = Path(__file__).resolve().parent / "serve_wire_reference.txt"

CONFIG = dict(
    controller="OL_GD",
    seed=11,
    horizon=8,
    n_stations=10,
    n_services=2,
    n_requests=6,
    n_hotspots=3,
    buffer_limit=4,
)

#: One client session; the last line has no newline (answered at EOF).
STREAM = b"".join(
    [
        b'{"op": "ping"}\n',
        b'{"op": "offer", "request": 0, "volume_mb": 1.5}\n',
        b'{"op":"offer","request":3,"volume_mb":0.25}\n',
        b'{"op": "status"}\n',
        b'{"op": "offer", "request": 3}\n',
        b'{"op": "offer", "request": 99, "volume_mb": 1.0}\n',
        b'{"op": "offer", "request": 2, "volume_mb": -1.0}\n',
        b'{"op": "offer", "request": "x", "volume_mb": 1.0}\n',
        b'{"op": "offer", "request": 1, "volume_mb": 2.0}\n',
        b'{"op": "offer", "request": 5, "volume_mb": 0.5}\n',
        b'{"op": "offer", "request": 4, "volume_mb": 0.5}\n',
        b"{not json\n",
        b"[1, 2, 3]\n",
        b'{"op": "frobnicate"}\n',
        b'{"op": 7}\n',
        b"\n",
        b"   \t \n",
        b'\xff\xfe{"op": "ping"}\n',
        b'{"op": "ping"}\r\n',
        b'{"op": "decide", "slot": 5}\n',
        b'{"op": "decide", "slot": "x"}\n',
        b'{"op": "decide", "slot": 0}\n',
        b'{"op": "status"}\n',
        b'{"op": "offer", "request": 2, "volume_mb": 3.0}\n',
        b'{"op": "decide"}\n',
        b'{"op": "checkpoint"}\n',
        b'{"op": "shutdown"}\n',
        b'{"op": "ping"}',
    ]
)

_WALL_CLOCK = re.compile(rb'"decision_seconds": [-+.0-9eE]+')


def _mask(replies):
    return _WALL_CLOCK.sub(b'"decision_seconds": 0.0', replies)


def _started(**overrides):
    server = DecisionServer(ServeConfig(**{**CONFIG, **overrides}))
    server.start()
    return server


def exchange(pieces):
    """Send ``pieces`` in separate sends to a fresh server; read to EOF."""
    decision_server = _started()
    tcp = ProtocolServer(decision_server, port=0)
    tcp.start_background()
    try:
        with socket.create_connection(("127.0.0.1", tcp.port), timeout=30) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for piece in pieces:
                conn.sendall(piece)
            conn.shutdown(socket.SHUT_WR)
            received = bytearray()
            while chunk := conn.recv(1 << 16):
                received += chunk
    finally:
        tcp.stop_background()
        decision_server.stop()
    return _mask(bytes(received))


def _cut(data, size):
    return [data[start : start + size] for start in range(0, len(data), size)]


class TestByteIdentity:
    @pytest.mark.parametrize(
        "pieces",
        [
            pytest.param([STREAM], id="one-send"),
            pytest.param(STREAM.splitlines(keepends=True), id="line-per-send"),
            pytest.param(_cut(STREAM, 7), id="7-byte-sends"),
        ],
    )
    def test_replies_match_the_recorded_bytes(self, pieces):
        assert exchange(pieces) == REFERENCE.read_bytes()

    def test_accepted_offer_prefix(self):
        first_offer = REFERENCE.read_bytes().splitlines()[1]
        assert first_offer.startswith(b'{"ok": true, "accepted"')


def _connect(tcp):
    return socket.create_connection(("127.0.0.1", tcp.port), timeout=10)


def _read_to_eof(conn):
    received = bytearray()
    while chunk := conn.recv(1 << 16):
        received += chunk
    return bytes(received)


@pytest.fixture
def tcp():
    decision_server = _started()
    front = ProtocolServer(decision_server, port=0, max_connections=1)
    front.start_background()
    yield front
    front.stop_background()
    decision_server.stop()


class TestHardening:
    def test_oversized_line_is_refused_and_closed(self, tcp):
        with _connect(tcp) as conn:
            conn.sendall(b'{"op": "ping"}\n' + b"x" * (protocol.MAX_LINE_BYTES + 100))
            replies = _read_to_eof(conn).splitlines()
        assert replies[0].startswith(b'{"ok": true, "state": "running"')
        assert replies[1].startswith(b'{"ok": false, "error": "bad_request"')
        assert len(replies) == 2

    def test_oversized_complete_line_is_refused(self, tcp):
        line = b'{"op": "ping", "pad": "' + b"x" * protocol.MAX_LINE_BYTES + b'"}\n'
        with _connect(tcp) as conn:
            conn.sendall(line)
            replies = _read_to_eof(conn).splitlines()
        assert len(replies) == 1
        assert replies[0].startswith(b'{"ok": false, "error": "bad_request"')

    def test_idle_connection_is_closed(self, tcp, monkeypatch):
        monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.2)
        with _connect(tcp) as conn:
            conn.sendall(b'{"op": "ping"}\n')
            started = time.monotonic()
            replies = _read_to_eof(conn)
        assert replies.count(b"\n") == 1
        assert time.monotonic() - started < 5.0

    def test_idle_close_frees_the_connection_slot(self, tcp, monkeypatch):
        monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.3)
        with _connect(tcp) as idle:
            # Wait until the idle client holds the only slot.
            idle.sendall(b'{"op": "ping"}\n')
            assert idle.recv(1 << 16).endswith(b"\n")
            with _connect(tcp) as waiting:
                waiting.sendall(b'{"op": "ping"}\n')
                reply = waiting.recv(1 << 16)
            assert reply.startswith(b'{"ok": true, "state": "running"')
            assert _read_to_eof(idle) == b""

    def test_client_that_never_reads_is_dropped(self, tcp, monkeypatch):
        monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.3)
        stuck = socket.socket()
        stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stuck.connect(("127.0.0.1", tcp.port))
        stuck.setblocking(False)
        pings = b'{"op": "ping"}\n' * 1000
        deadline = time.monotonic() + 10.0
        with stuck:
            while time.monotonic() < deadline:
                try:
                    stuck.send(pings)
                except BlockingIOError:
                    time.sleep(0.01)
                except OSError:  # the server gave up and reset the connection
                    break
            else:
                pytest.fail("a client that never reads kept its connection")
        with _connect(tcp) as conn:
            conn.sendall(b'{"op": "ping"}\n')
            assert conn.recv(1 << 16).startswith(b'{"ok": true, "state": "running"')


def record():
    REFERENCE.write_bytes(exchange([STREAM]))
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    record()
