"""The ``serve_tcp`` workload: an open-loop client against ``repro serve``.

The server is the real CLI subprocess with its default world (OL_GD,
30 requests, given demands) and periodic checkpoints.  One client
thread drives it over one non-blocking connection: offers go out at a
fixed rate, and a ``decide`` goes out at every slot boundary, in order
on the same connection, so each offer's slot is fixed by the schedule.
Offer volumes split each request's per-slot demand from the served
world's own bursty trace.  Every message is timed from when it was
*due*, so a stall also counts against the messages queued behind it.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from common import ROOT, SRC, WORK, percentile_ms, require_tail

RATE = 5_000  # offers per second
SLOT_S = 0.1  # slot interval (one decide per slot boundary)
OFFERS_PER_SLOT = int(RATE * SLOT_S)
CHECKPOINT_EVERY = 25  # slots; saves fall on 4% of slots
SETUP_SPAWNS = 4  # timed spawns after one untimed warm-up spawn
#: A run whose generator sent its p99 message later than this is void.
VOID_LATE_MS = 50.0
#: Offer percentiles and server CPU are taken per window of this many
#: slots, decide percentiles per window of ``DECIDE_WINDOW_SLOTS`` (ten
#: samples beyond p90); each metric is the median over windows, so one
#: host stall moves one window, not the run.
WINDOW_SLOTS = 25
DECIDE_WINDOW_SLOTS = 100
#: Seed of the served world (the CLI default).  The run seed draws the
#: order in which the users' offers arrive within each slot and a jitter
#: on each offer's volume; worlds and demand traces drawn from it differ
#: in LP cost more than the bounds allow.
WORLD_SEED = 2020
VOLUME_JITTER = 0.01
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def serve_argv(checkpoint_dir: Path) -> List[str]:
    return [
        "serve",
        "--port", "0",
        "--seed", str(WORLD_SEED),
        "--checkpoint-dir", str(checkpoint_dir),
        "--checkpoint-every", str(CHECKPOINT_EVERY),
    ]


class Server:
    """One spawned server process, from spawn to its banner line."""

    def __init__(self, argv: List[str], log_path: Path) -> None:
        self.log = open(log_path, "wb")
        started = perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        # Blocks on the pipe until the banner arrives; no polling.
        banner = self.proc.stdout.readline().decode()
        self.setup_s = perf_counter() - started
        if not banner.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"unexpected banner {banner!r}; see {log_path}")
        host, port = banner.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (drain, final checkpoint) and wait for the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return code


def spawn(tag: str, launcher: Optional[List[str]] = None) -> Server:
    checkpoint_dir = WORK / f"ckpt-{tag}"
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    prefix = launcher if launcher is not None else ["-m", "repro"]
    argv = [sys.executable, *prefix, *serve_argv(checkpoint_dir)]
    return Server(argv, WORK / f"server-{tag}.log")


# ---- the offered load --------------------------------------------------- #


@dataclass
class Schedule:
    """Every message of the traffic phase, in send order."""

    lines: List[bytes] = field(default_factory=list)
    due: np.ndarray = field(default_factory=lambda: np.zeros(0))
    is_decide: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    offers: List[List[Tuple[int, float]]] = field(default_factory=list)


def make_schedule(seed: int, n_slots: int) -> Tuple[Schedule, Any]:
    """Offers split each request's slot demand from the served world's trace.

    The served world is rebuilt as the server builds it and its own
    demand model read slot by slot; ``seed`` draws the order in which the
    users' offers arrive within each slot and a jitter of up to
    :data:`VOLUME_JITTER` on each offer's volume.
    """
    from repro.api import RngRegistry, ServeConfig
    from repro.campaigns import CampaignScenario

    config = ServeConfig(seed=WORLD_SEED)
    _network, model, controllers = CampaignScenario(config.scenario_spec())(
        RngRegistry(seed=config.seed).child("serve")
    )
    requests = controllers[0].requests
    arrivals = RngRegistry(seed=seed).get("serve_tcp/arrivals")
    n_requests = model.n_requests
    users = np.arange(OFFERS_PER_SLOT) % n_requests
    shares = np.bincount(users, minlength=n_requests)
    schedule = Schedule()
    due: List[float] = []
    for slot in range(n_slots):
        order = arrivals.permutation(users)
        jitter = arrivals.uniform(1 - VOLUME_JITTER, 1 + VOLUME_JITTER, order.size)
        volumes = (model.demand_at(slot) / shares)[order] * jitter
        slot_offers = [(int(r), float(v)) for r, v in zip(order, volumes)]
        schedule.offers.append(slot_offers)
        for i, (request, volume) in enumerate(slot_offers):
            schedule.lines.append(
                b'{"op":"offer","request":%d,"volume_mb":%s}\n'
                % (request, repr(volume).encode())
            )
            due.append(slot * SLOT_S + i * SLOT_S / OFFERS_PER_SLOT)
        schedule.lines.append(b'{"op":"decide","slot":%d}\n' % slot)
        due.append((slot + 1) * SLOT_S)
    schedule.due = np.array(due)
    schedule.is_decide = np.zeros(len(due), dtype=bool)
    schedule.is_decide[OFFERS_PER_SLOT :: OFFERS_PER_SLOT + 1] = True
    service_of = np.array(
        [r.service_index for r in requests], dtype=np.int64
    )
    return schedule, service_of


# ---- the open-loop client ------------------------------------------------ #


#: Per-message outcome codes.
OK, REFUSED, FAILED = 0, 1, 2


def _outcome(line: bytes) -> Tuple[int, Optional[Dict[str, Any]]]:
    """Classify one reply; only a decide's reply (or an error) is decoded."""
    if line.startswith(b'{"ok": true, "accepted"'):
        return OK, None
    response = json.loads(line)
    if response.get("ok"):
        return OK, response
    return (REFUSED if response.get("error") == "buffer_full" else FAILED), response


@dataclass
class Traffic:
    latency_s: np.ndarray
    late_s: np.ndarray
    outcome: np.ndarray
    placements: List[Dict[str, Any]]
    wall_s: float
    cpu_s: float
    #: The server's CPU time at the start, then after each decide reply.
    cpu_marks: List[float]
    peak_rss_mb: float


def drive(server: Server, schedule: Schedule) -> Traffic:
    """Send every message when due; read every reply as it arrives."""
    n = len(schedule.lines)
    latency = np.full(n, np.nan)
    late = np.zeros(n)
    outcome = np.full(n, FAILED, dtype=np.int8)
    placements: List[Dict[str, Any]] = []
    sock = socket.create_connection(server.address)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    selector = selectors.DefaultSelector()
    selector.register(sock, selectors.EVENT_READ)
    lines, due_at = schedule.lines, schedule.due
    out = bytearray()
    inbox = b""
    sent = received = 0
    cpu0 = server.cpu_s()
    cpu_marks = [cpu0]
    t0 = perf_counter() + 0.05
    due_abs = due_at + t0
    try:
        while received < n:
            now = perf_counter()
            while sent < n and due_abs[sent] <= now:
                out += lines[sent]
                late[sent] = now - due_abs[sent]
                sent += 1
            if out:
                try:
                    del out[: sock.send(out)]
                except BlockingIOError:
                    pass
            mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if out else 0)
            selector.modify(sock, mask)
            timeout = max(due_abs[sent] - perf_counter(), 0.0) if sent < n else 5.0
            events = selector.select(timeout)
            if sent >= n and not events:
                raise RuntimeError(f"server stopped answering after {received} of {n}")
            for _key, ready in events:
                if not ready & selectors.EVENT_READ:
                    continue
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise RuntimeError("server closed the connection")
                inbox += chunk
                *complete, inbox = inbox.split(b"\n")
                stamp = perf_counter()
                for line in complete:
                    latency[received] = stamp - due_abs[received]
                    outcome[received], response = _outcome(line)
                    if response is not None and "placement" in response:
                        placements.append(response["placement"])
                        cpu_marks.append(server.cpu_s())
                    received += 1
        wall_s = perf_counter() - t0
        cpu_s = server.cpu_s() - cpu0
        peak = server.peak_rss_mb()
    finally:
        selector.close()
        sock.close()
    return Traffic(latency, late, outcome, placements, wall_s, cpu_s, cpu_marks, peak)


# ---- output checks ------------------------------------------------------- #


def _served_key(placement: Dict[str, Any]) -> Tuple[Any, ...]:
    return (
        placement["slot"],
        tuple(placement["station_of"]),
        tuple(tuple(pair) for pair in placement["cached"]),
        placement["delay_ms"],
        placement["n_offers"],
        placement["rejected"],
    )


def account(schedule: Schedule, traffic: Traffic) -> Dict[str, Dict[str, int]]:
    """Attempted / ok / refused / failed per operation kind."""
    counts = {}
    for kind, mask in (("offer", ~schedule.is_decide), ("decide", schedule.is_decide)):
        codes = np.bincount(traffic.outcome[mask], minlength=3)
        counts[kind] = {
            "attempted": int(mask.sum()),
            "ok": int(codes[OK]),
            "refused": int(codes[REFUSED]),
            "failed": int(codes[FAILED]),
        }
    return counts


def check(
    schedule: Schedule, traffic: Traffic, service_of: np.ndarray
) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    """Served placements equal an in-process server's; services are cached."""
    from repro.api import DecisionServer, ServeConfig

    errors: List[str] = []
    served = [_served_key(placement) for placement in traffic.placements]
    reference = DecisionServer(ServeConfig(seed=WORLD_SEED))
    reference.start()
    try:
        for slot, slot_offers in enumerate(schedule.offers):
            for request, volume in slot_offers:
                reference.offer(request, volume)
            reference.decide(slot)
        expected = [p.trace_key() for p in reference.placement_history()]
    finally:
        reference.stop()
    if served != expected:
        first = next(
            (i for i, (a, b) in enumerate(zip(served, expected)) if a != b),
            min(len(served), len(expected)),
        )
        errors.append(
            f"served placements differ from the in-process server from slot {first}"
        )
    for key in served:
        stations, cached = key[1], set(key[2])
        if any((int(k), int(i)) not in cached for k, i in zip(service_of, stations)):
            errors.append(f"slot {key[0]}: a request is on a station without its service")
    return errors, served


def placement_digest(served: List[Tuple[Any, ...]]) -> str:
    from common import digest

    return digest(
        [
            np.array([key[1] for key in served], dtype=np.int64),
            np.array([key[3] for key in served]),
            np.array([key[4:] for key in served], dtype=np.int64),
        ]
    )


# ---- the workload -------------------------------------------------------- #


def _traffic_phase(
    seed: int, seconds: float, server: Server, log: Callable[[str], None]
) -> Tuple[Schedule, Traffic, List[str], Dict[str, Dict[str, int]], List[Tuple]]:
    n_slots = max(int(round(seconds / SLOT_S)), 100)
    schedule, service_of = make_schedule(seed, n_slots)
    try:
        traffic = drive(server, schedule)
    finally:
        code = server.stop()
    counts = account(schedule, traffic)
    counts["shutdown"] = {
        "attempted": 1,
        "ok": int(code == 0),
        "refused": 0,
        "failed": int(code != 0),
    }
    errors, served = check(schedule, traffic, service_of)
    late_p99 = percentile_ms(traffic.late_s, 99)
    if late_p99 > VOID_LATE_MS:
        errors.append(
            f"void: the generator ran {late_p99:.1f} ms late at p99 "
            f"(limit {VOID_LATE_MS} ms)"
        )
    log(f"{n_slots} slots, {len(schedule.lines)} messages; accounting {json.dumps(counts)}")
    log(f"digest placements={placement_digest(served)}")
    return schedule, traffic, errors, counts, served


def _totals(counts: Dict[str, Dict[str, int]]) -> Tuple[int, int]:
    attempted = sum(row["attempted"] for row in counts.values())
    failed = sum(row["refused"] + row["failed"] for row in counts.values())
    return attempted, failed


def _setup() -> Tuple[List[float], Dict[str, Dict[str, int]], Server]:
    """One untimed warm-up spawn, then timed spawns; the last one stays up."""
    row = {"attempted": 0, "ok": 0, "refused": 0, "failed": 0}
    setups: List[float] = []
    for index in range(SETUP_SPAWNS + 1):
        row["attempted"] += 1
        server = spawn(f"spawn{index}")
        if index:
            setups.append(server.setup_s)
        if index < SETUP_SPAWNS and server.stop() != 0:
            row["failed"] += 1
        else:
            row["ok"] += 1
    return setups, {"spawn": row}, server


def run(name: str, seed: int, seconds: float, log: Callable[[str], None]):
    setups, spawn_counts, server = _setup()
    schedule, traffic, errors, counts, served = _traffic_phase(seed, seconds, server, log)
    counts.update(spawn_counts)
    n_slots = len(traffic.cpu_marks) - 1
    offers = traffic.latency_s[~schedule.is_decide].reshape(n_slots, OFFERS_PER_SLOT)
    windows = [
        offers[start : start + WINDOW_SLOTS].ravel()
        for start in range(0, n_slots, WINDOW_SLOTS)
    ]
    decides = traffic.latency_s[schedule.is_decide]
    decide_windows = [
        decides[start : start + DECIDE_WINDOW_SLOTS]
        for start in range(0, n_slots, DECIDE_WINDOW_SLOTS)
    ]
    for window in windows:
        require_tail(window.size, 99, "offer latency per window")
    for window in decide_windows:
        require_tail(window.size, 90, "decide latency per window")
    window_cpu = np.diff(np.array(traffic.cpu_marks)[::WINDOW_SLOTS])
    log(f"client late p99 {percentile_ms(traffic.late_s, 99):.3f} ms")
    metrics = {
        "setup_s": median(setups),
        "wall_s": traffic.wall_s,
        "decide_p50_ms": median(percentile_ms(w, 50) for w in decide_windows),
        "decide_p90_ms": median(percentile_ms(w, 90) for w in decide_windows),
        "offer_p50_ms": median(percentile_ms(w, 50) for w in windows),
        "offer_p99_ms": median(percentile_ms(w, 99) for w in windows),
        # The traffic phase's CPU at the median window's rate.
        "server_cpu_s": float(np.median(window_cpu)) * window_cpu.size,
        "peak_rss_mb": traffic.peak_rss_mb,
        "avg_delay_ms": float(np.mean([key[3] for key in served])),
    }
    attempted, failed = _totals(counts)
    return metrics, attempted, failed, errors


def run_traced(name: str, seed: int, seconds: float, log: Callable[[str], None]):
    """Half the time untraced, then the same traffic against a traced server."""
    from spans import load_spans

    half = seconds / 2.0
    spawn("warmup").stop()
    _s, plain, errors, counts, served = _traffic_phase(seed, half, spawn("plain"), log)
    spans_path = WORK / "serve-spans.npz"
    launcher = [str(Path(__file__).resolve().parent / "launch_traced.py"), str(spans_path)]
    schedule, traced, traced_errors, traced_counts, traced_served = _traffic_phase(
        seed, half, spawn("traced", launcher), log
    )
    errors += traced_errors
    if traced_served != served:
        errors.append("traced server's placements differ from the untraced server's")
    spans, extra = load_spans(spans_path)
    attempted, failed = _totals(counts)
    traced_attempted, traced_failed = _totals(traced_counts)
    log(
        f"server cpu over traffic: traced {traced.cpu_s:.3f} s, "
        f"untraced {plain.cpu_s:.3f} s"
    )
    return {
        "spans": spans,
        "base_s": extra["cpu_s"],
        "lp_iterations": extra["lp_iterations"],
        "save_bytes": extra["save_bytes"],
        "rejected_share": traced_counts["offer"]["refused"]
        / traced_counts["offer"]["attempted"],
        "late_p99_ms": percentile_ms(traced.late_s, 99),
        "overhead_s": traced.cpu_s - plain.cpu_s,
        "attempted": attempted + traced_attempted,
        "failed": failed + traced_failed,
        "errors": errors,
    }
