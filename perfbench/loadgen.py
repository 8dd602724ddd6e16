"""Load generator: one process, one connection, pre-encoded requests.

Every request line is encoded before timing starts.  The generator
speaks the gateway's newline-delimited JSON protocol over one blocking
loopback socket and never parses a response inside the timed loop: it
stores each received chunk with its arrival time and decodes them after
the phase ends.

* :func:`closed_loop` keeps a fixed window of requests in flight and
  times each from its send.
* :func:`open_loop` sends on a Poisson schedule fixed in advance and
  times each request from when it was *due*, so a stall in the
  generator or the server is charged to every request it delays; the
  generator's own lateness (send time minus due time) is reported.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: Open-loop runs whose median send lateness exceeds this are invalid:
#: the generator, not the server, would be shaping the offered load.
MAX_LATENESS_P50_MS = 0.5
#: ... and likewise when the 99th percentile of send lateness exceeds
#: the latency limit itself, which it would then corrupt.  Short stalls
#: of the whole host delay generator and server alike and stay below it.
MAX_LATENESS_P99_MS = 20.0

#: Longest a phase waits for outstanding responses once all are sent.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class PhaseResult:
    """Raw outcome of one timed phase."""

    #: Request ids sent in the phase, in send order.
    ids: list[int]
    #: Per-request start time (send for closed loop, due for open loop).
    start_s: dict[int, float]
    #: Per-request response time (absent: no response arrived).
    end_s: dict[int, float] = field(default_factory=dict)
    #: Decoded responses by request id.
    responses: dict[int, dict] = field(default_factory=dict)
    #: Send minus due time per request (open loop only).
    lateness_s: list[float] = field(default_factory=list)
    #: Responses that were not valid protocol lines.
    protocol_errors: int = 0
    #: ``(responses so far, time, probe value)`` samples (closed loop).
    marks: list[tuple[int, float, float]] = field(default_factory=list)

    def window_rates(self) -> list[tuple[float, float]]:
        """Per window between marks: (responses/s, probe delta/response)."""
        rates = []
        for (n0, t0, p0), (n1, t1, p1) in zip(self.marks, self.marks[1:]):
            if n1 > n0 and t1 > t0:
                rates.append(((n1 - n0) / (t1 - t0), (p1 - p0) / (n1 - n0)))
        return rates

    def latencies_ms(self) -> np.ndarray:
        return np.array(
            [(self.end_s[i] - self.start_s[i]) * 1e3 for i in self.ids if i in self.end_s]
        )

    def failures(self) -> int:
        """Shed + protocol error + timeout/missing responses."""
        failed = self.protocol_errors
        for i in self.ids:
            response = self.responses.get(i)
            if response is None or not response.get("ok", False):
                failed += 1
            elif response.get("result") not in ("admitted", "rejected"):
                failed += 1
        return failed


def control(port: int, op: str) -> dict:
    """One control request on its own short connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(json.dumps({"op": op, "id": op}).encode() + b"\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    return json.loads(data)


def pin_plan() -> tuple[int | None, int | None]:
    """(server CPU, generator CPU), or ``(None, None)`` on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


class ServerProcess:
    """A fresh gateway server process for one phase."""

    def __init__(
        self, root: Path, workload: str, cpu: int | None
    ) -> None:
        command = [
            sys.executable,
            str(root / "perfbench" / "server.py"),
            "--workload",
            workload,
        ]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self._read_line(timeout_s=60.0)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - spawned
        tag, port, spans = line.split(" ", 2)
        if tag != "LISTENING":
            self.kill()
            raise RuntimeError(f"unexpected server line: {line!r}")
        self.port = int(port)
        self.spans: dict[str, float] = json.loads(spans)

    def _read_line(self, timeout_s: float) -> str:
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout_s):
                raise RuntimeError("server did not start listening in time")
        line = self.proc.stdout.readline().strip()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return line

    def cpu_s(self) -> float:
        """Server CPU time so far, summed over its threads (ns clock)."""
        total = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            total += int((task / "schedstat").read_text().split()[0])
        return total * 1e-9

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def request(self, op: str) -> dict:
        """One control request (``status``, ``shutdown``)."""
        return control(self.port, op)

    def stop(self) -> int:
        """Shut the gateway down and wait for the process to end."""
        if self.proc.poll() is None:
            try:
                self.request("shutdown")
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.kill()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.wait()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if exc_info[0] is None:
            self.stop()
        else:
            self.kill()


class Connection:
    """The generator's one load connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        # select(2) takes microsecond timeouts; epoll rounds them up to
        # whole milliseconds, which would make every open-loop send late.
        self.sel = selectors.SelectSelector()
        self.sel.register(self.sock, selectors.EVENT_READ)

    def close(self) -> None:
        self.sel.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def send(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            try:
                sent = self.sock.send(view)
            except BlockingIOError:
                self.sel.select(0.001)
                continue
            view = view[sent:]

    def poll(self, timeout_s: float, chunks: list) -> int:
        """Read what has arrived (waiting up to ``timeout_s``); returns
        the number of complete response lines received."""
        if not self.sel.select(max(0.0, timeout_s)):
            return 0
        now = time.perf_counter()
        got = 0
        while True:
            try:
                data = self.sock.recv(1 << 18)
            except BlockingIOError:
                break
            if not data:
                raise ConnectionError("gateway closed the connection")
            chunks.append((now, data))
            got += data.count(b"\n")
            if len(data) < (1 << 18):
                break
        return got


def _decode(result: PhaseResult, chunks: list) -> None:
    partial = b""
    for t, data in chunks:
        data = partial + data
        lines = data.split(b"\n")
        partial = lines.pop()
        for line in lines:
            try:
                payload = json.loads(line)
                request_id = payload["id"]
            except (ValueError, KeyError):
                result.protocol_errors += 1
                continue
            result.end_s[request_id] = t
            result.responses[request_id] = payload


def closed_loop(
    conn: Connection,
    lines: list[bytes],
    ids: range,
    window: int,
    every: int = 0,
    probe: Callable[[], float] | None = None,
) -> PhaseResult:
    """Keep ``window`` requests in flight until every id in ``ids`` is answered.

    With ``every`` set, ``(responses, time, probe())`` is appended to
    :attr:`PhaseResult.marks` each time another ``every`` responses have
    arrived (and once at the start), for per-window rates.
    """
    ids = list(ids)
    result = PhaseResult(ids=ids, start_s={})
    chunks: list = []
    sent = done = 0
    total = len(ids)
    first = time.perf_counter()
    deadline = first + DRAIN_TIMEOUT_S + total * 0.01
    next_mark = 0
    while done < total:
        burst = min(window - (sent - done), total - sent)
        if burst > 0:
            now = time.perf_counter()
            for i in ids[sent:sent + burst]:
                result.start_s[i] = now
            conn.send(b"".join(lines[i] for i in ids[sent:sent + burst]))
            sent += burst
        if every and done >= next_mark:
            result.marks.append((done, time.perf_counter(), probe() if probe else 0.0))
            next_mark = done - done % every + every
        done += conn.poll(1.0, chunks)
        if time.perf_counter() > deadline:
            break
    if every:
        result.marks.append((done, time.perf_counter(), probe() if probe else 0.0))
    _decode(result, chunks)
    return result


def poisson_offsets(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """Due times (s from the phase start) of ``count`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def open_loop(conn: Connection, lines: list[bytes], ids: range, due: np.ndarray) -> PhaseResult:
    """Send request ``ids[k]`` at ``due[k]`` seconds; time from due."""
    ids = list(ids)
    result = PhaseResult(ids=ids, start_s={})
    chunks: list = []
    total = len(ids)
    sent = done = 0
    origin = time.perf_counter() + 0.005
    due_abs = origin + due
    lateness = np.empty(total)
    while sent < total:
        now = time.perf_counter()
        upto = sent
        while upto < total and due_abs[upto] <= now:
            upto += 1
        if upto > sent:
            conn.send(b"".join(lines[i] for i in ids[sent:upto]))
            after = time.perf_counter()
            lateness[sent:upto] = after - due_abs[sent:upto]
            sent = upto
            continue
        done += conn.poll(due_abs[sent] - now, chunks)
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while done < total and time.perf_counter() < deadline:
        done += conn.poll(0.5, chunks)
    for k, i in enumerate(ids):
        result.start_s[i] = float(due_abs[k])
    result.lateness_s = lateness.tolist()
    _decode(result, chunks)
    return result
