"""The capacity ladder against a stub server of known service time."""

from __future__ import annotations

import json
import queue
import socket
import threading
import time

import numpy as np

from servebench import LATENCY_LIMIT_MS, LadderStep, ladder_capacity, ladder_step

#: The stub serves one request at a time, each taking this long, so its
#: capacity is 1 / SERVICE_S requests per second.
SERVICE_S = 0.002


class StubServer:
    """Answers every submit ``rejected`` after :data:`SERVICE_S`, in order.

    Implements the part of ``loadgen.ServerProcess`` a phase uses.
    """

    setup_s = 0.0
    spans: dict = {}

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._work: queue.Queue = queue.Queue()
        self._threads = [
            threading.Thread(target=self._accept, daemon=True),
            threading.Thread(target=self._serve, daemon=True),
        ]
        for thread in self._threads:
            thread.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._read, args=(conn,), daemon=True).start()

    def _read(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                request = json.loads(line)
                if request["op"] == "submit":
                    self._work.put((conn, request["id"]))
                else:
                    conn.sendall(json.dumps(self._status(request["id"])).encode() + b"\n")

    def _serve(self) -> None:
        while True:
            item = self._work.get()
            if item is None:
                return
            conn, request_id = item
            time.sleep(SERVICE_S)
            reply = {"id": request_id, "ok": True, "result": "rejected"}
            try:
                conn.sendall(json.dumps(reply).encode() + b"\n")
            except OSError:
                pass

    @staticmethod
    def _status(request_id) -> dict:
        return {"id": request_id, "ok": True}

    def request(self, op: str) -> dict:
        return {}

    def cpu_s(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return 0.0

    def __enter__(self) -> "StubServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._work.put(None)
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=5)


def _lines(count: int) -> list[bytes]:
    return [
        json.dumps({"op": "submit", "id": i, "query": {}}).encode() + b"\n"
        for i in range(count)
    ]


def test_ladder_finds_the_highest_rate_within_the_limit():
    count = 150
    lines = _lines(count)
    rng = np.random.default_rng(0)
    rows = []
    for rate in (100.0, 200.0, 3000.0):
        due = np.cumsum(rng.exponential(1.0 / rate, size=count))
        rows.append(ladder_step(StubServer, lines, 0, 16, rate, due))
    assert [r.failures for r in rows] == [0, 0, 0]
    assert all(r.lateness_ok for r in rows)
    # Light load: latency is about one service time.
    assert rows[0].p99_ms < LATENCY_LIMIT_MS
    # 3000/s offered to a 500/s server: the queue, and the tail, grow.
    assert rows[2].p99_ms > LATENCY_LIMIT_MS
    assert ladder_capacity(rows) == 200.0


def test_capacity_excludes_rungs_with_failures():
    def step(rate, p99, failures):
        return LadderStep(rate, p99, failures, True, None)

    rows = [step(100.0, 1.0, 0), step(200.0, 2.0, 1), step(300.0, 30.0, 0)]
    assert ladder_capacity(rows) == 100.0
    assert ladder_capacity([step(100.0, 25.0, 0)]) == 0.0
