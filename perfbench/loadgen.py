"""HTTP load generation: an open loop of web users and a closed loop of
MPRester-style callers, at most two threads and two connections.

Clients ask for HTTP/1.1 keep-alive; each connection counts its TCP
connects, so a server that closes after every response shows as one
connect per request.  Responses are kept and checked after the run, so
checking costs no time inside the measurement.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from typing import Iterator, List, Optional, Tuple

from spans import OP_HEADER
from traffic import Request

#: Per-request socket timeout; a request that times out has failed.
REQUEST_TIMEOUT_S = 30.0


class CountingConnection(http.client.HTTPConnection):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.connects = 0

    def connect(self) -> None:
        self.connects += 1
        super().connect()


def connection(base_url: str) -> CountingConnection:
    host, port = base_url.rsplit("//", 1)[1].split(":")
    return CountingConnection(host, int(port), timeout=REQUEST_TIMEOUT_S)


def fetch(conn: CountingConnection, path: str,
          op: str) -> Tuple[Optional[int], Optional[bytes]]:
    """GET ``path``; ``(None, None)`` when the request fails outright."""
    try:
        conn.request("GET", path, headers={OP_HEADER: op})
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        return None, None


class Record:
    __slots__ = ("op", "request", "due", "sent", "end", "status", "body",
                 "gap")

    def __init__(self, op: str, request: Request, due: float, sent: float,
                 end: float, status: Optional[int], body: Optional[bytes],
                 gap: float):
        self.op = op
        self.request = request
        self.due = due
        self.sent = sent
        self.end = end
        self.status = status
        self.body = body
        #: Open loop: how late the request left (sent - due).  Closed
        #: loop: the caller's own time between reply and next send.
        self.gap = gap

    @property
    def latency_s(self) -> float:
        return self.end - self.due


def poisson_schedule(rate: float, seconds: float, seed: int) -> List[float]:
    """Arrival offsets of a Poisson process of ``rate`` over ``seconds``,
    conditioned on its expected count: that many uniform arrivals."""
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


def open_loop(base_url: str, arrivals: List[float], requests: List[Request],
              threads: int = 2) -> Tuple[List[Record], int, float]:
    """Send each request at its due time, whatever the server's state.

    Returns the records, the number of TCP connects and the start time.
    Latency is timed from each request's due time, so a stall also counts
    against the requests it delays.
    """
    records: List[Record] = []
    lock = threading.Lock()
    cursor = iter(range(len(arrivals)))
    start = time.perf_counter() + 0.05
    conns = [connection(base_url) for _ in range(threads)]

    def sender(conn: CountingConnection) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + arrivals[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, body = fetch(conn, requests[i].path, f"m{i}")
            end = time.perf_counter()
            with lock:
                records.append(Record(f"m{i}", requests[i], due, sent, end,
                                      status, body, sent - due))

    _run_threads(sender, conns)
    return records, sum(c.connects for c in conns), start


def closed_loop(base_url: str, stream: Iterator[Request], seconds: float,
                threads: int = 2) -> Tuple[List[Record], int, float]:
    """Each caller sends its next request only after the last reply, until
    ``seconds`` have passed.  Returns records, connects and start time."""
    records: List[Record] = []
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    conns = [connection(base_url) for _ in range(threads)]
    start = time.perf_counter()
    stop = start + seconds

    def caller(conn: CountingConnection) -> None:
        last_end = time.perf_counter()
        while last_end < stop:
            with lock:
                n = next(counter)
                request = next(stream)
            sent = time.perf_counter()
            status, body = fetch(conn, request.path, f"m{n}")
            end = time.perf_counter()
            with lock:
                records.append(Record(f"m{n}", request, sent, sent, end,
                                      status, body, sent - last_end))
            last_end = end

    _run_threads(caller, conns)
    return records, sum(c.connects for c in conns), start


def _run_threads(target, conns: List[CountingConnection]) -> None:
    workers = [threading.Thread(target=target, args=(c,)) for c in conns]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    for c in conns:
        c.close()


def one_request(base_url: str, path: str,
                op: str) -> Tuple[Optional[int], Optional[bytes]]:
    conn = connection(base_url)
    try:
        return fetch(conn, path, op)
    finally:
        conn.close()

