"""Closed-loop HTTP load generator with byte-exact answer checking.

Each connection is one thread holding one keep-alive connection: it sends
its next request only after the previous answer arrived, so a slower
server receives proportionally less load.  Every answer is compared
byte-for-byte with the expected body; a non-200 status, a mismatched
body or a broken connection counts the request as *failed* (never as
dropped) and the thread reconnects.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Request:
    kind: str
    path: str
    body: bytes
    expected: bytes


@dataclass(frozen=True)
class Sample:
    kind: str
    start: float  # time.monotonic() when the request was sent
    latency: float  # seconds until the whole body arrived
    ok: bool


@dataclass
class Phase:
    name: str
    connections: int
    spans: List[Tuple[float, float]]  # (begin, end) of each stretch driven
    samples: List[Sample]

    @property
    def seconds(self) -> float:
        return sum(end - begin for begin, end in self.spans)

    def covers(self, instant: float) -> bool:
        return any(begin <= instant <= end for begin, end in self.spans)

    @property
    def ok(self) -> List[Sample]:
        return [s for s in self.samples if s.ok]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


def load_requests(payload: dict) -> Dict[str, List[Request]]:
    """Group the artifact worker's request list by kind."""
    grouped: Dict[str, List[Request]] = {}
    for item in payload["requests"]:
        grouped.setdefault(item["kind"], []).append(
            Request(
                item["kind"],
                item["path"],
                item["body"].encode("utf-8"),
                item["expected"].encode("utf-8"),
            )
        )
    return grouped


def send(conn: http.client.HTTPConnection, request: Request) -> bool:
    """One request on ``conn``; ``True`` iff 200 with the expected body."""
    conn.request(
        "POST",
        request.path,
        body=request.body,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    body = response.read()
    return response.status == 200 and body == request.expected


def _connection_loop(
    host: str,
    port: int,
    requests: Dict[str, List[Request]],
    mix: Dict[str, int],
    rng: random.Random,
    deadline: float,
    samples: List[Sample],
) -> None:
    cycle = [kind for kind, share in sorted(mix.items()) for _ in range(share)]
    upcoming: List[str] = []
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        while True:
            start = time.monotonic()
            if start >= deadline:
                return
            if not upcoming:
                # A shuffled cycle keeps the kinds' shares exact in every run.
                upcoming = rng.sample(cycle, len(cycle))
            request = rng.choice(requests[upcoming.pop()])
            try:
                ok = send(conn, request)
            except (OSError, http.client.HTTPException):
                ok = False
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=60)
            samples.append(Sample(request.kind, start, time.monotonic() - start, ok))
    finally:
        conn.close()


def run_phase(
    name: str,
    host: str,
    port: int,
    requests: Dict[str, List[Request]],
    mix: Dict[str, int],
    connections: int,
    seconds: float,
    seed: int,
) -> Phase:
    """Drive ``connections`` closed loops for ``seconds``; collect samples."""
    begin = time.monotonic()
    deadline = begin + seconds
    per_thread: List[List[Sample]] = [[] for _ in range(connections)]
    threads = [
        threading.Thread(
            target=_connection_loop,
            args=(
                host,
                port,
                requests,
                mix,
                random.Random(f"{seed}:{name}:{index}"),
                deadline,
                per_thread[index],
            ),
            daemon=True,
        )
        for index in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError(f"{name} client connection did not finish")
    end = time.monotonic()
    samples = sorted((s for chunk in per_thread for s in chunk), key=lambda s: s.start)
    return Phase(name, connections, [(begin, end)], samples)


def merge(phases: Sequence[Phase]) -> Phase:
    """One phase from stretches of the same phase driven at different times."""
    first = phases[0]
    return Phase(
        first.name,
        first.connections,
        [span for phase in phases for span in phase.spans],
        [sample for phase in phases for sample in phase.samples],
    )


def latencies(samples: Sequence[Sample]) -> List[float]:
    return [s.latency for s in samples]
