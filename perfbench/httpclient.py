"""The benchmark's own closed-loop HTTP/1.1 client (stdlib asyncio).

Independent of ``repro.serve.loadtest`` on purpose, so a change to the
server cannot change the meter.  Each connection is keep-alive and
closed-loop: it sends its next request only after the previous response
has been read in full.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Response:
    status: int
    headers: dict
    body: bytes
    start: float
    end: float

    @property
    def latency(self) -> float:
        return self.end - self.start


class HttpError(RuntimeError):
    """The peer broke HTTP framing or closed mid-response."""


class Connection:
    """One keep-alive connection to ``host:port``."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
            self.writer = None

    async def request(self, method: str, path: str,
                      payload: Optional[dict] = None) -> Response:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: keep-alive\r\n\r\n").encode()
        start = time.perf_counter()
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
            raise HttpError(f"bad status line {status_line!r}")
        headers: dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if not line:
                raise HttpError("connection closed inside headers")
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = await self.reader.readexactly(length) if length else b""
        return Response(int(parts[1]), headers, data, start,
                        time.perf_counter())


@dataclass
class PhaseResult:
    """Every response of one phase, each round's time, and the phase's
    wall time."""

    responses: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    wall_s: float = 0.0


async def run_phase(connections: list[Connection], plans: list[list[dict]],
                    round_size: int) -> PhaseResult:
    """Drive ``connections[i]`` through ``plans[i]`` (a list of
    ``POST /jobs`` bodies) concurrently, closed loop, in rounds: in each
    round every connection sends its next ``round_size`` requests one
    after another, and the round ends when all of them are answered.
    Responses are listed connection by connection, in plan order."""
    result = PhaseResult()
    per_conn: list[list[Response]] = [[] for _ in connections]

    async def drive(conn: Connection, chunk: list[dict], out: list) -> None:
        for spec in chunk:
            out.append(await conn.request("POST", "/jobs", spec))

    start = time.perf_counter()
    for k in range(0, max(map(len, plans)), round_size):
        begin = time.perf_counter()
        await asyncio.gather(*(drive(conn, plan[k:k + round_size], out)
                               for conn, plan, out
                               in zip(connections, plans, per_conn)))
        result.round_s.append(time.perf_counter() - begin)
    result.wall_s = time.perf_counter() - start
    for responses in per_conn:
        result.responses.extend(responses)
    return result


async def wait_healthy(host: str, port: int, timeout: float) -> None:
    """Poll ``GET /healthz`` until it answers 200."""
    deadline = time.monotonic() + timeout
    while True:
        conn = Connection(host, port)
        try:
            await conn.open()
            response = await conn.request("GET", "/healthz")
            if response.status == 200:
                return
        except (OSError, HttpError, asyncio.IncompleteReadError):
            pass
        finally:
            await conn.close()
        if time.monotonic() > deadline:
            raise TimeoutError(f"server not healthy after {timeout} s")
        await asyncio.sleep(0.01)
