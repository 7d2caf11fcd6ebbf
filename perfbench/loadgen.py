"""The socket workloads' load generator: closed-loop raw HTTP/1.1.

One asyncio event loop on the benchmark's main thread drives every
connection.  Requests are pre-encoded at set-up, so the timed window spends
generator CPU only on framing and on checking responses.  Each connection
keeps a fixed number of requests in flight (its pipeline depth) and sends
the next one only when a response completes: a closed loop, so a slower
server receives less load.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from perfbench.spans import SpanRecorder
from perfbench.tracer import RID_HEADER

__all__ = ["Request", "Tally", "open_connection", "exchange", "pipelined"]

_RID_PREFIX = f"{RID_HEADER}: ".encode()


@dataclass
class Request:
    """A pre-encoded request: its head (without the blank line) and body
    pieces, written with one ``writelines``."""

    head: bytes
    body: tuple = ()

    def pieces(self, rid: str | None) -> list:
        if rid is None:
            return [self.head, b"\r\n", *self.body]
        return [self.head, _RID_PREFIX, rid.encode(), b"\r\n\r\n", *self.body]


def rpc_head(host: str, path: str, content_type: str, session: str,
             length: int) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"X-Clarens-Accept-Protocol: binary\r\n"
            f"X-Clarens-Session: {session}\r\n"
            f"Content-Length: {length}\r\n").encode()


def get_head(host: str, path: str, session: str) -> bytes:
    return (f"GET {path} HTTP/1.1\r\nHost: {host}\r\nAccept: */*\r\n"
            f"X-Clarens-Session: {session}\r\n").encode()


@dataclass
class Tally:
    """What a connection (or a whole workload) completed in one slice."""

    latencies_ns: list = field(default_factory=list)
    #: The kind of operation behind each latency (parallel list).
    kinds: list = field(default_factory=list)
    #: Per kind of operation: [operations, bytes read, bytes written].
    totals: dict = field(default_factory=dict)

    def add(self, latency_ns: float, read_bytes: int = 0, write_bytes: int = 0,
            kind: str = "call") -> None:
        self.latencies_ns.append(latency_ns)
        self.kinds.append(kind)
        total = self.totals.setdefault(kind, [0, 0, 0])
        total[0] += 1
        total[1] += read_bytes
        total[2] += write_bytes

    @property
    def ops(self) -> float:
        return sum(total[0] for total in self.totals.values())

    @property
    def read_bytes(self) -> float:
        return sum(total[1] for total in self.totals.values())

    @property
    def write_bytes(self) -> float:
        return sum(total[2] for total in self.totals.values())

    def percentile_ms(self, q: float) -> float:
        """The ``q``-quantile of the latencies, in ms.

        With several kinds of operation each kind carries the same total
        weight: two closed loops of different speeds complete a mix that
        drifts with the host's speed, and an unweighted percentile would
        slide along the other kind's distribution with it.  Weighting kinds
        equally takes the percentile over the seeded operation mix (one
        download per upload in ``data_plane_rw``).
        """

        counts = Counter(self.kinds)
        if len(counts) == 1:
            if q == 0.5:
                return statistics.median(self.latencies_ns) / 1e6
            return statistics.quantiles(self.latencies_ns, n=100)[round(q * 100) - 1] / 1e6
        weight = {kind: 1 / (len(counts) * count) for kind, count in counts.items()}
        total = 0.0
        for latency, kind in sorted(zip(self.latencies_ns, self.kinds)):
            total += weight[kind]
            if total >= q - 1e-9:       # the weights' float sum may fall short
                return latency / 1e6
        return max(self.latencies_ns) / 1e6

    def merge(self, other: "Tally") -> "Tally":
        totals = {kind: list(total) for kind, total in self.totals.items()}
        for kind, total in other.totals.items():
            mine = totals.setdefault(kind, [0, 0, 0])
            for i, value in enumerate(total):
                mine[i] += value
        return Tally(self.latencies_ns + other.latencies_ns, self.kinds + other.kinds,
                     totals)

    def scaled(self, factor: float, raw_kinds: frozenset = frozenset()) -> "Tally":
        """This tally on a host ``factor`` times slower: counts and bytes
        scaled up, latencies scaled down.  Operations of ``raw_kinds`` are
        kept as measured, in every figure they contribute to."""

        def scale(kind: str) -> float:
            return 1.0 if kind in raw_kinds else factor

        return Tally([ns / scale(kind) for ns, kind in zip(self.latencies_ns, self.kinds)],
                     list(self.kinds),
                     {kind: [value * scale(kind) for value in total]
                      for kind, total in self.totals.items()})


async def open_connection(host: str, port: int):
    return await asyncio.open_connection(host, port, limit=1 << 20)


async def read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
            break
    body = await reader.readexactly(length) if length else b""
    return status, body


async def exchange(reader, writer, request: Request, rid: str | None = None
                   ) -> tuple[int, bytes]:
    """Send one request and wait for its response."""

    writer.writelines(request.pieces(rid))
    await writer.drain()
    return await read_response(reader)


Check = Callable[[int, int, bytes], tuple[bool, int, int]]


async def pipelined(reader, writer, make: Callable[[int], Request], check: Check,
                    *, depth: int, deadline_ns: int, counter: Iterator[int], tag: str,
                    kind: str = "call", recorder: SpanRecorder | None = None) -> Tally:
    """Keep ``depth`` requests in flight until the deadline, then drain.

    ``counter`` numbers the requests across calls, so consecutive slices
    continue the seeded sequence: ``make(i)`` is the i-th request and
    ``check(i, status, body)`` returns ``(ok, read_bytes, write_bytes)`` for
    its response.  Every completed request is counted.
    """

    tally = Tally()
    inflight: deque[tuple[int, int, str | None]] = deque()
    clock = time.perf_counter_ns

    def send() -> None:
        seq = next(counter)
        rid = f"{tag}.{seq}" if recorder is not None else None
        writer.writelines(make(seq).pieces(rid))
        inflight.append((seq, clock(), rid))

    for _ in range(depth):
        send()
    await writer.drain()
    while inflight:
        status, body = await read_response(reader)
        done = clock()
        seq, sent, rid = inflight.popleft()
        _, read_bytes, write_bytes = check(seq, status, body)
        tally.add(done - sent, read_bytes, write_bytes, kind)
        if recorder is not None:
            recorder.add("loadgen.op", sent, done, rid=rid)
        if done < deadline_ns:
            send()
            await writer.drain()
    return tally
