"""Seeded input generation for every workload.

Everything a workload sends is derived here from ``(workload, seed)`` and
nothing else, so the same seed gives byte-identical inputs on every host and
commit.  The module imports nothing from the program: requests are described
as plain ``(method, params)`` pairs and encoded by the workload at set-up.

Sizes follow a log-uniform distribution laid out as a quantile grid: with
``n`` sizes the log-size range is cut into ``n`` equal slices and each slice
contributes its midpoint.  Every seed therefore sends the same size
distribution, paired with the same payload shapes -- large frames are
neither over- nor under-represented by luck -- while contents and the order
of every sequence change with the seed.  Differences between seeds
then come from the system, not from the dice.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "DEFAULT_SEED",
    "RpcCall",
    "RpcMix",
    "DataPlane",
    "rng_for",
    "log_uniform_grid",
    "approx_size",
    "make_rpc_mix",
    "make_data_plane",
    "describe_rpc_mix",
    "describe_data_plane",
]

DEFAULT_SEED = 1

#: rpc_socket_mix: calls in one cycle of the seeded sequence (both
#: connections together) and the share of each call kind.
MIX_CALLS = 800
MIX_SHARES = (("system.echo", 0.55), ("system.list_methods", 0.15),
              ("file.stat", 0.15), ("replica.locate", 0.15))
ECHO_MIN_BYTES = 16
ECHO_MAX_BYTES = 64 * 1024
ECHO_KINDS = ("str", "ints", "struct")
#: Small files seeded at set-up for the file.stat / replica.locate share.
MIX_FILES = 8
MIX_FILE_MIN_BYTES = 256
MIX_FILE_MAX_BYTES = 16 * 1024

#: data_plane_rw: working-set files read back, distinct upload blobs, and
#: how many shuffled passes over each make one cycle of the sequence.
DP_FILES = 24
DP_BLOBS = 24
DP_PASSES = 20
DP_MIN_BYTES = 4 * 1024
DP_MAX_BYTES = 4 * 1024 * 1024


def rng_for(workload: str, seed: int) -> random.Random:
    """An independent generator per (workload, seed).

    String seeds hash through SHA-512 inside :class:`random.Random`, so the
    sequence is stable across processes and Python builds.
    """

    return random.Random(f"perfbench:{workload}:{seed}:")


def log_uniform_grid(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` integer sizes on the log-uniform quantile grid over
    ``[lo, hi]``, in seeded order."""

    a, b = math.log(lo), math.log(hi)
    sizes = [int(round(math.exp(a + (b - a) * (i + 0.5) / n))) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def approx_size(value: Any) -> int:
    """Encoded size of ``value`` under a tag-length-value model.

    Mirrors a length-prefixed binary framing (1-byte tag, 4-byte lengths,
    8-byte numbers) closely enough to size payloads; the exact frame sizes
    are measured after encoding.
    """

    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 5 + len(value)
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 9
    if isinstance(value, (list, tuple)):
        return 5 + sum(approx_size(item) for item in value)
    if isinstance(value, dict):
        return 5 + sum(4 + len(key) + approx_size(item) for key, item in value.items())
    raise TypeError(f"unsupported payload type {type(value).__name__}")


def _echo_payload(rng: random.Random, kind: str, target: int) -> Any:
    if kind == "str":
        length = max(1, target - 5)
        return rng.randbytes(length // 2 + 1).hex()[:length]
    if kind == "ints":
        return [rng.getrandbits(31) for _ in range(max(1, (target - 5) // 9))]
    records: list[dict[str, Any]] = []
    size = 5
    while size < target:
        record = {
            "id": rng.getrandbits(31),
            "name": rng.randbytes(6).hex(),
            "vals": [rng.getrandbits(31) for _ in range(rng.randrange(1, 5))],
            "meta": {"ok": rng.random() < 0.5, "w": rng.random()},
        }
        records.append(record)
        size += approx_size(record)
    return records


@dataclass(frozen=True)
class RpcCall:
    """One call of the socket mix: its method, params and payload size."""

    method: str
    params: tuple
    payload_bytes: int


@dataclass
class RpcMix:
    """The rpc_socket_mix inputs: seeded files plus one call sequence per
    connection (the generator cycles through each sequence)."""

    files: list[tuple[str, str, bytes]]          # (lfn, pfn, content)
    connections: list[list[RpcCall]] = field(default_factory=list)


def make_rpc_mix(seed: int, *, connections: int = 2) -> RpcMix:
    rng = rng_for("rpc_socket_mix", seed)
    file_sizes = log_uniform_grid(rng, MIX_FILES, MIX_FILE_MIN_BYTES, MIX_FILE_MAX_BYTES)
    files = [(f"/perfbench/mix/lfn{i:02d}", f"/perfbench/mix/f{i:02d}.dat",
              rng.randbytes(size)) for i, size in enumerate(file_sizes)]

    counts = [round(share * MIX_CALLS) for _, share in MIX_SHARES]
    kinds = [method for (method, _), count in zip(MIX_SHARES, counts)
             for _ in range(count)]
    rng.shuffle(kinds)
    n_echo = kinds.count("system.echo")
    # Payload shapes rotate over the sizes in rank order, so every seed
    # pairs the same sizes with the same shapes; the pairs are then shuffled.
    echoes = [(size, ECHO_KINDS[rank % len(ECHO_KINDS)])
              for rank, size in enumerate(sorted(
                  log_uniform_grid(rng, n_echo, ECHO_MIN_BYTES, ECHO_MAX_BYTES)))]
    rng.shuffle(echoes)

    calls: list[RpcCall] = []
    echo_index = 0
    for method in kinds:
        if method == "system.echo":
            size, kind = echoes[echo_index]
            payload = _echo_payload(rng, kind, size)
            echo_index += 1
            calls.append(RpcCall(method, (payload,), approx_size(payload)))
        elif method == "system.list_methods":
            calls.append(RpcCall(method, (), 0))
        elif method == "file.stat":
            pfn = files[rng.randrange(len(files))][1]
            calls.append(RpcCall(method, (pfn,), approx_size(pfn)))
        else:
            lfn = files[rng.randrange(len(files))][0]
            calls.append(RpcCall(method, (lfn,), approx_size(lfn)))
    return RpcMix(files=files,
                  connections=[calls[i::connections] for i in range(connections)])


@dataclass
class DataPlane:
    """The data_plane_rw inputs: the read working set, the upload blobs and
    the seeded order in which each is used."""

    files: list[tuple[str, str, bytes]]          # (lfn, pfn, content)
    blobs: list[bytes]
    read_order: list[int]
    write_order: list[int]


def _passes(rng: random.Random, n: int, passes: int) -> list[int]:
    order: list[int] = []
    for _ in range(passes):
        block = list(range(n))
        rng.shuffle(block)
        order.extend(block)
    return order


def make_data_plane(seed: int) -> DataPlane:
    rng = rng_for("data_plane_rw", seed)
    file_sizes = log_uniform_grid(rng, DP_FILES, DP_MIN_BYTES, DP_MAX_BYTES)
    blob_sizes = log_uniform_grid(rng, DP_BLOBS, DP_MIN_BYTES, DP_MAX_BYTES)
    files = [(f"/perfbench/ws/lfn{i:02d}", f"/perfbench/ws/f{i:02d}.dat",
              rng.randbytes(size)) for i, size in enumerate(file_sizes)]
    blobs = [rng.randbytes(size) for size in blob_sizes]
    return DataPlane(files=files, blobs=blobs,
                     read_order=_passes(rng, DP_FILES, DP_PASSES),
                     write_order=_passes(rng, DP_BLOBS, DP_PASSES))


def _quartiles(values: list[int]) -> list[float]:
    return [round(q, 1) for q in statistics.quantiles(values, n=4)]


def describe_rpc_mix(mix: RpcMix) -> dict[str, Any]:
    """Input properties of the socket mix that the system's behaviour
    depends on: how often a call's result repeats an earlier result of the
    same method (what a result memo can exploit), how often a request frame
    repeats an earlier one byte for byte (what an exact-bytes request cache
    can exploit) and the payload sizes."""

    calls = [call for conn in mix.connections for call in conn]
    seen: set[tuple[str, tuple]] = set()
    repeats = 0
    for call in calls:
        key = (call.method, call.params if call.method != "system.echo" else (id(call),))
        if key in seen:
            repeats += 1
        seen.add(key)
    echo = [call.payload_bytes for call in calls if call.method == "system.echo"]
    # Frames carry fixed call ids (the index in the connection's sequence), so
    # within a cycle no frame repeats.  Set-up sends every frame once to
    # capture its reference and the window replays the cycle, so every frame
    # of the window repeats an earlier frame byte for byte.
    small_scalar = sum(
        all(isinstance(p, (str, bytes, int, float, type(None))) for p in call.params)
        and approx_size(call.method) + 9 + approx_size(list(call.params)) <= 1024
        for call in calls)
    return {
        "calls_per_cycle": len(calls),
        "list_methods_share": round(
            sum(call.method == "system.list_methods" for call in calls) / len(calls), 4),
        "repeated_result_share": round(repeats / len(calls), 4),
        "window_repeated_frame_share": 1.0,
        "small_scalar_frame_share": round(small_scalar / len(calls), 4),
        "echo_payload_quartiles_bytes": _quartiles(echo),
    }


def describe_data_plane(plane: DataPlane) -> dict[str, Any]:
    """Working-set and upload sizes, and the byte split one cycle moves."""

    read_bytes = sum(len(plane.files[i][2]) for i in plane.read_order)
    write_bytes = sum(len(plane.blobs[i]) for i in plane.write_order)
    return {
        "file_size_quartiles_bytes": _quartiles([len(f[2]) for f in plane.files]),
        "blob_size_quartiles_bytes": _quartiles([len(b) for b in plane.blobs]),
        "working_set_bytes": sum(len(f[2]) for f in plane.files),
        "cycle_read_share_of_bytes": round(read_bytes / (read_bytes + write_bytes), 4),
    }
