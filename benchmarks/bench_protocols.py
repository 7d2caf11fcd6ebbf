"""ABL-PROTO — the cost of the wire protocols Clarens speaks.

Section 2 lists XML-RPC, SOAP and JSON-RPC support; the reproduction adds a
negotiated binary codec on the same dispatch path.  The protocol choice
changes only the codec, so this benchmark measures (a) raw encode+decode
round-trips of the Figure 4 payload (the >30-string method list) and a typed
event-metadata record, (b) end-to-end ``system.list_methods`` calls per
protocol against a live server, and (c) the socket-level XML-RPC vs binary
A/B on the async frontend (the raw-speed wire path).

Expected shape: binary is the cheapest (``struct`` packing, no markup),
JSON-RPC next, XML-RPC close behind, SOAP the most expensive (bigger
envelopes, namespace handling) — the reason the original PClarens defaulted
to XML-RPC rather than SOAP for analysis traffic.
"""

from __future__ import annotations

import datetime as dt
import random
import time

import pytest

from repro.bench.results import ResultTable
from repro.client.client import ClarensClient
from repro.protocols import BinaryCodec, JSONRPCCodec, SOAPCodec, XMLRPCCodec
from repro.protocols.types import RPCRequest, RPCResponse

CODECS = {"xml-rpc": XMLRPCCodec(), "soap": SOAPCodec(),
          "json-rpc": JSONRPCCodec(), "binary": BinaryCodec()}

#: The Figure 4 response payload: a method list of >30 strings.
METHOD_LIST = [f"{module}.{name}" for module in ("system", "file", "vo", "acl", "job")
               for name in ("read", "write", "list", "status", "info", "find", "check")]

#: A typed record like the file/job services return.
EVENT_RECORD = {
    "dataset": "/store/cms/run2005A",
    "events": 1_250_000,
    "size_bytes": 8 << 30,
    "luminosity": 2.37,
    "good_run": True,
    "checksum": b"\x12\x34\x56\x78" * 4,
    "recorded": dt.datetime(2005, 6, 14, 12, 0, 0),
    "files": [{"name": f"run1_{i}.root", "size": 2 << 20} for i in range(10)],
}


_rng = random.Random(2005)
#: The async-socket RPC mix's echo shapes: a long array of 31-bit ints and
#: a list of small ``{id, name, vals, meta}`` records (about 8 KB each in
#: the binary codec).
INT_ARRAY = [_rng.getrandbits(31) for _ in range(900)]
RECORD_LIST = [{"id": _rng.getrandbits(31), "name": _rng.randbytes(6).hex(),
                "vals": [_rng.getrandbits(31) for _ in range(_rng.randrange(1, 5))],
                "meta": {"ok": _rng.random() < 0.5, "w": _rng.random()}}
               for _ in range(90)]


@pytest.mark.parametrize("name", list(CODECS), ids=list(CODECS))
def test_encode_decode_method_list(benchmark, name):
    codec = CODECS[name]
    response = RPCResponse.from_result(METHOD_LIST)

    def round_trip():
        return codec.decode_response(codec.encode_response(response))

    decoded = benchmark(round_trip)
    assert decoded.result == METHOD_LIST
    benchmark.extra_info["protocol"] = name
    benchmark.extra_info["payload"] = "method-list"


@pytest.mark.parametrize("name", list(CODECS), ids=list(CODECS))
def test_encode_decode_typed_record(benchmark, name):
    codec = CODECS[name]
    request = RPCRequest("file.register_dataset", [EVENT_RECORD])

    def round_trip():
        return codec.decode_request(codec.encode_request(request))

    decoded = benchmark(round_trip)
    assert decoded.params[0]["events"] == EVENT_RECORD["events"]
    benchmark.extra_info["protocol"] = name
    benchmark.extra_info["payload"] = "event-record"


@pytest.mark.parametrize("payload", ["int-array", "record-list"])
@pytest.mark.parametrize("name", list(CODECS), ids=list(CODECS))
def test_encode_decode_echo_payload(benchmark, name, payload):
    """Request and response round trip of ``system.echo`` on a mix payload,
    i.e. what a server decodes and then encodes per echo call."""

    codec = CODECS[name]
    value = INT_ARRAY if payload == "int-array" else RECORD_LIST
    request = RPCRequest("system.echo", (value,))
    response = RPCResponse.from_result(value)

    def round_trip():
        return (codec.decode_request(codec.encode_request(request)),
                codec.decode_response(codec.encode_response(response)))

    decoded_request, decoded_response = benchmark(round_trip)
    assert decoded_request.params[0] == value
    assert decoded_response.result == value
    benchmark.extra_info["protocol"] = name
    benchmark.extra_info["payload"] = payload


@pytest.mark.parametrize("name", list(CODECS), ids=list(CODECS))
def test_end_to_end_list_methods_per_protocol(benchmark, bench_env, name):
    codec = CODECS[name]
    client = ClarensClient.for_loopback(bench_env.loopback, codec=codec,
                                        url_prefix=bench_env.server.config.url_prefix)
    client.login_with_credential(bench_env.user)
    result = benchmark(client.call, "system.list_methods")
    assert len(result) > 30
    benchmark.extra_info["protocol"] = name


def test_protocol_summary_table(benchmark, bench_env, paper_scale, capsys):
    calls = 400 if paper_scale else 120
    table = ResultTable("Protocol comparison (end-to-end system.list_methods)",
                        ["protocol", "calls/s", "wire bytes/response"])

    def measure() -> dict:
        rates = {}
        for name, codec in CODECS.items():
            client = ClarensClient.for_loopback(bench_env.loopback, codec=codec,
                                                url_prefix=bench_env.server.config.url_prefix)
            client.login_with_credential(bench_env.user)
            wire_size = len(codec.encode_response(RPCResponse.from_result(
                client.call("system.list_methods"))))
            start = time.perf_counter()
            for _ in range(calls):
                client.call("system.list_methods")
            rates[name] = calls / (time.perf_counter() - start)
            table.add_row(name, round(rates[name], 1), wire_size)
        return rates

    rates = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print("\n" + table.render())
        print("[ABL-PROTO] all protocols share one endpoint and dispatch path; "
              "only serialization cost differs.\n")

    # Shape: SOAP is the heaviest of the text protocols (within 10% tolerance).
    assert rates["soap"] <= max(rates["xml-rpc"], rates["json-rpc"]) * 1.1


def test_binary_wire_path_socket_ab(benchmark, smoke):
    """The raw-speed wire path: XML-RPC vs binary on the async frontend.

    Unlike the loopback tests above this boots a real TCP socket server and
    drives it with the pipelined event-loop client, so the A/B includes
    bytes-on-the-wire and the server's decode/encode hot path — the setup
    ``scripts/bench_trend.py`` records as ``fig4_binary``.
    """

    from repro.bench.pipelinebench import measure_fig4_protocols

    calls = 200 if smoke else 800
    counts = (4,) if smoke else (1, 8)
    result = benchmark.pedantic(
        measure_fig4_protocols, rounds=1, iterations=1,
        kwargs={"calls_per_point": calls, "client_counts": counts,
                "rounds": 1 if smoke else 2})
    assert result["errors"] == 0
    for n in counts:
        assert result["binary"][n] > 0
        assert result["xmlrpc"][n] > 0
    if not smoke:
        # Binary must beat XML-RPC at concurrency; the >=2x target is
        # asserted on trend numbers, not here, to keep CI noise-proof.
        assert result["binary_over_xmlrpc"][counts[-1]] > 1.0
    benchmark.extra_info["binary_over_xmlrpc"] = {
        str(k): round(v, 2) for k, v in result["binary_over_xmlrpc"].items()}
