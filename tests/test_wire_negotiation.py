"""The negotiated wire path: codec upgrade/downgrade, restarts, sendfile.

Covers the interop matrix the binary protocol must survive in a mixed-version
fabric — a negotiating client against an XML-only server, a paper-mode XML
client against a binary-enabled server, garbage on the wire — plus the two
transport-level pieces of the fast path: the keep-alive reconnect that
re-sends negotiated headers after a server restart, and the ``os.sendfile``
data plane staying byte-identical to the chunked fallback on both frontends.
"""

from __future__ import annotations

import http.client
import time

import pytest

from repro.client.client import ClarensClient
from repro.core.pipeline import encode_fault_cached
from repro.core.server import ClarensServer
from repro.httpd.aio import AsyncHTTPServer
from repro.httpd.message import Headers, HTTPRequest, HTTPResponse
from repro.httpd.sendfile import FilePayload
from repro.httpd.server import SocketHTTPServer
from repro.protocols import (BinaryCodec, Fault, RPCRequest, RPCResponse,
                             XMLRPCCodec, all_codecs, default_codec)
from repro.protocols.errors import FaultCode
from repro.protocols.negotiate import ACCEPT_HEADER, PROTOCOL_HEADER

from tests.conftest import build_server

XML_ONLY = "xml-rpc,soap,json-rpc"


def _raw_post(server, body: bytes, content_type: str,
              extra: dict[str, str] | None = None) -> HTTPResponse:
    """POST straight at the RPC endpoint, bypassing the client's codec."""

    headers = Headers({"Content-Type": content_type, **(extra or {})})
    request = HTTPRequest(method="POST", path=server.config.rpc_path(),
                          headers=headers, body=body)
    connection = server.loopback().connect()
    try:
        return connection.request(request)
    finally:
        connection.close()


class TestNegotiationMatrix:
    def test_negotiating_client_upgrades_after_first_response(self, server):
        client = ClarensClient.for_loopback(server.loopback(), negotiate=True)
        assert client.codec.name == "xml-rpc"    # first request is paper-mode
        assert client.call("system.ping") == "pong"
        assert client.codec.name == "binary"     # advert observed, upgraded
        assert client.call("system.echo", {"k": [1, b"\x00"]}) == {"k": [1, b"\x00"]}
        client.close()

    def test_negotiating_client_against_xml_only_server(self, ca, host_credential):
        server = build_server(ca, host_credential, protocol_preference=XML_ONLY)
        try:
            client = ClarensClient.for_loopback(server.loopback(), negotiate=True)
            assert client.call("system.ping") == "pong"
            assert client.codec.name == "xml-rpc"   # advert lacks binary
            assert client.call("system.ping") == "pong"
            client.close()
        finally:
            server.close()

    def test_paper_mode_client_sees_no_advert(self, server):
        """A client that never asks must get byte-for-byte XML-RPC back."""

        codec = XMLRPCCodec()
        body = codec.encode_request(RPCRequest("system.ping"))
        response = _raw_post(server, body, codec.content_type)
        assert response.status == 200
        assert response.headers.get(PROTOCOL_HEADER) is None
        assert response.headers.get("Content-Type") == codec.content_type
        assert codec.decode_response(response.body_bytes()).result == "pong"

    def test_advert_lists_enabled_codecs_when_asked(self, server):
        codec = XMLRPCCodec()
        body = codec.encode_request(RPCRequest("system.ping"))
        response = _raw_post(server, body, codec.content_type,
                             extra={ACCEPT_HEADER: "binary"})
        advertised = (response.headers.get(PROTOCOL_HEADER) or "").split(",")
        assert "binary" in advertised
        assert "xml-rpc" in advertised

    def test_binary_request_to_binary_server(self, server):
        codec = BinaryCodec()
        body = codec.encode_request(RPCRequest("system.ping", call_id=4))
        response = _raw_post(server, body, codec.content_type)
        assert response.status == 200
        assert response.headers.get("Content-Type") == codec.content_type
        decoded = codec.decode_response(response.body_bytes())
        assert decoded.result == "pong"
        assert decoded.call_id == 4

    def test_binary_request_to_xml_only_server_is_clean_fault(self, ca, host_credential):
        """A disabled protocol gets a protocol-correct fault, never a 500."""

        server = build_server(ca, host_credential, protocol_preference=XML_ONLY)
        try:
            body = BinaryCodec().encode_request(RPCRequest("system.ping"))
            response = _raw_post(server, body, BinaryCodec().content_type)
            assert response.status == 200
            decoded = default_codec().decode_response(response.body_bytes())
            assert decoded.is_fault
            assert decoded.fault.code == FaultCode.PARSE_ERROR
            assert "not enabled" in decoded.fault.message
        finally:
            server.close()

    def test_garbage_body_and_content_type_is_clean_fault(self, server):
        response = _raw_post(server, b"\x01\x02 utterly not RPC",
                             "application/x-mystery")
        assert response.status == 200
        decoded = default_codec().decode_response(response.body_bytes())
        assert decoded.is_fault
        assert decoded.fault.code == FaultCode.PARSE_ERROR

    def test_multicall_runs_identically_through_every_codec(self, server):
        """Same batch, every registered codec, same results on the wire."""

        for codec in all_codecs():
            client = ClarensClient.for_loopback(server.loopback(), codec=codec)
            assert client.multicall([("system.echo", ["x"]),
                                     ("system.ping", [])]) == ["x", "pong"]
            client.close()

    def test_fault_payloads_round_trip_byte_exact_every_codec(self):
        fault = Fault(FaultCode.METHOD_NOT_FOUND, "no such method: x.y")
        for codec in all_codecs():
            body = codec.encode_response(RPCResponse.from_fault(fault))
            decoded = codec.decode_response(body)
            assert decoded.is_fault
            re_encoded = codec.encode_response(
                RPCResponse.from_fault(decoded.fault, call_id=decoded.call_id))
            assert re_encoded == body, codec.name


class TestResultFragmentMemo:
    """The binary hot-response memo: cached bytes only for equal results."""

    def _call(self, server, method: str, call_id=None):
        codec = BinaryCodec()
        body = codec.encode_request(RPCRequest(method, (), call_id=call_id))
        response = _raw_post(server, body, codec.content_type)
        assert response.status == 200
        return codec.decode_response(response.body_bytes())

    def test_repeated_equal_results_reuse_the_fragment(self, server):
        catalog = ["alpha", "beta", "gamma"]
        server.registry.register("memo.catalog", lambda: list(catalog),
                                 anonymous=True)
        first = self._call(server, "memo.catalog", call_id=1)
        assert first.result == catalog
        cached = server.pipeline._result_memo["memo.catalog"]
        second = self._call(server, "memo.catalog", call_id=2)
        assert second.result == catalog
        # The memo entry was reused, not replaced, across the two calls.
        assert server.pipeline._result_memo["memo.catalog"] is cached

    def test_changed_result_misses_and_reencodes(self, server):
        cell = {"value": ["old"]}
        server.registry.register("memo.cell", lambda: cell["value"],
                                 anonymous=True)
        assert self._call(server, "memo.cell").result == ["old"]
        cell["value"] = ["new"]
        assert self._call(server, "memo.cell").result == ["new"]

    def test_mutating_the_returned_object_cannot_serve_stale_bytes(self, server):
        live = ["a"]
        server.registry.register("memo.live", lambda: live, anonymous=True)
        assert self._call(server, "memo.live").result == ["a"]
        live.append("b")                    # same object, mutated in place
        assert self._call(server, "memo.live").result == ["a", "b"]

    def test_numeric_results_are_never_memoised(self, server):
        """``1 == True == 1.0`` across types, so equality on numerics does
        not imply identical encoding — they must bypass the memo."""

        sequence = iter([[True], [1], [1.0]])
        server.registry.register("memo.nums", lambda: next(sequence),
                                 anonymous=True)
        assert self._call(server, "memo.nums").result == [True]
        second = self._call(server, "memo.nums").result
        assert second == [1] and type(second[0]) is int
        third = self._call(server, "memo.nums").result
        assert third == [1.0] and type(third[0]) is float
        assert "memo.nums" not in server.pipeline._result_memo

    def test_mutated_params_never_reach_a_later_call(self, server):
        """Every request is decoded afresh: a handler that mutates its params
        in place never changes what a later byte-identical frame delivers."""

        seen = []

        def grab(items, record):
            seen.append((items, record))
            items.append("touched")
            record["n"] += 1
            record["tags"].clear()
            return [list(items), dict(record, tags=list(record["tags"]))]

        server.registry.register("memo.grab", grab, anonymous=True)
        codec = BinaryCodec()
        frame = codec.encode_request(RPCRequest(
            "memo.grab", (["mutable"], {"n": 1, "tags": ["a", "b"]})))
        for _ in range(3):
            result = codec.decode_response(
                _raw_post(server, frame, codec.content_type).body_bytes()).result
            assert result == [["mutable", "touched"], {"n": 2, "tags": []}]
        # Each call got its own objects, not one shared decoded request.
        assert len({id(items) for items, _ in seen}) == 3
        assert len({id(record) for _, record in seen}) == 3

    def test_unencodable_result_faults_identically_to_xml(self, server):
        """The validation the binary path defers to encode time must surface
        as the same fault the XML path's up-front walk produces."""

        server.registry.register("memo.bad", lambda: object(), anonymous=True)
        faults = {}
        for codec in (XMLRPCCodec(), BinaryCodec()):
            body = codec.encode_request(RPCRequest("memo.bad"))
            decoded = codec.decode_response(
                _raw_post(server, body, codec.content_type).body_bytes())
            assert decoded.is_fault
            faults[codec.name] = decoded.fault.code
        assert faults["binary"] == faults["xml-rpc"]


class TestFaultEncodeCache:
    def test_cached_bytes_match_fresh_encode(self, server):
        fault = Fault(FaultCode.PARSE_ERROR, "bad frame")
        for codec in all_codecs():
            fresh = codec.encode_response(RPCResponse.from_fault(fault))
            assert encode_fault_cached(codec, fault) == fresh
            # Second hit serves the identical cached object.
            assert encode_fault_cached(codec, fault) is encode_fault_cached(codec, fault)


class TestRestartRenegotiation:
    """Server restart mid-session: stale keep-alive + codec fallback."""

    def test_restart_downgrades_then_reupgrades(self, ca, host_credential,
                                                tmp_path):
        binary_server = build_server(ca, host_credential,
                                     data_dir=tmp_path / "a")
        frontend = binary_server.socket_server()
        frontend.start()
        host, port = frontend.address
        client = ClarensClient.for_url(frontend.url, negotiate=True)
        try:
            assert client.call("system.ping") == "pong"
            assert client.call("system.ping") == "pong"
            assert client.codec.name == "binary"

            # Restart the endpoint as an XML-only build on the same port.
            frontend.stop()
            binary_server.close()
            xml_server = build_server(ca, host_credential,
                                      protocol_preference=XML_ONLY,
                                      data_dir=tmp_path / "b")
            frontend = xml_server.socket_server(host=host, port=port)
            frontend.start()

            # The next call rides the dead keep-alive socket, reconnects,
            # gets a PARSE_ERROR fault for the binary body, and resends in
            # the base codec — all inside one call() from the caller's view.
            assert client.call("system.ping") == "pong"
            assert client.codec.name == "xml-rpc"
            assert client.call("system.ping") == "pong"

            # Restart again as a binary-enabled build: the accept header
            # travels on every request, so the client re-upgrades.
            frontend.stop()
            xml_server.close()
            server3 = build_server(ca, host_credential,
                                   data_dir=tmp_path / "c")
            frontend = server3.socket_server(host=host, port=port)
            frontend.start()
            assert client.call("system.ping") == "pong"    # reconnect + advert
            assert client.call("system.ping") == "pong"
            assert client.codec.name == "binary"
            frontend.stop()
            server3.close()
        finally:
            client.close()

    def test_paper_mode_client_survives_restart_unchanged(self, ca,
                                                          host_credential,
                                                          tmp_path):
        server = build_server(ca, host_credential, data_dir=tmp_path / "a")
        frontend = server.socket_server()
        frontend.start()
        host, port = frontend.address
        client = ClarensClient.for_url(frontend.url)    # no negotiation
        try:
            assert client.call("system.ping") == "pong"
            frontend.stop()
            server.close()
            server2 = build_server(ca, host_credential,
                                   data_dir=tmp_path / "b")
            frontend = server2.socket_server(host=host, port=port)
            frontend.start()
            assert client.call("system.ping") == "pong"
            assert client.codec.name == "xml-rpc"
            frontend.stop()
            server2.close()
        finally:
            client.close()


DATA = bytes(range(256)) * 200                  # 51200 bytes, every value


def _wait_for_sends(server, expected: int, timeout: float = 2.0) -> int:
    """The counter increments just after the client can finish reading, so
    give the serving thread a beat before asserting on it."""

    deadline = time.monotonic() + timeout
    while server.sendfile_sends < expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return server.sendfile_sends


def _fetch(url: str, path: str) -> bytes:
    conn = http.client.HTTPConnection(*url.removeprefix("http://").split(":"),
                                      timeout=5)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        return response.read()
    finally:
        conn.close()


class TestSendfileDataPlane:
    @pytest.mark.parametrize("frontend_cls", [SocketHTTPServer, AsyncHTTPServer],
                             ids=("threaded", "async"))
    @pytest.mark.parametrize("offset,length", [(0, -1), (100, 5000), (51100, -1)],
                             ids=("full", "middle", "tail"))
    def test_sendfile_matches_chunked_byte_for_byte(self, tmp_path,
                                                    frontend_cls, offset, length):
        path = tmp_path / "payload.bin"
        path.write_bytes(DATA)
        want = DATA[offset:] if length < 0 else DATA[offset:offset + length]

        def handler(request: HTTPRequest) -> HTTPResponse:
            return HTTPResponse.ok(
                FilePayload(str(path), offset=offset, length=length),
                content_type="application/octet-stream")

        bodies = {}
        for enabled in (True, False):
            with frontend_cls(handler, sendfile_enabled=enabled) as server:
                bodies[enabled] = _fetch(server.url, "/payload.bin")
                if enabled:
                    assert _wait_for_sends(server, 1) == 1
                else:
                    assert server.sendfile_sends == 0
        assert bodies[True] == bodies[False] == want

    def test_ranged_lfn_read_identical_with_and_without_sendfile(
            self, ca, host_credential, alice_credential, tmp_path):
        """End to end: a ranged file GET through the full server stack."""

        payload = DATA[:8192]
        bodies = {}
        for enabled in (True, False):
            server = build_server(ca, host_credential, sendfile_enabled=enabled,
                                  data_dir=tmp_path / str(enabled))
            frontend = server.socket_server()
            frontend.start()
            try:
                client = ClarensClient.for_url(frontend.url)
                client.login_with_credential(alice_credential)
                client.call("file.write", "/events.dat", payload, False)
                response = client.http_get("events.dat",
                                           query="offset=1000&length=4096")
                assert response.status == 200
                bodies[enabled] = response.body_bytes()
                client.close()
                if enabled:
                    assert _wait_for_sends(frontend, 1) == 1
                else:
                    assert frontend.sendfile_sends == 0
            finally:
                frontend.stop()
                server.close()
        assert bodies[True] == bodies[False] == payload[1000:5096]
