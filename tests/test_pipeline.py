"""The request pipeline: stage chain, multicall batching, admission control,
sharded dispatch statistics.

Covers the PR-4 acceptance scenarios: both transports route RPC through the
same pipeline object, ``system.multicall`` batches are equivalent to
sequential dispatches (including under concurrency), throttled requests map
to ``RETRY_LATER`` faults in every protocol codec (HTTP 429 on the plain
endpoint) with ``dispatch.throttled`` events on the bus, and the sharded
statistics stay exact under threaded load.
"""

from __future__ import annotations

import http.client
import threading

import pytest

from repro.client.client import ClarensClient
from repro.core.admission import ANONYMOUS_IDENTITY, AdmissionController
from repro.core.dispatch import SESSION_HEADER
from repro.core.errors import RetryLaterError
from repro.core.pipeline import PipelineStage
from repro.httpd.message import Headers, HTTPRequest
from repro.monitoring.bus import MessageBus
from repro.protocols import BinaryCodec, JSONRPCCodec, SOAPCodec, XMLRPCCodec
from repro.protocols.errors import Fault, FaultCode
from repro.protocols.types import RPCRequest

from tests.conftest import build_server

THROTTLED_DN = "/O=clarens.test/OU=People/CN=Throttled Caller"


def rpc_post(server, body: bytes, *, content_type="text/xml", session_id=None,
             client_dn=None):
    headers = Headers({"Content-Type": content_type})
    if session_id:
        headers.set(SESSION_HEADER, session_id)
    request = HTTPRequest(method="POST", path=server.config.rpc_path(),
                          headers=headers, body=body, client_dn=client_dn)
    return server.handle_request(request)


# -- wiring ---------------------------------------------------------------------

class TestPipelineWiring:
    def test_dispatcher_is_a_facade_over_the_server_pipeline(self, server):
        assert server.dispatcher.pipeline is server.pipeline
        assert server.dispatcher.stats is server.pipeline.stats

    def test_standard_stage_order(self, server):
        assert server.pipeline.stage_names() == [
            "trace", "session", "acl", "admission", "invoke"]

    def test_loopback_and_socket_route_through_one_pipeline(
            self, server, alice_credential):
        """Requests from both transports land in the same stats object."""

        loop_client = ClarensClient.for_loopback(server.loopback())
        loop_client.login_with_credential(alice_credential)
        before = server.pipeline.stats.snapshot()["per_method"].get(
            "system.ping", 0)
        loop_client.call("system.ping")

        with server.socket_server() as sock:
            host, port = sock.address
            body = XMLRPCCodec().encode_request(RPCRequest("system.ping"))
            conn = http.client.HTTPConnection(host, port, timeout=5)
            conn.request("POST", server.config.rpc_path(), body=body,
                         headers={"Content-Type": "text/xml",
                                  SESSION_HEADER: loop_client.session_id})
            response = conn.getresponse()
            assert response.status == 200
            decoded = XMLRPCCodec().decode_response(response.read())
            assert decoded.unwrap() == "pong"
            conn.close()

        after = server.pipeline.stats.snapshot()["per_method"]["system.ping"]
        assert after == before + 2
        loop_client.close()

    def test_keepalive_pipelining_through_socket_server(self, server,
                                                        alice_credential):
        """Many RPCs ride one keep-alive connection through the pipeline."""

        loop_client = ClarensClient.for_loopback(server.loopback())
        loop_client.login_with_credential(alice_credential)
        codec = XMLRPCCodec()
        with server.socket_server(keep_alive=True) as sock:
            host, port = sock.address
            conn = http.client.HTTPConnection(host, port, timeout=5)
            for i in range(6):
                body = codec.encode_request(RPCRequest("system.echo",
                                                       params=(i,)))
                conn.request("POST", server.config.rpc_path(), body=body,
                             headers={"Content-Type": "text/xml",
                                      SESSION_HEADER: loop_client.session_id})
                response = conn.getresponse()
                assert response.getheader("Connection") == "keep-alive"
                assert codec.decode_response(response.read()).unwrap() == i
            conn.close()
        loop_client.close()

    def test_custom_stage_insertion(self, server, client):
        seen: list[tuple[int, str | None]] = []

        class Recorder(PipelineStage):
            name = "recorder"

            def __call__(self, state):
                seen.append((state.trace_id, state.dn))

        server.pipeline.insert_stage(Recorder(), after="session")
        assert server.pipeline.stage_names() == [
            "trace", "session", "recorder", "acl", "admission", "invoke"]
        client.call("system.ping")
        assert seen and seen[-1][0] > 0
        assert seen[-1][1] == client.dn
        # The custom stage shows up in the latency breakdown too.
        assert "recorder" in server.pipeline.stats.snapshot()["stages"]

    def test_insert_stage_rejects_unknown_anchor(self, server):
        with pytest.raises(ValueError):
            server.pipeline.insert_stage(PipelineStage(), before="nope")

    def test_per_stage_latency_in_system_stats(self, server, client,
                                               admin_client):
        client.call("system.list_methods")
        stats = admin_client.call("system.stats")
        for stage in ("decode", "trace", "session", "acl", "admission",
                      "invoke", "encode"):
            assert stage in stats["stages"], f"missing stage {stage}"
            assert stats["stages"][stage]["calls"] > 0
        assert stats["stages"]["invoke"]["seconds"] >= 0.0

    def test_access_checks_ablation_still_works(self, ca, host_credential):
        for checks in (0, 1, 2):
            server = build_server(ca, host_credential,
                                  access_checks_per_request=checks)
            try:
                client = ClarensClient.for_loopback(server.loopback())
                assert client.call("system.ping") == "pong"
            finally:
                server.close()


# -- system.multicall -----------------------------------------------------------

def _nested_list(levels: int):
    value = 0
    for _ in range(levels):
        value = [value]
    return value


#: Handlers returning values outside the RPC type model, with the fault each
#: call answers.  The XML-RPC answers are the ones the server gave when every
#: result was checked by a separate ``validate_value`` walk before encoding.
UNENCODABLE_RESULTS = {
    "object": (object, "ProtocolError: type object is not representable in RPC"),
    "int-key": (lambda: {1: "x"},
                "ProtocolError: struct keys must be strings, got int"),
    "deep-65": (lambda: _nested_list(65),
                "ProtocolError: value nesting exceeds 64 levels"),
}


class TestUnencodableResults:
    """A result the codec cannot encode answers with the validation fault."""

    @pytest.mark.parametrize("codec", [XMLRPCCodec(), BinaryCodec(), SOAPCodec(),
                                       JSONRPCCodec()], ids=lambda c: c.name)
    @pytest.mark.parametrize("kind", sorted(UNENCODABLE_RESULTS))
    def test_single_call_fault(self, server, alice_credential, codec, kind):
        make, message = UNENCODABLE_RESULTS[kind]
        server.registry.register("bad.result", lambda: make())
        client = ClarensClient.for_loopback(server.loopback(), codec=codec)
        client.login_with_credential(alice_credential)
        faults_before = server.pipeline.stats.snapshot()["faults"]
        with pytest.raises(Fault) as raised:
            client.call("bad.result")
        assert (raised.value.code, raised.value.message) == \
            (FaultCode.INTERNAL_ERROR, message)
        assert server.pipeline.stats.snapshot()["faults"] == faults_before + 1
        # The connection and session stay usable.
        assert client.call("system.echo", "still here") == "still here"

    @pytest.mark.parametrize("kind", sorted(UNENCODABLE_RESULTS))
    def test_multicall_entry_fault(self, server, client, kind):
        make, message = UNENCODABLE_RESULTS[kind]
        server.registry.register("bad.result", lambda: make())
        results = client.multicall([("bad.result", []), ("system.ping", [])])
        assert isinstance(results[0], Fault)
        assert (results[0].code, results[0].message) == \
            (FaultCode.INTERNAL_ERROR, message)
        assert results[1] == "pong"


class TestMulticall:
    def test_batch_equivalent_to_sequential(self, client):
        calls = [("system.echo", [i]) for i in range(10)]
        calls += [("system.ping", []), ("system.list_methods", [])]
        batched = client.multicall(calls)
        sequential = [client.call(m, *p) for m, p in calls]
        assert batched == sequential

    def test_fault_per_entry_does_not_poison_the_batch(self, client):
        results = client.multicall([
            ("system.echo", ["ok-1"]),
            ("no.such.method", []),
            ("system.method_help", []),          # missing required argument
            ("system.echo", ["ok-2"]),
        ])
        assert results[0] == "ok-1"
        assert isinstance(results[1], Fault)
        assert results[1].code == FaultCode.NOT_FOUND
        assert isinstance(results[2], Fault)
        assert results[2].code == FaultCode.INVALID_PARAMS
        assert results[3] == "ok-2"

    def test_anonymous_batch_limited_to_anonymous_methods(self, anon_client):
        results = anon_client.multicall([
            ("system.ping", []),
            ("file.ls", ["/"]),                  # requires authentication
        ])
        assert results[0] == "pong"
        assert isinstance(results[1], Fault)
        assert results[1].code == FaultCode.AUTHENTICATION_REQUIRED

    def test_nested_multicall_rejected_per_entry(self, client):
        results = client.multicall([
            ("system.multicall", [[]]),
            ("system.ping", []),
        ])
        assert isinstance(results[0], Fault)
        assert results[0].code == FaultCode.ACCESS_DENIED
        assert results[1] == "pong"

    def test_malformed_entries_fault_in_place(self, client):
        raw = client.call("system.multicall", [
            "not a struct",
            {"params": [1]},                      # no methodName
            {"methodName": "system.echo", "params": "not-an-array"},
            {"methodName": "system.echo", "params": [7]},
        ])
        assert [slot["faultCode"] for slot in raw[:3]] == \
            [FaultCode.INVALID_PARAMS] * 3
        assert raw[3] == [7]

    def test_acl_denial_amortized_per_distinct_method(self, server, client,
                                                      admin_client):
        from repro.acl.model import ACL

        admin_client.call("acl.set_method_acl", "file",
                          ACL(order="allow,deny",
                              dns_allowed=["/O=nobody/CN=none"]).to_record())
        results = client.multicall([("file.ls", ["/"]),
                                    ("file.ls", ["/tmp"]),
                                    ("system.ping", [])])
        assert all(isinstance(r, Fault) and r.code == FaultCode.ACCESS_DENIED
                   for r in results[:2])
        assert results[2] == "pong"

    def test_submethods_counted_in_per_method_stats(self, server, client):
        before = server.pipeline.stats.snapshot()["per_method"]
        client.multicall([("system.echo", [i]) for i in range(5)])
        after = server.pipeline.stats.snapshot()["per_method"]
        assert after.get("system.echo", 0) - before.get("system.echo", 0) == 5
        assert after["system.multicall"] - before.get("system.multicall", 0) == 1

    def test_batch_size_limit_faults_the_request(self, ca, host_credential,
                                                 alice_credential):
        """An oversized batch is refused whole: one admission token must not
        buy unbounded work."""

        server = build_server(ca, host_credential, dispatch_multicall_limit=3)
        try:
            client = ClarensClient.for_loopback(server.loopback())
            client.login_with_credential(alice_credential)
            assert client.multicall([("system.ping", [])] * 3) == ["pong"] * 3
            with pytest.raises(Fault) as excinfo:
                client.multicall([("system.ping", [])] * 4)
            assert excinfo.value.code == FaultCode.INVALID_PARAMS
            client.close()
        finally:
            server.close()

    def test_concurrent_multicalls_match_sequential(self, server, loopback,
                                                    alice_credential):
        """Threaded batches all return exactly their own inputs."""

        n_threads, n_calls = 6, 25
        failures: list[str] = []

        def worker(tid: int) -> None:
            client = ClarensClient.for_loopback(loopback)
            try:
                client.login_with_credential(alice_credential)
                expected = [f"t{tid}-{i}" for i in range(n_calls)]
                batch = [("system.echo", [value]) for value in expected]
                for _ in range(3):
                    if client.multicall(batch) != expected:
                        failures.append(f"thread {tid} diverged")
            except Exception as exc:  # noqa: BLE001
                failures.append(f"thread {tid}: {exc!r}")
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures
        per_method = server.pipeline.stats.snapshot()["per_method"]
        assert per_method["system.echo"] == n_threads * n_calls * 3
        assert per_method["system.multicall"] == n_threads * 3


# -- admission control ----------------------------------------------------------

class TestAdmissionController:
    def test_token_bucket_refills_at_rate(self):
        clock = [0.0]
        controller = AdmissionController(rate=2.0, burst=2.0,
                                         clock=lambda: clock[0])
        controller.admit("dn", "m")()
        controller.admit("dn", "m")()
        with pytest.raises(RetryLaterError) as excinfo:
            controller.admit("dn", "m")
        assert excinfo.value.retry_after == pytest.approx(0.5)
        clock[0] += 0.5                      # one token refilled
        controller.admit("dn", "m")()
        with pytest.raises(RetryLaterError):
            controller.admit("dn", "m")

    def test_identities_are_isolated(self):
        clock = [0.0]
        controller = AdmissionController(rate=1.0, burst=1.0,
                                         clock=lambda: clock[0])
        controller.admit("alice", "m")()
        with pytest.raises(RetryLaterError):
            controller.admit("alice", "m")
        controller.admit("bob", "m")()       # different bucket
        controller.admit(None, "m")()        # the anonymous principal
        assert controller.stats()["throttled"] == 1

    def test_max_inflight_releases_on_finish(self):
        controller = AdmissionController(max_inflight=1)
        release = controller.admit("dn", "m")
        with pytest.raises(RetryLaterError):
            controller.admit("dn", "m")
        release()
        release()                            # double release is harmless
        controller.admit("dn", "m")()

    def test_fractional_burst_clamped_to_one_token(self):
        """A burst below one token must not reject every request forever."""

        controller = AdmissionController(rate=50.0, burst=0.5)
        assert controller.burst >= 1.0
        controller.admit("dn", "m")()

    def test_idle_buckets_are_prunable_under_rate_limiting(self):
        """Pruning projects the refill, so idle rate-limited buckets go away."""

        clock = [0.0]
        controller = AdmissionController(rate=1.0, burst=2.0,
                                         clock=lambda: clock[0])
        controller.admit("idle-dn", "m")()   # leaves the bucket below burst
        clock[0] += 5.0                      # long idle: balance refills
        with controller._lock:
            controller._prune(clock[0])
        assert controller.stats()["identities"] == 0


class TestAdmissionStage:
    @pytest.fixture()
    def throttled_server(self, ca, host_credential):
        server = build_server(ca, host_credential,
                              dispatch_rate_limit=0.001, dispatch_burst=2)
        yield server
        server.close()

    def test_excess_requests_get_retry_later_fault(self, throttled_server,
                                                   alice_credential):
        events: list[dict] = []
        throttled_server.message_bus.subscribe(
            "dispatch.throttled", lambda m: events.append(m.payload))
        # Identify via the certificate DN so no login calls spend tokens.
        client = ClarensClient.for_loopback(throttled_server.loopback(),
                                            credential=alice_credential)
        dn = str(alice_credential.certificate.subject)

        assert client.call("system.ping") == "pong"
        assert client.call("system.ping") == "pong"
        with pytest.raises(Fault) as excinfo:
            client.call("system.ping")
        assert excinfo.value.code == FaultCode.RETRY_LATER
        assert events and events[0]["identity"] == dn
        assert events[0]["reason"] == "rate"
        assert throttled_server.pipeline.stats.snapshot()["throttled"] >= 1
        client.close()

    def test_other_identities_unaffected(self, throttled_server,
                                         alice_credential, bob_credential):
        alice_dn = str(alice_credential.certificate.subject)
        bob_dn = str(bob_credential.certificate.subject)
        codec = XMLRPCCodec()
        body = codec.encode_request(RPCRequest("system.ping"))
        for _ in range(3):
            rpc_post(throttled_server, body, client_dn=alice_dn)
        throttled = rpc_post(throttled_server, body, client_dn=alice_dn)
        assert throttled.status == 429
        ok = rpc_post(throttled_server, body, client_dn=bob_dn)
        assert ok.status == 200
        assert codec.decode_response(ok.body_bytes()).unwrap() == "pong"

    @pytest.mark.parametrize("codec", [XMLRPCCodec(), SOAPCodec(), JSONRPCCodec()],
                             ids=["xml-rpc", "soap", "json-rpc"])
    def test_throttle_fault_maps_in_every_codec(self, ca, host_credential,
                                                codec):
        """Each protocol carries RETRY_LATER; the endpoint answers HTTP 429."""

        server = build_server(ca, host_credential,
                              dispatch_rate_limit=0.001, dispatch_burst=1)
        try:
            body = codec.encode_request(RPCRequest("system.ping"))
            first = rpc_post(server, body, content_type=codec.content_type,
                             client_dn=THROTTLED_DN)
            assert first.status == 200
            second = rpc_post(server, body, content_type=codec.content_type,
                              client_dn=THROTTLED_DN)
            assert second.status == 429
            decoded = codec.decode_response(second.body_bytes())
            assert decoded.is_fault
            assert decoded.fault.code == FaultCode.RETRY_LATER
        finally:
            server.close()

    def test_max_inflight_sheds_concurrent_requests(self, ca, host_credential):
        server = build_server(ca, host_credential, dispatch_max_inflight=1)
        try:
            gate = threading.Event()
            entered = threading.Event()

            def block() -> str:
                entered.set()
                gate.wait(10)
                return "done"

            server.registry.register("test.block", block)
            codec = XMLRPCCodec()
            responses: list = []

            def call(method: str) -> None:
                body = codec.encode_request(RPCRequest(method))
                responses.append(rpc_post(server, body,
                                          client_dn=THROTTLED_DN))

            blocker = threading.Thread(target=call, args=("test.block",))
            blocker.start()
            assert entered.wait(5)
            # Same identity, one slot: the second concurrent request sheds.
            body = codec.encode_request(RPCRequest("system.ping"))
            shed = rpc_post(server, body, client_dn=THROTTLED_DN)
            assert shed.status == 429
            gate.set()
            blocker.join(timeout=10)
            assert codec.decode_response(
                responses[0].body_bytes()).unwrap() == "done"
            # The slot was released: the identity is admitted again.
            ok = rpc_post(server, body, client_dn=THROTTLED_DN)
            assert ok.status == 200
        finally:
            server.close()

    def test_anonymous_callers_share_one_bucket(self, ca, host_credential):
        server = build_server(ca, host_credential,
                              dispatch_rate_limit=0.001, dispatch_burst=2)
        try:
            events: list[dict] = []
            server.message_bus.subscribe("dispatch.throttled",
                                         lambda m: events.append(m.payload))
            client = ClarensClient.for_loopback(server.loopback())
            assert client.call("system.ping") == "pong"
            assert client.call("system.ping") == "pong"
            with pytest.raises(Fault) as excinfo:
                client.call("system.ping")
            assert excinfo.value.code == FaultCode.RETRY_LATER
            assert events[0]["identity"] == ANONYMOUS_IDENTITY
            client.close()
        finally:
            server.close()


# -- sharded statistics ---------------------------------------------------------

class TestShardedStats:
    def test_threads_spread_across_shards(self):
        """Distinct threads land on distinct shards (thread idents are
        64-byte-aligned addresses, so a naive ident % shards would not)."""

        from repro.core.pipeline import ShardedDispatchStats

        stats = ShardedDispatchStats(4)
        threads = [threading.Thread(target=stats.record_stage, args=("x", 0.0))
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        populated = sum(1 for shard in stats._shards if shard.stage_calls)
        assert populated == 4
        assert stats.snapshot()["stages"]["x"]["calls"] == 4

    def test_exact_counts_under_threaded_load(self, server, loopback):
        n_threads, n_calls = 8, 40
        before = server.pipeline.stats.snapshot()
        errors: list[str] = []

        def worker() -> None:
            client = ClarensClient.for_loopback(loopback)
            try:
                for _ in range(n_calls):
                    if client.call("system.ping") != "pong":
                        errors.append("bad result")
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))
            finally:
                client.close()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors

        after = server.pipeline.stats.snapshot()
        total = n_threads * n_calls
        assert after["requests"] - before["requests"] == total
        assert after["per_method"].get("system.ping", 0) \
            - before["per_method"].get("system.ping", 0) == total
        # Anonymous pings count as anonymous admissions, and none faulted.
        assert after["anonymous_requests"] - before["anonymous_requests"] == total
        assert after["faults"] == before["faults"]
        assert after["total_seconds"] > before["total_seconds"]

    def test_fault_and_stage_accounting(self, server, client):
        with pytest.raises(Fault):
            client.call("no.such.method")
        snapshot = server.pipeline.stats.snapshot()
        assert snapshot["faults"] >= 1
        # The failed request stopped at the session stage (method lookup),
        # so invoke ran strictly fewer times than trace.
        stages = snapshot["stages"]
        assert stages["trace"]["calls"] > stages["invoke"]["calls"]
        assert snapshot["mean_latency_ms"] >= 0.0
