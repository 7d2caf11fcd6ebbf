"""The three workloads: set-up, one timed window, and output checks.

Every workload runs the program in paper mode (telemetry and caches off,
two access checks per request, one authenticated session per connection,
512-bit keys) and is closed-loop.  The generator is this process's main
thread; the socket workloads run the server in a child process
(:mod:`perfbench.server_child`) so each side has a core of its own.

Only the program's public API is used: ``ClarensServer``, ``ServerConfig``,
``CertificateAuthority``, ``ClarensClient``, ``Credential.from_pem`` (to take
the child's user credentials) and the binary codec, which pre-encodes every
request at set-up.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from perfbench import inputs
from perfbench.checks import Checker
from perfbench.hostspeed import Probes
from perfbench.loadgen import (Request, Tally, exchange, get_head, open_connection,
                               pipelined, rpc_head)
from perfbench.procstat import GCPauseMeter, cpu_seconds, peak_rss_mb
from perfbench.server_child import ServerProcess, make_pki, paper_config
from perfbench.spans import SpanRecorder

__all__ = ["Window", "WORKLOADS"]

ROOT = Path(__file__).resolve().parent.parent
RPC_PATH = "/clarens/rpc"
#: Fixed-width stand-in for the upload counter inside pre-encoded frames.
PLACEHOLDER = b"@@@@@@@@"


#: The generator (with the whole of fig4_loopback) runs pinned to the first
#: CPU the benchmark may use, the server child to the last, so each side has
#: a core of its own and its probe (:mod:`perfbench.hostspeed`) reads it.
LOADGEN_CPU = min(os.sched_getaffinity(0))
SERVER_CPU = max(os.sched_getaffinity(0))

#: A timed window is measured as load slices of this many seconds with a
#: host-speed probe of PROBE_S seconds before and after each one
#: (:mod:`perfbench.hostspeed`).
SLICE_S = 0.5
PROBE_S = 0.05


@dataclass
class Window:
    """One timed window: per-slice tallies plus process accounting."""

    #: Per slice: (raw tally, wall seconds under load, host factor: the
    #: reference host's speed over the speed probed around the slice).
    slices: list
    loadgen_cpu_s: float
    server_cpu_s: float
    gc_pause_s: float = 0.0
    peak_rss_mb: float = 0.0
    sendfile_sends: int = 0
    #: Kinds of operation reported as measured rather than host-normalised.
    raw_kinds: frozenset = frozenset()
    #: Traced runs: merged spans, event counts and samples of both sides.
    spans: list = field(default_factory=list)
    events: Counter = field(default_factory=Counter)
    samples: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        """Wall seconds under load (probes excluded)."""

        return sum(took for _, took, _ in self.slices)

    @property
    def factor(self) -> float:
        """Time-weighted mean host factor (reference over measured speed)."""

        return sum(factor * took for _, took, factor in self.slices) / self.seconds

    @cached_property
    def raw(self) -> Tally:
        return self.segments(1)[0][0]

    @cached_property
    def norm(self) -> Tally:
        """The window's work on the reference host (:mod:`perfbench.hostspeed`)."""

        return self.segments(1)[0][1]

    def segments(self, count: int) -> list[tuple[Tally, Tally, float]]:
        """The window cut into ``count`` runs of consecutive slices, each as
        ``(raw tally, normalised tally, wall seconds)``."""

        out = []
        for index in range(count):
            part = self.slices[index * len(self.slices) // count:
                               (index + 1) * len(self.slices) // count]
            raw, norm = Tally(), Tally()
            for tally, _, factor in part:
                raw = raw.merge(tally)
                norm = norm.merge(tally.scaled(factor, self.raw_kinds))
            out.append((raw, norm, sum(took for _, took, _ in part)))
        return out


def measure_sliced(seconds: float, probes: Probes, run_slice, server_pid: int | None,
                   after_slice=None) -> Window:
    """Run ``run_slice(deadline_ns) -> Tally`` slice by slice for
    ``seconds`` of load, probing host speed between slices while the
    workload is paused.

    CPU is counted over the load slices only, for this process and (when
    ``server_pid`` is given) the server process.  A slice's speed is each
    side's mean speed around it, weighted by the CPU seconds that side spent
    in the slice: the work ran on the two CPUs in that proportion.
    ``after_slice`` runs untimed after each slice.
    """

    slices: list[tuple[Tally, float, float]] = []
    loadgen_cpu = server_cpu = 0.0
    before = probes.probe(PROBE_S)
    remaining = seconds
    while remaining > 1e-6:
        length = min(SLICE_S, remaining)
        remaining -= length
        cpu0 = time.process_time()
        srv0 = cpu_seconds(server_pid) if server_pid else 0.0
        start = time.perf_counter_ns()
        tally = run_slice(start + int(length * 1e9))
        took = (time.perf_counter_ns() - start) / 1e9
        cpu = {"loadgen": time.process_time() - cpu0}
        if server_pid:
            cpu["server"] = cpu_seconds(server_pid) - srv0
        loadgen_cpu += cpu["loadgen"]
        server_cpu += cpu.get("server", 0.0)
        if after_slice is not None:
            after_slice()
        after = probes.probe(PROBE_S)
        weights = {side: cpu.get(side, 0.0) for side in after}
        if not sum(weights.values()):
            weights = dict.fromkeys(after, 1.0)
        speed = sum(weights[side] * (before[side] + after[side]) / 2
                    for side in after) / sum(weights.values())
        slices.append((tally, took, 1 / speed))
        before = after
    return Window(slices=slices, loadgen_cpu_s=loadgen_cpu,
                  server_cpu_s=server_cpu if server_pid else loadgen_cpu)


# ---------------------------------------------------------------------------
# fig4_loopback
# ---------------------------------------------------------------------------

class Fig4Loopback:
    """The paper's Figure 4: back-to-back ``system.list_methods`` over the
    in-process loopback transport, XML-RPC, one logged-in client."""

    name = "fig4_loopback"
    #: Client and server share this process (and one thread).
    in_process = True
    raw_kinds: frozenset = frozenset()
    warmup_calls = 300

    def __init__(self, seed: int) -> None:
        # The paper's workload has no generated inputs; the seed is recorded.
        self.seed = seed

    def describe_inputs(self) -> dict[str, Any]:
        return {"method": "system.list_methods", "protocol": "xml-rpc",
                "transport": "in-process loopback"}

    def setup(self, workdir: Path, *, traced: bool) -> dict:
        from repro.client.client import ClarensClient
        from repro.core.server import ClarensServer
        from repro.protocols import RPCRequest, RPCResponse

        ca, host, (user,) = make_pki(self.seed, 1)
        server = ClarensServer(paper_config(workdir, str(host.certificate.subject)),
                               credential=host, trust_store=ca.trust_store())
        client = ClarensClient.for_loopback(server.loopback())
        client.login_with_credential(user)
        reference = client.call("system.list_methods")
        if not (isinstance(reference, list) and reference
                and all(isinstance(name, str) for name in reference)
                and len(set(reference)) == len(reference)
                and "system.list_methods" in reference):
            server.close()
            raise RuntimeError(f"bad method list at set-up: {reference!r:.200}")
        for _ in range(self.warmup_calls):
            if client.call("system.list_methods") != reference:
                server.close()
                raise RuntimeError("method list changed during warm-up")
        # XML-RPC carries no call id, so every exchange moves the same bytes.
        codec = client.codec
        sizes = (len(codec.encode_request(RPCRequest("system.list_methods", ()))),
                 len(codec.encode_response(RPCResponse.from_result(reference))))
        return {"server": server, "client": client, "reference": reference,
                "sizes": sizes}

    def measure(self, env: dict, seconds: float, checker: Checker,
                recorder: SpanRecorder | None, probes: Probes) -> Window:
        client, reference = env["client"], env["reference"]
        request_bytes, response_bytes = env["sizes"]
        call = client.call
        clock = time.perf_counter_ns
        counter = env.setdefault("counter", itertools.count())

        def run_slice(deadline: int) -> Tally:
            tally = Tally()
            while True:
                sent = clock()
                if recorder is None:
                    result = call("system.list_methods")
                else:
                    with recorder.span("loadgen.op", rid=str(next(counter))):
                        result = call("system.list_methods")
                done = clock()
                checker.equal("system.list_methods", result, reference)
                tally.add(done - sent, response_bytes, request_bytes)
                if done >= deadline:
                    return tally

        gc_meter = GCPauseMeter().start()
        try:
            window = measure_sliced(seconds, probes, run_slice, None)
        finally:
            gc_meter.stop()
        window.gc_pause_s = gc_meter.paused_s
        window.peak_rss_mb = peak_rss_mb()
        return window

    def teardown(self, env: dict, window: Window | None = None) -> None:
        env["client"].close()
        env["server"].close()


# ---------------------------------------------------------------------------
# socket workloads: shared set-up
# ---------------------------------------------------------------------------

class _SocketWorkload:
    """Server child, two logged-in identities, two raw connections."""

    name = ""
    in_process = False
    #: Kinds of operation reported as measured rather than host-normalised.
    raw_kinds: frozenset = frozenset()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _start(self, workdir: Path, traced: bool) -> dict:
        from repro.client.client import ClarensClient
        from repro.pki.credentials import Credential
        from repro.protocols import BinaryCodec

        proc = ServerProcess(ROOT, workdir, seed=self.seed, users=2, trace=traced,
                             cpu=SERVER_CPU)
        env: dict[str, Any] = {"proc": proc, "codec": BinaryCodec()}
        try:
            clients = []
            for pem in proc.user_pems:
                client = ClarensClient.for_url(proc.url, negotiate=True)
                client.login_with_credential(Credential.from_pem(pem))
                # The login's response advertised the binary codec.
                if client.codec.name != "binary":
                    raise RuntimeError("server did not negotiate the binary codec")
                clients.append(client)
            env["clients"] = clients
            env["host"] = proc.url.split("//", 1)[1]
            env["loop"] = asyncio.new_event_loop()
        except BaseException:
            proc.kill()
            raise
        return env

    def _connect(self, env: dict) -> None:
        host, port = env["host"].rsplit(":", 1)
        loop = env["loop"]
        env["conns"] = [loop.run_until_complete(open_connection(host, int(port)))
                        for _ in range(2)]
        # Only the two raw connections stay open while measuring.
        for client in env["clients"]:
            client.transport.close()

    def _window(self, env: dict, seconds: float, probes: Probes, run,
                after_slice=None) -> Window:
        """Measure ``run(deadline_ns) -> Tally`` (a coroutine) in slices."""

        proc: ServerProcess = env["proc"]
        loop = env["loop"]
        proc.command("mark")
        window = measure_sliced(seconds, probes,
                                lambda deadline: loop.run_until_complete(run(deadline)),
                                proc.pid, after_slice)
        window.raw_kinds = self.raw_kinds
        stats = proc.command("stats")
        window.gc_pause_s = stats["gc_pause_s"]
        window.sendfile_sends = stats["sendfile_sends"]
        window.peak_rss_mb = peak_rss_mb(proc.pid)
        return window

    def teardown(self, env: dict, window: Window | None = None) -> None:
        loop = env.get("loop")
        try:
            for _, writer in env.get("conns", ()):
                writer.close()
                loop.run_until_complete(writer.wait_closed())
            for client in env.get("clients", ()):
                client.close()
            report = env["proc"].stop()
        finally:
            if loop is not None:
                loop.close()
        if window is not None and "spans" in report:
            _merge_server_spans(window, report["spans"])


def _merge_server_spans(window: Window, path: str) -> None:
    with open(path) as fh:
        data = json.load(fh)
    # Server span ids are local to the child; shift them clear of ours.
    offset = 1 << 40
    for sid, name, start, end, parent, rid, raised in data["spans"]:
        window.spans.append((sid + offset, name, start, end,
                             None if parent is None else parent + offset, rid, raised))
    window.events.update(data["events"])
    window.samples.extend(tuple(sample) for sample in data["samples"])


# ---------------------------------------------------------------------------
# rpc_socket_mix
# ---------------------------------------------------------------------------

class RpcSocketMix(_SocketWorkload):
    """Seeded mix of side-effect-free binary RPCs over two pipelined
    keep-alive connections to the event-loop frontend."""

    name = "rpc_socket_mix"
    depth = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.mix = inputs.make_rpc_mix(seed)

    def describe_inputs(self) -> dict[str, Any]:
        return inputs.describe_rpc_mix(self.mix)

    def setup(self, workdir: Path, *, traced: bool) -> dict:
        from repro.protocols import RPCRequest

        env = self._start(workdir, traced)
        try:
            seeder = env["clients"][0]
            for lfn, pfn, content in self.mix.files:
                seeder.call("file.write", pfn, content)
                seeder.call("replica.register", lfn, "local", pfn)
            methods = seeder.call("system.list_methods")
            codec = env["codec"]
            env["requests"] = []
            for client, calls in zip(env["clients"], self.mix.connections):
                requests = []
                for index, call in enumerate(calls):
                    body = codec.encode_request(
                        RPCRequest(call.method, call.params, call_id=index))
                    head = rpc_head(env["host"], RPC_PATH, codec.content_type,
                                    client.session_id, len(body))
                    requests.append(Request(head, (body,)))
                env["requests"].append(requests)
            self._connect(env)
            env["references"] = env["loop"].run_until_complete(
                self._references(env, methods))
        except BaseException:
            self.teardown(env)
            raise
        return env

    async def _references(self, env: dict, methods: list) -> list[list[bytes]]:
        """Send every request once; decode, check and keep each response."""

        codec = env["codec"]
        files = {pfn: (lfn, content) for lfn, pfn, content in self.mix.files}
        by_lfn = {lfn: content for lfn, _, content in self.mix.files}
        references = []
        for (reader, writer), calls, requests in zip(env["conns"], self.mix.connections,
                                                     env["requests"]):
            bodies = []
            for index, (call, request) in enumerate(zip(calls, requests)):
                status, body = await exchange(reader, writer, request)
                response = codec.decode_response(body)
                if status != 200 or response.is_fault or response.call_id != index:
                    raise RuntimeError(f"set-up {call.method} failed: {status} "
                                       f"{response.fault if response.is_fault else ''}")
                result = response.result
                if call.method == "system.echo":
                    ok = result == call.params[0]
                elif call.method == "system.list_methods":
                    ok = result == methods
                elif call.method == "file.stat":
                    ok = (result["path"] == call.params[0]
                          and result["size"] == len(files[call.params[0]][1]))
                else:
                    content = by_lfn[call.params[0]]
                    ok = (result["lfn"] == call.params[0]
                          and result["size"] == len(content)
                          and result["checksum"] == hashlib.md5(content).hexdigest())
                if not ok:
                    raise RuntimeError(f"set-up {call.method} returned a wrong "
                                       f"result: {result!r:.200}")
                bodies.append(body)
            references.append(bodies)
        return references

    def measure(self, env: dict, seconds: float, checker: Checker,
                recorder: SpanRecorder | None, probes: Probes) -> Window:
        counters = env.setdefault("counters", [itertools.count(), itertools.count()])

        async def run(deadline: int) -> Tally:
            loops = []
            for conn, (reader, writer) in enumerate(env["conns"]):
                requests, references = env["requests"][conn], env["references"][conn]
                calls = self.mix.connections[conn]
                n = len(requests)

                def check(index, status, body, calls=calls, references=references,
                          requests=requests, n=n):
                    label = calls[index % n].method
                    ok = (checker.status(label, status)
                          and checker.body(label, body, references[index % n]))
                    return ok, len(body), len(requests[index % n].body[0])

                loops.append(pipelined(reader, writer,
                                       lambda i, r=requests, n=n: r[i % n], check,
                                       depth=self.depth, deadline_ns=deadline,
                                       counter=counters[conn], tag=str(conn),
                                       recorder=recorder))
            tallies = await asyncio.gather(*loops)
            return tallies[0].merge(tallies[1])

        return self._window(env, seconds, probes, run)


# ---------------------------------------------------------------------------
# data_plane_rw
# ---------------------------------------------------------------------------

class DataPlaneRW(_SocketWorkload):
    """One connection downloads whole files by LFN (replica broker, local
    element, sendfile); the other uploads blobs with ``file.write`` and
    registers each with ``replica.register`` (server-side md5)."""

    name = "data_plane_rw"
    #: Downloads are reported as measured in every metric, uploads are
    #: host-normalised: small downloads wait out a fixed 40 ms kernel timer
    #: (a delayed ACK behind a Nagle-held write), which does not scale with
    #: CPU speed.  When that stall is fixed, downloads become CPU-bound and
    #: this rule and the workload's bounds have to be measured again.
    raw_kinds = frozenset({"read"})
    verify_sample = 8
    #: Every keep_every-th upload stays on disk for the post-window checks.
    keep_every = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.plane = inputs.make_data_plane(seed)
        self.file_md5 = [hashlib.md5(f[2]).hexdigest() for f in self.plane.files]
        self.blob_md5 = [hashlib.md5(b).hexdigest() for b in self.plane.blobs]

    def describe_inputs(self) -> dict[str, Any]:
        return inputs.describe_data_plane(self.plane)

    def setup(self, workdir: Path, *, traced: bool) -> dict:
        from repro.protocols import RPCRequest

        env = self._start(workdir, traced)
        try:
            reader_client, writer_client = env["clients"]
            for lfn, pfn, content in self.plane.files:
                reader_client.call("file.write", pfn, content)
                reader_client.call("replica.register", lfn, "local", pfn)
            codec, host = env["codec"], env["host"]
            env["reads"] = [Request(get_head(host, f"/clarens/file/.lfn{lfn}",
                                             reader_client.session_id))
                            for lfn, _, _ in self.plane.files]
            pfn = b"/perfbench/up/u" + PLACEHOLDER + b".dat"
            lfn = b"/perfbench/up/lfn" + PLACEHOLDER
            uploads = []
            for index, blob in enumerate(self.plane.blobs):
                body = codec.encode_request(RPCRequest(
                    "file.write", (pfn.decode(), blob), call_id=index))
                register = codec.encode_request(RPCRequest(
                    "replica.register", (lfn.decode(), "local", pfn.decode()),
                    call_id=index))
                uploads.append((
                    rpc_head(host, RPC_PATH, codec.content_type,
                             writer_client.session_id, len(body)),
                    memoryview(body), body.index(PLACEHOLDER),
                    rpc_head(host, RPC_PATH, codec.content_type,
                             writer_client.session_id, len(register)),
                    register))
            env["uploads"] = uploads
            env["written"] = []
            env["discarded"] = 0
            env["next_upload"] = 0
            env["files"] = workdir / "files"
            self._connect(env)
            env["write_refs"] = env["loop"].run_until_complete(self._warmup(env))
        except BaseException:
            self.teardown(env)
            raise
        return env

    async def _warmup(self, env: dict) -> list[bytes]:
        """Read every file and upload every blob once, checking each
        response; the upload responses become the references."""

        reader, writer = env["conns"][0]
        for index, request in enumerate(env["reads"]):
            status, body = await exchange(reader, writer, request)
            if status != 200 or hashlib.md5(body).hexdigest() != self.file_md5[index]:
                raise RuntimeError(f"set-up read of file {index} failed ({status})")
        references = []
        setup_check = Checker()
        for index in range(len(self.plane.blobs)):
            body = await self._upload(env, index, None, None, setup_check)
            response = env["codec"].decode_response(body)
            if (response.is_fault or response.call_id != index
                    or response.result != len(self.plane.blobs[index])):
                raise RuntimeError(f"set-up upload of blob {index} failed")
            references.append(body)
        if not setup_check.correct:
            raise RuntimeError(f"set-up uploads failed: {setup_check.problems}")
        return references

    async def _upload(self, env: dict, index: int, reference: bytes | None,
                      rid: str | None, checker: Checker) -> bytes:
        """``file.write`` a blob to a fresh path, then register it."""

        reader, writer = env["conns"][1]
        head, body, at, register_head, register = env["uploads"][index]
        counter = env["next_upload"]
        env["next_upload"] = counter + 1
        digits = b"%08d" % counter
        status, written = await exchange(
            reader, writer, Request(head, (body[:at], digits, body[at + len(digits):])), rid)
        label = f"upload {counter}"
        if checker.status(label, status) and reference is not None:
            checker.body(label, written, reference)
        status, registered = await exchange(
            reader, writer, Request(register_head, (register.replace(PLACEHOLDER, digits),)),
            rid)
        if checker.status(label, status):
            response = env["codec"].decode_response(registered)
            # Registration answers carry timestamps, so they are checked by
            # value rather than against a byte reference.
            entry = None if response.is_fault else response.result
            checker.equal(f"register {counter}",
                          None if entry is None else (entry["size"], entry["checksum"]),
                          (len(self.plane.blobs[index]), self.blob_md5[index]))
        env["written"].append((counter, index))
        return written

    def measure(self, env: dict, seconds: float, checker: Checker,
                recorder: SpanRecorder | None, probes: Probes) -> Window:
        plane = self.plane
        reads_counter = env.setdefault("reads_counter", itertools.count())
        writes_counter = env.setdefault("writes_counter", itertools.count())

        async def run(deadline: int) -> Tally:
            reads, order = env["reads"], plane.read_order

            def check_read(i, status, body):
                index = order[i % len(order)]
                ok = (checker.status(f"read {index}", status)
                      and checker.md5(f"read {index}", body, self.file_md5[index]))
                return ok, len(body), 0

            reader, writer = env["conns"][0]
            reads_loop = pipelined(reader, writer,
                                   lambda i: reads[order[i % len(order)]], check_read,
                                   depth=1, deadline_ns=deadline, counter=reads_counter,
                                   tag="r", kind="read", recorder=recorder)
            writes = self._writes(env, deadline, writes_counter, checker, recorder)
            tallies = await asyncio.gather(reads_loop, writes)
            return tallies[0].merge(tallies[1])

        window = self._window(env, seconds, probes, run,
                              lambda: self._discard_uploads(env))
        self._verify_uploads(env, checker)
        return window

    def _discard_uploads(self, env: dict) -> None:
        """Unlink uploads that will not be verified, so a run's writes do
        not pile up as dirty page cache that the host starts writing back
        mid-run.  The server has already written, hashed and registered
        them; nothing reads them again."""

        written = env["written"]
        for counter, _ in written[env["discarded"]:]:
            if counter % self.keep_every:
                (env["files"] / f"perfbench/up/u{counter:08d}.dat").unlink(missing_ok=True)
        env["discarded"] = len(written)

    async def _writes(self, env: dict, deadline: int, counter, checker: Checker,
                      recorder: SpanRecorder | None) -> Tally:
        tally = Tally()
        order, refs = self.plane.write_order, env["write_refs"]
        clock = time.perf_counter_ns
        while True:
            seq = next(counter)
            index = order[seq % len(order)]
            rid = f"w.{seq}" if recorder is not None else None
            sent = clock()
            await self._upload(env, index, refs[index], rid, checker)
            done = clock()
            tally.add(done - sent, 0, len(self.plane.blobs[index]), "write")
            if recorder is not None:
                recorder.add("loadgen.op", sent, done, rid=rid)
            if done >= deadline:
                return tally

    def _verify_uploads(self, env: dict, checker: Checker) -> None:
        """After the window: a sample of uploads, checked through the
        server's own md5 and the replica catalogue."""

        client = env["clients"][1]
        kept = [(counter, index) for counter, index in env["written"]
                if counter % self.keep_every == 0]
        step = max(1, len(kept) // self.verify_sample)
        for counter, index in kept[::step][:self.verify_sample]:
            pfn = f"/perfbench/up/u{counter:08d}.dat"
            lfn = f"/perfbench/up/lfn{counter:08d}"
            checker.equal(f"file.md5 {pfn}", client.call("file.md5", pfn),
                          self.blob_md5[index])
            entry = client.call("replica.locate", lfn)
            checker.equal(f"replica.locate {lfn}",
                          (entry["size"], entry["checksum"], entry["best"][0]["pfn"]),
                          (len(self.plane.blobs[index]), self.blob_md5[index], pfn))


WORKLOADS = {cls.name: cls for cls in (Fig4Loopback, RpcSocketMix, DataPlaneRW)}
