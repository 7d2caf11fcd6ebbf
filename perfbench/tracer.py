"""Timing wrappers on the program's public functions, for the traced run.

:func:`install` replaces each named function with a :class:`SpanRecorder`
wrapper and returns a callable that puts the originals back.  Install
before the server is built: a server captures some bound methods (its
router's handlers) when it is assembled.

The span names are the per-layer ledger's rows:

=========================  ==================================================
span / event               wraps
=========================  ==================================================
client.encode / .decode    ``<codec>.encode_request`` / ``.decode_response``
protocols.detect           ``detect_codec`` as the request pipeline calls it
protocols.decode           ``<codec>.decode_request``
protocols.encode           ``<codec>.encode_response`` and the fragment pair
core.handle_request        ``ClarensServer.handle_request`` (the server root)
core.handle_http           ``RequestPipeline.handle_http``
core.<stage>               ``SessionStage`` ... ``InvokeStage.__call__``
acl.check_method / _file   ``ACLManager.check_method`` / ``.check_file``
vo.is_admin                ``VOManager.is_admin``
database.read / .write     ``Table.get/find/lookup`` / ``insert/put/update/delete``
fileservice.*              ``FileService.handle_get`` / ``.write``,
                           ``VirtualFileSystem.resolve``
replica.resolve / register ``ReplicaBroker.resolve`` / ``ReplicaService.register_replica``
httpd.parse                ``HTTPRequestParser.feed`` / ``.next_request``
httpd.executor_wait        end of a batch's parse to its first ``handle_request``
httpd.write                last handler return of a batch to its last drain
pki.dn_parse (event)       ``DN.parse``
core.call / core.fault     ``RequestPipeline.execute`` results (events)
httpd.file_response        responses whose body is a ``FilePayload`` (event)
=========================  ==================================================
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from perfbench.spans import SpanRecorder

__all__ = ["RID_HEADER", "install"]

#: Benchmark-only request header carrying the generator's request id in
#: traced socket runs; the server ignores headers it does not know.
RID_HEADER = "X-Perfbench-Req"


class _Patcher:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(recorder: SpanRecorder, *, httpd: bool = False) -> Callable[[], None]:
    """Wrap the program's layer entry points; returns the uninstaller.

    ``httpd=True`` also instruments the socket frontend's parser and the
    event loop's drain, which only the socket workloads' server uses.
    """

    from repro.acl.evaluator import ACLManager
    from repro.core import pipeline
    from repro.core.server import ClarensServer
    from repro.database.table import Table
    from repro.fileservice.service import FileService
    from repro.fileservice.vfs import VirtualFileSystem
    from repro.httpd.sendfile import FilePayload
    from repro.pki.dn import DN
    from repro.protocols import BinaryCodec, XMLRPCCodec
    from repro.replica.broker import ReplicaBroker
    from repro.replica.service import ReplicaService
    from repro.vo.model import VOManager

    patch = _Patcher()

    def span(owner, attr: str, name: str) -> None:
        patch.set(owner, attr, recorder.wrap(name, getattr(owner, attr)))

    # The workloads speak XML-RPC (fig4_loopback) and binary (the rest).
    for codec in (XMLRPCCodec, BinaryCodec):
        span(codec, "encode_request", "client.encode")
        span(codec, "decode_response", "client.decode")
        span(codec, "decode_request", "protocols.decode")
        for attr in ("encode_response", "encode_result_fragment",
                     "encode_response_from_fragment"):
            if attr in codec.__dict__:
                span(codec, attr, "protocols.encode")
    span(pipeline, "detect_codec", "protocols.detect")

    span(pipeline.RequestPipeline, "handle_http", "core.handle_http")
    for stage, name in ((pipeline.SessionStage, "core.session"),
                        (pipeline.MethodACLStage, "core.acl"),
                        (pipeline.AdmissionStage, "core.admission"),
                        (pipeline.InvokeStage, "core.invoke")):
        span(stage, "__call__", name)

    execute = pipeline.RequestPipeline.execute

    def counted_execute(self, *args, **kwargs):
        state = execute(self, *args, **kwargs)
        recorder.events.append("core.call")
        if state.response is not None and state.response.is_fault:
            recorder.events.append("core.fault")
        return state

    patch.set(pipeline.RequestPipeline, "execute", counted_execute)

    span(ACLManager, "check_method", "acl.check_method")
    span(ACLManager, "check_file", "acl.check_file")
    span(VOManager, "is_admin", "vo.is_admin")
    parse = DN.__dict__["parse"].__func__
    patch.set(DN, "parse", classmethod(recorder.counted("pki.dn_parse", parse)))
    for attr in ("get", "find", "lookup"):
        span(Table, attr, "database.read")
    for attr in ("insert", "put", "update", "delete"):
        span(Table, attr, "database.write")
    span(FileService, "handle_get", "fileservice.get")
    span(FileService, "write", "fileservice.write")
    span(VirtualFileSystem, "resolve", "fileservice.vfs_resolve")
    span(ReplicaBroker, "resolve", "replica.resolve")
    span(ReplicaService, "register_replica", "replica.register")

    probe = _HttpdProbe(recorder)
    handle = recorder.wrap("core.handle_request", ClarensServer.handle_request)

    def handle_request(self, request):
        rid = request.headers.get(RID_HEADER)
        if rid is None:
            # In-process callers (the loopback workload) already run inside
            # the generator's span on this thread.
            response = handle(self, request)
        else:
            probe.handler_started(rid)
            recorder.rid = rid
            try:
                response = handle(self, request)
            finally:
                recorder.rid = None
                probe.handler_done[rid] = time.perf_counter_ns()
        if isinstance(response.body, FilePayload):
            recorder.events.append("httpd.file_response")
        else:
            recorder.samples.append(("protocols.response_bytes",
                                     response.content_length()))
        return response

    patch.set(ClarensServer, "handle_request", handle_request)
    if httpd:
        probe.install(patch)

    def uninstall() -> None:
        probe.finish_all()
        patch.restore()

    return uninstall


class _HttpdProbe:
    """Batch-level timing of the event-loop frontend.

    The frontend parses every complete request buffered on a connection as
    one batch, runs the batch on an executor thread and answers it with one
    write and drain.  Parser calls and drains run on the loop thread inside
    the connection's task, which identifies the batch; handler calls carry
    the request id header.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: request id -> (parse end ns, first of its batch)
        self.batch_end: dict[str, tuple[int, bool]] = {}
        #: request id -> handler return ns
        self.handler_done: dict[str, int] = {}
        #: connection task -> [request ids of its last batch, last drain end]
        self.task_batch: dict[object, list] = {}

    def handler_started(self, rid: str) -> None:
        parsed = self.batch_end.pop(rid, None)
        if parsed is not None and parsed[1]:
            self.recorder.add("httpd.executor_wait", parsed[0],
                              time.perf_counter_ns(), rid=rid)

    def _finish(self, task) -> None:
        state = self.task_batch.pop(task, None)
        if state is None or state[1] is None:
            return
        rids, drained = state
        done = [self.handler_done.pop(rid) for rid in rids if rid in self.handler_done]
        if done and drained > max(done):
            self.recorder.add("httpd.write", max(done), drained, rid=rids[-1])

    def finish_all(self) -> None:
        for task in list(self.task_batch):
            self._finish(task)

    def install(self, patch: _Patcher) -> None:
        from repro.httpd.message import HTTPRequestParser

        recorder = self.recorder
        spans, clock = recorder.spans, time.perf_counter_ns
        patch.set(HTTPRequestParser, "feed",
                  recorder.wrap("httpd.parse", HTTPRequestParser.feed))
        next_request = HTTPRequestParser.next_request

        def traced_next_request(parser):
            start = clock()
            request = next_request(parser)
            end = clock()
            rid = request.headers.get(RID_HEADER) if request is not None else None
            spans.append((next(recorder.ids), "httpd.parse", start, end, None, rid, False))
            pending = parser.__dict__.setdefault("_perfbench_pending", [])
            if request is not None:
                pending.append(rid)
            elif pending:
                recorder.samples.append(("httpd.batch_size", len(pending)))
                task = asyncio.current_task()
                self._finish(task)
                tagged = [rid for rid in pending if rid is not None]
                for index, rid in enumerate(tagged):
                    self.batch_end[rid] = (end, index == 0)
                self.task_batch[task] = [tagged, None]
                pending.clear()
            return request

        patch.set(HTTPRequestParser, "next_request", traced_next_request)
        drain = asyncio.StreamWriter.drain

        async def traced_drain(writer):
            await drain(writer)
            state = self.task_batch.get(asyncio.current_task())
            if state is not None:
                state[1] = clock()

        patch.set(asyncio.StreamWriter, "drain", traced_drain)
