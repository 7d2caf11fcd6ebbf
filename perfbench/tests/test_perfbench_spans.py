"""Self-time arithmetic and span recording."""

from __future__ import annotations

import pytest

from perfbench.spans import SpanRecorder, aggregate, covered_ns, self_times


def test_covered_merges_overlaps_and_clips():
    # [10,30] and [20,50] overlap -> [10,50]; [90,120] is clipped to [90,100];
    # [200,300] lies outside the parent.
    assert covered_ns(0, 100, [(10, 30), (20, 50), (90, 120), (200, 300)]) == 50
    assert covered_ns(0, 100, []) == 0


def test_self_time_on_hand_built_tree():
    spans = [
        # sid, name, start, end, parent, rid, raised
        (1, "loadgen.op", 0, 1000, None, "a", False),
        (2, "client.encode", 10, 60, 1, "a", False),
        # Server spans from another process: no parent, linked by request id.
        (10, "core.handle_request", 100, 700, None, "a", False),
        (11, "core.handle_http", 150, 650, 10, "a", False),
        (12, "core.session", 200, 260, 11, "a", False),
        (13, "database.read", 210, 240, 12, "a", False),
        (14, "core.invoke", 300, 600, 11, "a", False),
        # Overlaps handle_request inside the op span: counted once.
        (15, "httpd.write", 650, 800, None, "a", False),
        # Another operation's span must not attach to op "a".
        (20, "core.handle_request", 0, 50, None, "b", False),
    ]
    selfs = self_times(spans, link_root="loadgen.op")
    # op: 1000 minus the union of [10,60] and [100,800].
    assert selfs[1] == 1000 - 50 - 700
    assert selfs[10] == 600 - 500
    assert selfs[11] == 500 - 60 - 300
    assert selfs[12] == 60 - 30
    assert selfs[13] == 30
    assert selfs[14] == 300
    assert selfs[20] == 50

    table = aggregate(spans, link_root="loadgen.op")
    assert table["core.handle_request"]["count"] == 2
    assert table["core.handle_request"]["self_ns"] == 100 + 50
    assert table["core.handle_http"]["total_ns"] == 500
    # Self times of one operation add back up to its root's duration, except
    # that overlapping siblings (handle_request and httpd.write share
    # [650, 700]) each keep the overlap.
    assert sum(selfs[sid] for sid in (1, 2, 10, 11, 12, 13, 14, 15)) == 1000 + 50


def test_recorder_nests_spans_per_thread_and_flags_raises():
    recorder = SpanRecorder()

    def inner():
        return 42

    def failing():
        raise ValueError("boom")

    wrapped_inner = recorder.wrap("inner", inner)
    wrapped_failing = recorder.wrap("failing", failing)
    with recorder.span("loadgen.op", rid="7"):
        assert wrapped_inner() == 42
        with pytest.raises(ValueError):
            wrapped_failing()
    spans = {span[1]: span for span in recorder.spans}
    root = spans["loadgen.op"]
    assert root[4] is None and root[5] == "7"
    assert spans["inner"][4] == root[0] and spans["inner"][5] == "7"
    assert spans["failing"][6] is True and spans["inner"][6] is False
    assert recorder.rid is None


def test_counted_wrapper_records_events():
    recorder = SpanRecorder()
    double = recorder.counted("double", lambda x: 2 * x)
    assert [double(i) for i in range(3)] == [0, 2, 4]
    assert recorder.events == ["double"] * 3
    recorder.reset()
    assert recorder.events == [] and recorder.spans == []
