"""The per-layer ledger: traced spans turned into per-operation metrics,
saved to a file, and two saved ledgers compared.

Every ``*_us`` metric is microseconds per workload operation on the
reference host (:mod:`perfbench.hostspeed`), so the rows of one workload
add up: a layer's self time (its spans minus their child
spans) except where noted.  ``core.handle_http_us`` and the four
``core.<stage>_us`` rows are inclusive stage times; with the codec rows
``protocols.detect_us``, ``protocols.decode_us`` and ``protocols.encode_us``
and ``core.unattributed_us`` (the self time of ``handle_http``) they add up
to ``core.handle_http_us``.  Counts (``*_per_call``) are per operation too.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

from perfbench.spans import aggregate

__all__ = ["PER_LAYER", "per_layer_metrics", "write_ledger", "compare"]

#: (metric, unit) in report order.
PER_LAYER = [
    ("client.encode_us", "us"), ("client.decode_us", "us"),
    ("protocols.detect_us", "us"), ("protocols.decode_us", "us"),
    ("protocols.encode_us", "us"), ("protocols.response_bytes", "bytes"),
    ("httpd.parse_us", "us"), ("httpd.batch_size", "count"),
    ("httpd.executor_wait_us", "us"), ("httpd.write_us", "us"),
    ("httpd.sendfile_share", "ratio"),
    ("core.handle_http_us", "us"), ("core.session_us", "us"), ("core.acl_us", "us"),
    ("core.admission_us", "us"), ("core.invoke_us", "us"),
    ("core.unattributed_us", "us"), ("core.faults_per_call", "count"),
    ("acl.check_method_us", "us"), ("acl.check_file_us", "us"),
    ("vo.is_admin_us", "us"), ("pki.dn_parse_per_call", "count"),
    ("database.reads_per_call", "count"), ("database.writes_per_call", "count"),
    ("database.read_us", "us"), ("database.write_us", "us"),
    ("fileservice.get_us", "us"), ("fileservice.write_us", "us"),
    ("fileservice.vfs_resolve_us", "us"),
    ("replica.resolve_us", "us"), ("replica.register_us", "us"),
    ("replica.register_failures", "count"),
    ("server.cpu_us_per_call", "us"), ("loadgen.cpu_us_per_call", "us"),
    ("loadgen.busy_share", "ratio"), ("gc.pause_ms_per_s", "ms/s"),
    ("trace_overhead_pct", "%"),
]

#: Metrics read straight off one span name's self time.
_SELF = {
    "client.encode_us": "client.encode", "client.decode_us": "client.decode",
    "protocols.detect_us": "protocols.detect", "protocols.decode_us": "protocols.decode",
    "protocols.encode_us": "protocols.encode", "httpd.parse_us": "httpd.parse",
    "core.unattributed_us": "core.handle_http",
    "acl.check_method_us": "acl.check_method", "acl.check_file_us": "acl.check_file",
    "vo.is_admin_us": "vo.is_admin", "database.read_us": "database.read",
    "database.write_us": "database.write", "fileservice.get_us": "fileservice.get",
    "fileservice.write_us": "fileservice.write",
    "fileservice.vfs_resolve_us": "fileservice.vfs_resolve",
    "replica.resolve_us": "replica.resolve", "replica.register_us": "replica.register",
}
#: Metrics read off one span name's inclusive time.
_INCLUSIVE = {
    "httpd.executor_wait_us": "httpd.executor_wait", "httpd.write_us": "httpd.write",
    "core.handle_http_us": "core.handle_http", "core.session_us": "core.session",
    "core.acl_us": "core.acl", "core.admission_us": "core.admission",
    "core.invoke_us": "core.invoke",
}

#: The span every other span of one operation hangs under.
ROOT_SPAN = "loadgen.op"


def _mean(samples: list, name: str) -> float:
    values = [value for key, value in samples if key == name]
    return statistics.fmean(values) if values else 0.0


def per_layer_metrics(untraced, traced) -> tuple[dict[str, float], dict[str, dict]]:
    """The per-layer metrics and the per-span table of one traced run.

    ``untraced`` and ``traced`` are :class:`~perfbench.workloads.Window`
    results of the same workload; process accounting comes from the
    untraced window, so tracing does not inflate it.
    """

    ops = max(1, traced.raw.ops)
    table = aggregate(traced.spans, link_root=ROOT_SPAN)
    events = traced.events
    # Span times are reported on the reference host, like the end-to-end
    # metrics: raw nanoseconds over the window's host factor.
    us_per_op = 1e-3 / ops / traced.factor

    def row(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    metrics: dict[str, float] = {}
    for metric, name in _SELF.items():
        metrics[metric] = row(name, "self_ns") * us_per_op
    for metric, name in _INCLUSIVE.items():
        metrics[metric] = row(name, "total_ns") * us_per_op
    metrics["protocols.response_bytes"] = _mean(traced.samples, "protocols.response_bytes")
    metrics["httpd.batch_size"] = _mean(traced.samples, "httpd.batch_size")
    file_responses = events.get("httpd.file_response", 0)
    metrics["httpd.sendfile_share"] = (traced.sendfile_sends / file_responses
                                       if file_responses else 0.0)
    metrics["core.faults_per_call"] = (events.get("core.fault", 0)
                                       / max(1, events.get("core.call", 0)))
    metrics["pki.dn_parse_per_call"] = events.get("pki.dn_parse", 0) / ops
    metrics["database.reads_per_call"] = row("database.read", "count") / ops
    metrics["database.writes_per_call"] = row("database.write", "count") / ops
    metrics["replica.register_failures"] = row("replica.register", "raised")

    cpu_scale = 1e6 / max(1, untraced.raw.ops) / untraced.factor
    metrics["server.cpu_us_per_call"] = untraced.server_cpu_s * cpu_scale
    metrics["loadgen.cpu_us_per_call"] = untraced.loadgen_cpu_s * cpu_scale
    metrics["loadgen.busy_share"] = untraced.loadgen_cpu_s / untraced.seconds
    metrics["gc.pause_ms_per_s"] = untraced.gc_pause_s * 1e3 / untraced.seconds
    base_rate = untraced.norm.ops / untraced.seconds
    traced_rate = traced.norm.ops / traced.seconds
    metrics["trace_overhead_pct"] = ((base_rate / traced_rate - 1.0) * 100.0
                                     if traced_rate else 0.0)

    spans = {name: {"calls_per_op": data["count"] / ops,
                    "self_us_per_op": data["self_ns"] * us_per_op,
                    "total_us_per_op": data["total_ns"] * us_per_op,
                    "raised": data["raised"]}
             for name, data in sorted(table.items())}
    return metrics, spans


def core_accounting(metrics: dict[str, float]) -> tuple[float, float]:
    """``(core.handle_http_us, sum of its parts)``; the two agree when the
    stage and codec rows cover ``handle_http`` exactly."""

    parts = ("core.session_us", "core.acl_us", "core.admission_us", "core.invoke_us",
             "core.unattributed_us", "protocols.detect_us", "protocols.decode_us",
             "protocols.encode_us")
    return metrics["core.handle_http_us"], sum(metrics[name] for name in parts)


def write_ledger(path: Path, workload: str, entry: dict[str, Any]) -> None:
    """Add (or replace) one workload's traced result in a ledger file."""

    data = {"workloads": {}}
    if path.exists():
        data = json.loads(path.read_text())
    data["workloads"][workload] = entry
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _ratio(base: float, new: float) -> str:
    if base == 0:
        return "n/a (base 0)" if new else "="
    return f"x{new / base:.3f} of {base:.3f}"


def compare(path_a: Path, path_b: Path) -> str:
    """Per workload and layer: self-time deltas of B against A."""

    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    lines = [f"ledger compare: A={path_a}  B={path_b}"]
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            lines.append(f"\n{workload}: only in {'A' if workload in a else 'B'}")
            continue
        ea, eb = a[workload], b[workload]
        lines.append(f"\n{workload}  (A seed {ea['seed']}, {ea['ops']} ops; "
                     f"B seed {eb['seed']}, {eb['ops']} ops)")
        lines.append(f"  {'span self time, us/op':34} {'A':>10} {'B':>10} "
                     f"{'B-A':>10}  B/A with base")
        for name in sorted(set(ea["spans"]) | set(eb["spans"])):
            va = ea["spans"].get(name, {}).get("self_us_per_op", 0.0)
            vb = eb["spans"].get(name, {}).get("self_us_per_op", 0.0)
            lines.append(f"  {name:34} {va:10.3f} {vb:10.3f} {vb - va:+10.3f}  "
                         f"{_ratio(va, vb)}")
        lines.append(f"  {'per-layer metric':34} {'A':>10} {'B':>10} {'B-A':>10}")
        for name, unit in PER_LAYER:
            va, vb = ea["metrics"].get(name, 0.0), eb["metrics"].get(name, 0.0)
            lines.append(f"  {name + ' (' + unit + ')':34} {va:10.3f} {vb:10.3f} "
                         f"{vb - va:+10.3f}  {_ratio(va, vb)}")
    return "\n".join(lines)
