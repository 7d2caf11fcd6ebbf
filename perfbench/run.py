"""Run the repository benchmark.

    python3 perfbench/run.py --workload fig4_loopback --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all                 # every workload, untraced
    python3 perfbench/run.py --workload rpc_socket_mix --trace 1 --ledger a.json
    python3 perfbench/run.py --compare a.json b.json

An untraced run sets the workload up several times (``setup_s`` is the
median), measures one window and prints the end-to-end metrics.  A traced
run measures an untraced and a traced window of half the length each and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import ledger, tracer  # noqa: E402
from perfbench.checks import Checker  # noqa: E402
from perfbench.hostspeed import Probes  # noqa: E402
from perfbench.inputs import DEFAULT_SEED  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import LOADGEN_CPU, SERVER_CPU, WORKLOADS, Window  # noqa: E402

#: (metric, unit) of the untraced run, in report order.
END_TO_END = [("calls_per_s", "1/s"), ("p50_ms", "ms"), ("p99_ms", "ms"),
              ("read_mb_per_s", "MB/s"), ("write_mb_per_s", "MB/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5
#: An untraced window is cut into as many segments as give each at least
#: this many operations (at most one per slice); each end-to-end metric is
#: the median of its per-segment values.  1000 operations leave ten beyond
#: a segment's 99th percentile.
SEGMENT_OPS = 1000
#: loadgen.busy_share above this means the generator, not the server, was
#: the bottleneck.
SATURATED = 0.9


#: Seconds of host-speed probe before and after each set-up.
SETUP_PROBE_S = 0.1


def _setup(workload, workdir: Path, traced: bool,
           probes: Probes) -> tuple[dict, float, float]:
    """Set up once; returns the environment and the raw and host-normalised
    set-up seconds."""

    before = probes.probe(SETUP_PROBE_S)
    start = time.perf_counter()
    env = workload.setup(workdir, traced=traced)
    took = time.perf_counter() - start
    after = probes.probe(SETUP_PROBE_S)
    # Set-up alternates between the sides, so both weigh the same.
    speeds = list(before.values()) + list(after.values())
    return env, took, took * sum(speeds) / len(speeds)


def end_to_end(tally, seconds: float, setup_s: float, rss_mb: float) -> dict[str, float]:
    return {
        "calls_per_s": tally.ops / seconds,
        "p50_ms": tally.percentile_ms(0.5),
        "p99_ms": tally.percentile_ms(0.99),
        "read_mb_per_s": tally.read_bytes / 1e6 / seconds,
        "write_mb_per_s": tally.write_bytes / 1e6 / seconds,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def _columns(rows) -> dict[str, list[float]]:
    columns: dict[str, list[float]] = {}
    for row in rows:
        for name, value in row.items():
            columns.setdefault(name, []).append(value)
    return columns


def _validity(workload, window: Window) -> None:
    """Generator-validity accounting, printed on every run."""

    busy = window.loadgen_cpu_s / window.seconds
    ops = max(1, window.raw.ops)
    print(f"  generator (raw): loadgen.busy_share={busy:.3f} "
          f"loadgen.cpu_us_per_call={window.loadgen_cpu_s * 1e6 / ops:.1f} "
          f"server.cpu_us_per_call={window.server_cpu_s * 1e6 / ops:.1f} "
          f"peak_rss_mb={window.peak_rss_mb:.1f} "
          f"gc.pause_ms_per_s={window.gc_pause_s * 1e3 / window.seconds:.2f}")
    if workload.in_process:
        print(f"  note: {workload.name} runs client and server on one thread by "
              f"design; busy_share near 1 is expected there")
    elif busy > SATURATED:
        print(f"  WARNING: the generator kept its core {busy:.0%} busy; this run "
              f"measures the client, not the server")


def run_untraced(workload, workdir: Path, seconds: float, checker: Checker,
                 probes: Probes) -> tuple[dict, dict]:
    """The end-to-end metrics, and the audit record of their host scaling."""

    raw_setups: list[float] = []
    norm_setups: list[float] = []
    env = None
    for index in range(SETUPS):
        env, raw, norm = _setup(workload, workdir / f"setup{index}", traced=False,
                                probes=probes)
        raw_setups.append(raw)
        norm_setups.append(norm)
        if index < SETUPS - 1:
            workload.teardown(env)
    try:
        window = workload.measure(env, seconds, checker, None, probes)
    finally:
        workload.teardown(env)
    # Each metric is the median over segments of the window, so a stretch
    # in which the host stalled the benchmark does not set the result.
    count = max(1, min(len(window.slices), int(window.raw.ops) // SEGMENT_OPS))
    parts = window.segments(count)
    norm = {name: statistics.median(values) for name, values in _columns(
        end_to_end(n, took, statistics.median(norm_setups), window.peak_rss_mb)
        for _, n, took in parts).items()}
    raw = {name: statistics.median(values) for name, values in _columns(
        end_to_end(r, took, statistics.median(raw_setups), window.peak_rss_mb)
        for r, _, took in parts).items()}
    samples = len(window.raw.latencies_ns)
    print(f"  host factor {window.factor:.3f} (reference speed / measured speed, "
          f"probed on each side's CPU); values are on the reference host, raw "
          f"values in brackets; medians of {count} segments")
    if workload.raw_kinds:
        print(f"  operations reported as measured in every metric: "
              f"{', '.join(sorted(workload.raw_kinds))}")
    for name, unit in END_TO_END:
        note = {"setup_s": f"median of {SETUPS} set-ups",
                "peak_rss_mb": ("benchmark process" if workload.in_process
                                else "server process")}.get(name, f"n={samples}")
        print(f"  {name:16} {norm[name]:14.4f} {unit:5} [{raw[name]:12.4f}] ({note})")
    print(f"  {'error_rate':16} {checker.failed / max(1, checker.checked):14.4f} "
          f"      ({checker.failed} failed / {checker.checked} checked)")
    _validity(workload, window)
    audit = {"host_factor": window.factor, "slice_factors": [f for _, _, f in window.slices],
             "probe_speed_medians": {side: statistics.median(speeds)
                                     for side, speeds in probes.speeds.items()},
             "raw_kinds": sorted(workload.raw_kinds), "raw_metrics": raw}
    return norm, audit


def run_traced(workload, workdir: Path, seconds: float, checker: Checker,
               probes: Probes, ledger_path: Path | None) -> tuple[dict, dict]:
    half = seconds / 2
    env, _, _ = _setup(workload, workdir / "untraced", traced=False, probes=probes)
    try:
        untraced = workload.measure(env, half, checker, None, probes)
    finally:
        workload.teardown(env)

    recorder = SpanRecorder()
    # A socket workload's server installs the wrappers in its own process.
    uninstall = tracer.install(recorder) if workload.in_process else None
    try:
        env, _, _ = _setup(workload, workdir / "traced", traced=True, probes=probes)
        traced = None
        try:
            recorder.reset()
            traced = workload.measure(env, half, checker, recorder, probes)
            traced.spans.extend(recorder.spans)
            traced.events.update(recorder.events)
            traced.samples.extend(recorder.samples)
        finally:
            workload.teardown(env, traced)
    finally:
        if uninstall is not None:
            uninstall()

    metrics, spans = ledger.per_layer_metrics(untraced, traced)
    metrics = {name: metrics[name] for name, _ in ledger.PER_LAYER}
    units = dict(ledger.PER_LAYER)
    for name, unit in ledger.PER_LAYER:
        print(f"  {name:28} {metrics[name]:12.3f} {unit}")
    total, parts = ledger.core_accounting(metrics)
    print(f"  core accounting: handle_http {total:.3f} us/op = stages + codec + "
          f"unattributed {parts:.3f} us/op")
    print(f"  traced ops {traced.raw.ops}, spans {len(traced.spans)}, host factor "
          f"{traced.factor:.3f}")
    _validity(workload, untraced)
    if ledger_path is not None:
        ledger.write_ledger(ledger_path, workload.name, {
            "seed": workload.seed, "seconds": seconds, "ops": traced.raw.ops,
            "metrics": metrics, "units": units, "spans": spans})
        print(f"  ledger written to {ledger_path}")
    return metrics, {"host_factor": traced.factor, "untraced_host_factor": untraced.factor,
                     "probe_speed_medians": {side: statistics.median(speeds)
                                             for side, speeds in probes.speeds.items()}}


def run_one(name: str, seed: int, seconds: float, trace: bool,
            ledger_path: Path | None) -> dict:
    workload = WORKLOADS[name](seed)
    print(f"perfbench {name}: seed={seed} (default {DEFAULT_SEED}) seconds={seconds} "
          f"trace={int(trace)}")
    print(f"  inputs: {json.dumps(workload.describe_inputs(), sort_keys=True)}")
    workdir_root = ROOT / ".perfbench-work"
    workdir_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=workdir_root))
    # Whatever the program puts in temporary directories stays in the checkout.
    (workdir / "tmp").mkdir()
    saved_tempdir, tempfile.tempdir = tempfile.tempdir, str(workdir / "tmp")
    checker = Checker()
    # The generator runs on its CPU; threads started later inherit the pin.
    os.sched_setaffinity(0, {LOADGEN_CPU})
    probes = Probes({"loadgen": LOADGEN_CPU} if workload.in_process
                    else {"loadgen": LOADGEN_CPU, "server": SERVER_CPU})
    try:
        if trace:
            metrics, audit = run_traced(workload, workdir, seconds, checker, probes,
                                        ledger_path)
            units = dict(ledger.PER_LAYER)
        else:
            metrics, audit = run_untraced(workload, workdir, seconds, checker, probes)
            units = dict(END_TO_END)
    finally:
        probes.close()
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir_root.rmdir()
        except OSError:
            pass                        # another run is still using it
    for problem in checker.problems:
        print(f"  FAILED CHECK: {problem}")
    # The host scaling behind the figures, so anyone can audit it.
    print(json.dumps({"audit": {"workload": name, **audit}}))
    return {"correct": checker.correct and checker.checked > 0,
            "attempted": checker.checked, "failed": checker.failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()}}


def _terminate(signum, frame) -> None:
    # Unwind through the finally blocks: they stop the server child and
    # remove the run's scratch directory.
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", type=Path,
                        help="with --trace 1: add this run's per-layer ledger to FILE")
    parser.add_argument("--all", action="store_true",
                        help="run every workload (untraced unless --trace 1)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="print per-layer self-time deltas of ledger B against A")
    args = parser.parse_args(argv)

    if args.compare:
        print(ledger.compare(*args.compare))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace),
                                 args.ledger)
                   for name in WORKLOADS}
        correct = all(result["correct"] for result in results.values())
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "metrics": {f"{name}.{key}": value
                                      for name, result in results.items()
                                      for key, value in result["metrics"].items()}}))
        return 0 if correct else 1
    if args.workload is None:
        parser.error("--workload, --all or --compare is required")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.ledger)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
