"""Host-speed probe, interleaved with the timed work.

The benchmark shares its machine with other tenants, and how fast a core
runs Python changes by tens of percent from one second to the next.  Each
timed window is therefore cut into short load slices with a brief probe
before and after each one.  The probe times a fixed pure-Python kernel
(dict, string, tuple and sort work, like the request pipeline's) and
returns the host's *speed*: 1.0 on the reference host, 0.5 on one that runs
the kernel at half the rate.  A slice's rates are divided by the mean speed
around it and its times multiplied by it, which reports every workload as
if it ran on the reference host.  The raw figures are printed beside the
normalised ones.

The probe never runs in a process that holds program code.  :class:`Probes`
starts one small process beside each side of the workload, pinned to that
side's CPU, that imports nothing but this module and sits idle between
probes; while it probes, the workload is paused.  Work the program does in
background threads therefore shares the CPUs with the probe like any other
tenant's, and never competes for the probe's interpreter lock.  Run as a
script (``hostspeed.py <cpu>``), this module is such a process: it reads a
duration per line on stdin and answers the speed measured over it.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["REFERENCE_RATE", "probe", "Probes"]

#: Kernel iterations per second of the reference host (roughly an idle
#: core of a 2.1 GHz x86-64 cloud instance running CPython 3.11).
REFERENCE_RATE = 40_000.0


def _kernel() -> None:
    table = {}
    for i in range(50):
        key = "key%d" % i
        table[key] = [i, key.upper(), (i, key)]
    sorted(table.items(), key=lambda item: item[1][1])


def probe(seconds: float) -> float:
    """The host's speed relative to the reference host, over ``seconds``.

    The collector is paused so that a collection is never charged to the
    probe (the kernel creates no reference cycles).
    """

    enabled = gc.isenabled()
    gc.disable()
    try:
        clock = time.perf_counter
        start = clock()
        end = start + seconds
        count = 0
        while True:
            _kernel()
            count += 1
            now = clock()
            if now >= end:
                return count / (now - start) / REFERENCE_RATE
    finally:
        if enabled:
            gc.enable()


class Probes:
    """One probe process beside each side of the workload, on that side's CPU.

    ``cpus`` maps each side (``loadgen``, ``server``) to the CPU that side
    is pinned to; the side's probe process pins itself there.  The
    processes are started with an isolated interpreter (``-I``: no
    ``PYTHONPATH``, no script directory on the path), so they cannot import
    the program.  :meth:`probe` runs the sides' probes one after the other,
    so each reads its CPU as that side meets it rather than as two probes
    competing for a host whose vCPUs share a physical core.  Every reading
    is kept in :attr:`speeds` for the run's audit line.
    """

    def __init__(self, cpus: dict[str, int], timeout: float = 30.0) -> None:
        self.timeout = timeout
        self.speeds: dict[str, list[float]] = {side: [] for side in cpus}
        self.procs: dict[str, subprocess.Popen] = {}
        try:
            for side, cpu in cpus.items():
                self.procs[side] = subprocess.Popen(
                    [sys.executable, "-I", str(Path(__file__).resolve()), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        except BaseException:
            self.close()
            raise

    def probe(self, seconds: float) -> dict[str, float]:
        """Each side's speed over ``seconds``, probed in turn."""

        for side, proc in self.procs.items():
            proc.stdin.write(f"{seconds}\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"{side} probe process exited (code {proc.poll()})")
            self.speeds[side].append(float(line))
        return {side: speeds[-1] for side, speeds in self.speeds.items()}

    def close(self) -> None:
        """Stop every probe process and wait for it to end."""

        for proc in self.procs.values():
            try:
                proc.stdin.close()              # end of input: the process exits
                proc.wait(timeout=self.timeout)
            except (OSError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = {}


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for line in sys.stdin:
        sys.stdout.write(f"{probe(float(line))!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
