"""Process accounting read from ``/proc`` and the garbage collector.

These are the generator-validity numbers: a run whose generator keeps its
core busy measures the generator, not the server.
"""

from __future__ import annotations

import gc
import os
import time

__all__ = ["cpu_seconds", "peak_rss_mb", "GCPauseMeter"]

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int | None = None) -> float:
    """User plus system CPU seconds used so far by process ``pid``."""

    with open(f"/proc/{pid or os.getpid()}/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    # Fields after "comm)": state is index 0, utime 11, stime 12.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int | None = None) -> float:
    """High-water resident set size (VmHWM) of process ``pid``, in MiB."""

    with open(f"/proc/{pid or os.getpid()}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class GCPauseMeter:
    """Total time the collector ran, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.paused_s = 0.0
        self.collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.paused_s += time.perf_counter() - self._started
            self.collections += 1

    def start(self) -> "GCPauseMeter":
        gc.callbacks.append(self._callback)
        return self

    def stop(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)

    def reset(self) -> None:
        self.paused_s = 0.0
        self.collections = 0
