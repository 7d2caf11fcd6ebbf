"""The socket workloads' server process, and the launcher that runs it.

Run as a script, this module is the server: it creates a CA, a host
credential and one user credential per generator connection, builds a
paper-mode :class:`ClarensServer` on the event-loop frontend, prints one JSON
line (URL, pid, user credentials as PEM) and then answers one-line commands
on stdin:

``mark``   start of the timed window: reset the GC meter and drop spans
           recorded during set-up;
``stats``  end of the window: GC pause and sendfile counts since ``mark``;
``stop``   stop serving, write the spans (traced runs) and exit.

With ``--trace`` the timing wrappers are installed before the server is
built.  :class:`ServerProcess` is the parent side.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

__all__ = ["ServerProcess", "make_pki", "paper_config"]

ADMIN_DN = "/O=perfbench/OU=People/CN=Perfbench Admin"


def make_pki(seed: int, users: int):
    """A CA, a host credential and ``users`` user credentials.

    Keys come from a generator seeded like every other input, so each
    set-up searches for the same primes and set-up time does not depend on
    how lucky the prime search was.
    """

    from perfbench.inputs import rng_for
    from repro.pki.authority import CertificateAuthority

    ca = CertificateAuthority("/O=perfbench/CN=Perfbench CA", key_bits=512,
                              rng=rng_for("pki", seed))
    host = ca.issue_host("server.perfbench")
    return ca, host, [ca.issue_user(f"Perfbench User {i}") for i in range(users)]


def paper_config(workdir: Path, host_dn: str, **overrides):
    """Paper mode: telemetry and caches off, two access checks per request,
    XML-RPC by default with the binary codec negotiable."""

    from repro.core.config import ServerConfig

    return ServerConfig(server_name="perfbench", host_dn=host_dn, admins=[ADMIN_DN],
                        file_root=str(workdir / "files"),
                        shell_root=str(workdir / "sandboxes"), **overrides)


class ServerProcess:
    """Starts the server child and talks to it over its stdin/stdout."""

    def __init__(self, root: Path, workdir: Path, *, seed: int, users: int, trace: bool,
                 cpu: int, timeout: float = 60.0) -> None:
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        env["TMPDIR"] = str(workdir / "tmp")
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workdir", str(workdir), "--seed", str(seed), "--users", str(users),
                   "--cpu", str(cpu)]
        if trace:
            command.append("--trace")
        self.timeout = timeout
        self._buffer = b""
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=str(root), env=env)
        try:
            hello = json.loads(self._readline())
        except BaseException:
            self.kill()
            raise
        self.url: str = hello["url"]
        self.pid: int = hello["pid"]
        self.user_pems: list[str] = hello["users"]

    def _readline(self) -> str:
        deadline = time.monotonic() + self.timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server process did not answer in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RuntimeError(
                        f"server process exited (code {self.proc.poll()})")
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def send(self, name: str) -> None:
        self.proc.stdin.write(name.encode() + b"\n")
        self.proc.stdin.flush()

    def reply(self) -> dict:
        return json.loads(self._readline())

    def command(self, name: str) -> dict:
        self.send(name)
        return self.reply()

    def stop(self) -> dict:
        """Stop the server; returns its final report (span file path)."""

        try:
            report = self.command("stop")
            self.proc.wait(timeout=self.timeout)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--users", type=int, default=2)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    # Pinned before any thread starts, so every server thread inherits it.
    os.sched_setaffinity(0, {args.cpu})

    from perfbench.procstat import GCPauseMeter

    recorder = uninstall = None
    if args.trace:
        from perfbench.spans import SpanRecorder
        from perfbench.tracer import install

        recorder = SpanRecorder()
        uninstall = install(recorder, httpd=True)
    gc_meter = GCPauseMeter().start()

    from repro.core.server import ClarensServer

    ca, host, users = make_pki(args.seed, args.users)
    config = paper_config(workdir, str(host.certificate.subject),
                          server_transport="async")
    server = ClarensServer(config, credential=host, trust_store=ca.trust_store())
    frontend = server.frontend()
    frontend.start()
    _reply({"url": frontend.url, "pid": os.getpid(),
            "users": [user.to_pem() for user in users]})

    sendfile_base = 0
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                gc_meter.reset()
                sendfile_base = frontend.sendfile_sends
                if recorder is not None:
                    recorder.reset()
                _reply({})
            elif command == "stats":
                _reply({"gc_pause_s": gc_meter.paused_s,
                        "gc_collections": gc_meter.collections,
                        "sendfile_sends": frontend.sendfile_sends - sendfile_base})
            elif command == "stop":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        frontend.stop()
        report: dict = {}
        if recorder is not None:
            uninstall()
            path = workdir / "server-spans.json"
            with open(path, "w") as fh:
                json.dump({"spans": recorder.spans,
                           "events": Counter(recorder.events),
                           "samples": recorder.samples}, fh)
            report["spans"] = str(path)
        gc_meter.stop()
        server.close()
        _reply(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
