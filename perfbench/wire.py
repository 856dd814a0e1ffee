"""A tool server in a child process forked from the loaded benchmark.

Forking after the fixtures are loaded, and before any thread starts, keeps
interpreter start-up and imports out of the set-up time. The child serves an
in-process MockBackend through `morevqa.server.start_server`, counts the
requests that reach that backend (probes apart) and, when a tracer was
installed before the fork, records its own spans. Closing the control pipe
stops it; it then writes its counts and span totals back as one JSON object.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

from morevqa.server import start_server
from morevqa.tools import MockBackend

from tracer import Counted, Tracer


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _serve(fixtures, tracer: Tracer | None, ctl_fd: int, out_fd: int) -> None:
    backend = MockBackend(fixtures)
    counted = Counted(backend)
    if tracer is not None:
        tracer.reset()
        tracer.wrap_backend(backend, "server")
    server = start_server(backend)
    os.write(out_fd, f"{server.server_address[1]}\n".encode())
    os.read(ctl_fd, 1)  # returns at EOF, when the parent closes the pipe
    # The parent closed its connection first, so every request has been
    # answered and counted. The sockets close when the process exits, which
    # saves shutdown()'s half-second poll.
    report = {"calls": counted.calls, "probes": counted.probes}
    if tracer is not None:
        tracer.collect()
        report["totals"] = dict(tracer.totals)
    os.write(out_fd, json.dumps(report).encode())


class ForkedServer:
    def __init__(self, fixtures, tracer: Tracer | None) -> None:
        ctl_r, ctl_w = os.pipe()
        out_r, out_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            status = 0
            try:
                os.close(ctl_w)
                os.close(out_r)
                _serve(fixtures, tracer, ctl_r, out_w)
            except BaseException:
                traceback.print_exc()
                status = 1
            finally:
                os._exit(status)
        os.close(ctl_r)
        os.close(out_w)
        self.pid = pid
        self._ctl = ctl_w
        self._out = out_r
        self.report: dict | None = None
        line = b""
        while not line.endswith(b"\n"):
            chunk = os.read(out_r, 1)
            if not chunk:
                self.stop()
                raise RuntimeError("tool server exited before it listened")
            line += chunk
        self.port = int(line)

    def cpu_s(self) -> float:
        """User plus system CPU time of the server so far."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> dict:
        """Stop the child, wait for it and return its report."""
        if self._ctl is not None:
            os.close(self._ctl)
            self._ctl = None
            data = _read_all(self._out)
            os.close(self._out)
            _, status = os.waitpid(self.pid, 0)
            if status != 0 or not data:
                raise RuntimeError(f"tool server failed (wait status {status})")
            self.report = json.loads(data)
        return self.report
