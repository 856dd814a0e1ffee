"""Newline-delimited JSON server exposing a backend over TCP.

One request object per line, one response object per line, both UTF-8, read
and written by the line codec in `tools`. Every line gets one response: a
line that `read_request` refuses (a blank one too) or one longer than
`MAX_LINE_BYTES` an `invalid:`-prefixed error, and an exception raised by the
backend a `backend:`-prefixed one; either way the connection stays open.
"""

from __future__ import annotations

import socketserver
import threading

from .tools import MAX_LINE_BYTES, RequestLineError, ToolResponse, encode_line, read_request


def _reply_line(backend, line: bytes) -> bytes:
    """The one response line to one request line, given without its newline."""
    try:
        req = read_request(line)
    except RequestLineError as exc:
        return encode_line(ToolResponse(exc.id, ok=False, error=f"invalid: {exc}"))
    try:
        return encode_line(backend.dispatch(req))
    except Exception as exc:  # a backend fault must not drop the connection
        error = f"backend: {type(exc).__name__}: {exc}"
        return encode_line(ToolResponse(req.id, ok=False, error=error))


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while line := self.rfile.readline(MAX_LINE_BYTES):
            if len(line) == MAX_LINE_BYTES and not line.endswith(b"\n"):
                while line and not line.endswith(b"\n"):  # skip the rest of the line
                    line = self.rfile.readline(MAX_LINE_BYTES)
                error = f"invalid: request line longer than {MAX_LINE_BYTES} bytes"
                reply = encode_line(ToolResponse(0, ok=False, error=error))
            else:
                # without its newline, a line reads as it does in a recording
                reply = _reply_line(self.server.backend, line.removesuffix(b"\n"))
            self.wfile.write(reply)
            self.wfile.flush()


class ToolServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], backend):
        super().__init__(address, _Handler)
        self.backend = backend


def start_server(backend, host: str = "127.0.0.1", port: int = 0) -> ToolServer:
    """Start a server thread; the caller owns shutdown()."""
    server = ToolServer((host, port), backend)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def parse_listen_address(listen: str) -> tuple[str, int]:
    host, _, port_text = listen.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"listen address must be HOST:PORT, got {listen!r}")
    return host, int(port_text)
