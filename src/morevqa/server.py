"""Newline-delimited JSON server exposing a backend over TCP.

One request object per line, one response object per line, both UTF-8.
Malformed lines, lines that are not UTF-8, and lines longer than
`MAX_LINE_BYTES` produce an `invalid:`-prefixed error response, and an
exception raised by the backend a `backend:`-prefixed one; either way the
connection stays open.
"""

from __future__ import annotations

import json
import socketserver
import threading

from .tools import _JSON_ERRORS, MAX_LINE_BYTES, ToolRequest, ToolResponse


def _line(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def _invalid_line(req_id: int, why: str) -> bytes:
    return _line({"id": req_id, "ok": False, "result": None, "error": f"invalid: {why}"})


def _reply_line(backend, text: str) -> bytes:
    """The one response line to one request line."""
    req_id = 0
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("request must be a JSON object")
        if type(obj.get("id")) is int:
            req_id = obj["id"]
        req = ToolRequest.from_json_dict(obj)
    except _JSON_ERRORS as exc:
        return _invalid_line(req_id, f"bad request line ({exc})")
    try:
        return _line(backend.dispatch(req).to_json_dict())
    except Exception as exc:  # a backend fault must not drop the connection
        error = f"backend: {type(exc).__name__}: {exc}"
        return _line(ToolResponse(req.id, ok=False, error=error).to_json_dict())


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while True:
            line = self.rfile.readline(MAX_LINE_BYTES)
            if not line:
                return
            if len(line) == MAX_LINE_BYTES and not line.endswith(b"\n"):
                while line and not line.endswith(b"\n"):  # skip the rest of the line
                    line = self.rfile.readline(MAX_LINE_BYTES)
                reply = _invalid_line(0, f"request line longer than {MAX_LINE_BYTES} bytes")
            else:
                try:
                    text = line.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    reply = _invalid_line(0, f"request line is not UTF-8 ({exc})")
                else:
                    if not text:
                        continue
                    reply = _reply_line(self.server.backend, text)
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
