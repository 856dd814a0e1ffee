from __future__ import annotations

import json
import socket
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from morevqa.harness import load_dataset, run_eval
from morevqa.server import _reply_line, parse_listen_address, start_server
from morevqa.tools import METHODS, RemoteBackend, ToolRequest


class CountingBackend:
    """Passes requests to an inner backend and keeps the ones that reach it."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def dispatch(self, req):
        self.requests.append(req)
        return self.inner.dispatch(req)

    def probes(self):
        # run_eval's liveness probe: a caption request with no video id
        return [r for r in self.requests if r.method == "caption" and r.video_id is None]


@pytest.fixture()
def server(mock_backend):
    srv = start_server(mock_backend)
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture()
def counted_server(mock_backend):
    counting = CountingBackend(mock_backend)
    srv = start_server(counting)
    yield srv, counting
    srv.shutdown()
    srv.server_close()


def _addr(server):
    host, port = server.server_address[:2]
    return host, port


def test_remote_matches_in_process(server, mock_backend):
    host, port = _addr(server)
    remote = RemoteBackend(host, port)
    requests = [
        ToolRequest(1, "caption", "v000", 3),
        ToolRequest(2, "score", "v000", 3, {"text": "grey cat"}),
        ToolRequest(3, "localize", "v000", None, {"object": "cat", "frames": list(range(32))}),
        ToolRequest(4, "verify_action", "v000", 3, {"action": "anything"}),
        ToolRequest(5, "caption", "v000", 99),  # backend error passes through
    ]
    for req in requests:
        assert remote.dispatch(req) == mock_backend.dispatch(req)
    remote.close()


def test_malformed_line_keeps_connection_open(server):
    host, port = _addr(server)
    sock = socket.create_connection((host, port), timeout=5)
    fh = sock.makefile("rwb")
    fh.write(b"this is not json\n")
    fh.flush()
    reply = json.loads(fh.readline())
    assert reply["ok"] is False
    assert reply["error"].startswith("invalid:")
    # the same connection still serves valid requests
    fh.write((json.dumps(ToolRequest(7, "caption", "v000", 1).to_json_dict()) + "\n").encode())
    fh.flush()
    reply = json.loads(fh.readline())
    assert reply["ok"] is True and reply["id"] == 7
    sock.close()


def test_concurrent_clients_get_matching_ids(server):
    host, port = _addr(server)
    errors = []

    def worker(offset):
        try:
            remote = RemoteBackend(host, port)
            for i in range(20):
                req_id = offset * 1000 + i
                resp = remote.dispatch(ToolRequest(req_id, "caption", "v000", i % 32))
                assert resp.id == req_id, (resp.id, req_id)
                assert resp.ok
            remote.close()
        except Exception as exc:  # surface across the thread boundary
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_transport_error_reported():
    remote = RemoteBackend("127.0.0.1", 1, timeout_s=0.5)  # nothing listens there
    resp = remote.dispatch(ToolRequest(1, "caption", "v000", 0))
    assert not resp.ok and resp.error.startswith("transport:")


def test_parse_listen_address():
    assert parse_listen_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    with pytest.raises(ValueError):
        parse_listen_address("no-port")


def test_grid_over_wire_asks_each_distinct_request_once(counted_server, mock_backend,
                                                        run_grid, tmp_path):
    srv, counting = counted_server
    remote = RemoteBackend(*_addr(srv))
    try:
        wire = run_grid(remote, tmp_path / "wire")
    finally:
        remote.close()
    probes = counting.probes()
    assert len(probes) == 8  # one per evaluation, never answered from memory
    # 4424 tool calls, of which 1489 distinct ok replies and 27 backend errors
    assert len(counting.requests) - len(probes) == 1516
    assert wire == run_grid(mock_backend, tmp_path / "mock")


def test_store_hit_answers_with_callers_id(counted_server, mock_backend):
    srv, counting = counted_server
    remote = RemoteBackend(*_addr(srv))
    first = remote.dispatch(ToolRequest(1, "caption", "v000", 3))
    again = remote.dispatch(ToolRequest(2, "caption", "v000", 3))
    remote.close()
    assert len(counting.requests) == 1
    assert again == mock_backend.dispatch(ToolRequest(2, "caption", "v000", 3))
    assert first.result == again.result


def test_error_replies_are_not_stored(counted_server, mock_backend):
    srv, counting = counted_server
    remote = RemoteBackend(*_addr(srv))
    requests = [
        ToolRequest(1, "caption", "v000", 99),  # backend error
        ToolRequest(2, "caption", "v000", None),  # invalid
        ToolRequest(3, "caption", "v000", 1),
        ToolRequest(4, "caption", "v000", True),  # invalid, not frame 1
    ]
    for _ in range(2):
        for req in requests:
            assert remote.dispatch(req) == mock_backend.dispatch(req)
    remote.close()
    assert [r.id for r in counting.requests] == [1, 2, 3, 4, 1, 2, 4]


def test_probe_reaches_server_on_every_eval(counted_server, oracle_bundle, oracle_dir):
    srv, counting = counted_server
    remote = RemoteBackend(*_addr(srv))
    items = load_dataset(oracle_dir / "dataset.jsonl")[:2]
    for _ in range(3):
        run_eval(items, "morevqa", remote, oracle_bundle.fixtures)
    remote.close()
    assert len(counting.probes()) == 3


def test_backend_exception_keeps_connection_open():
    class Raising:
        def dispatch(self, req):
            raise RuntimeError("boom")

    srv = start_server(Raising())
    try:
        remote = RemoteBackend(*_addr(srv))
        for req_id in (1, 2):
            resp = remote.dispatch(ToolRequest(req_id, "caption", "v000", 0))
            assert resp.id == req_id
            assert resp.error == "backend: RuntimeError: boom"
        remote.close()
    finally:
        srv.shutdown()
        srv.server_close()


@pytest.mark.parametrize("req_id", [7, 1.9, 1.0, True, "7", None, [1]])
def test_reply_carries_only_an_id_that_was_sent(mock_backend, req_id):
    line = json.dumps({"id": req_id, "method": "caption", "video_id": "v000", "frame_id": 1})
    reply = json.loads(_reply_line(mock_backend, line))
    if type(req_id) is int:
        assert reply["id"] == req_id and reply["ok"] is True
    else:
        assert reply["id"] == 0 and reply["error"].startswith("invalid:")


def test_wrong_typed_fields_get_invalid_reply(server):
    sock = socket.create_connection(_addr(server), timeout=5)
    fh = sock.makefile("rwb")
    for frame_id in ('"3"', "true", "[3]", "3.0", "1e400"):
        fh.write(b'{"id": 1, "method": "caption", "video_id": "v000", "frame_id": %s}\n'
                 % frame_id.encode())
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["id"] == 1 and reply["error"].startswith("invalid:"), frame_id
    for line in (b'{"id": 1e400, "method": "caption"}', b"[" * 100000 + b"]" * 100000):
        fh.write(line + b"\n")
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["id"] == 0 and reply["error"].startswith("invalid:")
    sock.close()


def test_shared_client_under_thread_contention(server, mock_backend):
    remote = RemoteBackend(*_addr(server))
    requests = [ToolRequest(0, "caption", "v000", f % 8) for f in range(40)]
    errors = []

    def worker(offset):
        try:
            for i, req in enumerate(requests):
                req = ToolRequest(offset * 1000 + i, req.method, req.video_id, req.frame_id)
                assert remote.dispatch(req) == mock_backend.dispatch(req)
        except Exception as exc:  # surface across the thread boundary
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        remote.close()
    assert not any(t.is_alive() for t in threads)
    assert not errors


class _ReplyServer:
    """Answers every request line with one canned reply line."""

    def __init__(self, reply: bytes):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.reply = reply
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        conn, _ = self.sock.accept()
        with conn, conn.makefile("rwb") as fh:
            while fh.readline():
                fh.write(self.reply)
                fh.flush()


@pytest.mark.parametrize("reply", [
    b'{"id": 8, "ok": true, "result": "a caption", "error": null}\n',  # another id
    b'{"id": 1, "ok": true, "result": 3, "error": null}\n',  # a caption is text
    b'{"id": 1, "ok": false, "result": null, "error": 5}\n',
    b'{"id": 1, "ok": true, "result": "x", "error": "both"}\n',
    b'[1]\n',
    b'{"id": 1.0, "ok": true, "result": "a caption", "error": null}\n',  # an id is an int
    b'{"id": true, "ok": true, "result": "a caption", "error": null}\n',
])
def test_remote_rejects_bad_reply(reply):
    fake = _ReplyServer(reply)
    remote = RemoteBackend("127.0.0.1", fake.port, timeout_s=5)
    req = ToolRequest(1, "caption", "v000", 0)
    resp = remote.dispatch(req)
    assert resp.id == 1 and resp.error.startswith("transport:")
    remote.close()
    fake.sock.close()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_ARGS = st.dictionaries(
    st.sampled_from(["question", "text", "action", "object", "frames", "prompt", "prefix"]),
    _JSON | st.lists(st.integers(-2, 40), max_size=4),
    max_size=4,
)
# request-shaped objects with fields of any type, to reach the backend
_REQUEST_LIKE = st.fixed_dictionaries(
    {"id": st.integers(0, 9) | _JSON, "method": st.sampled_from(METHODS) | _JSON},
    optional={
        "video_id": st.just("v000") | _JSON,
        "frame_id": st.integers(-2, 40) | _JSON,
        "args": _ARGS | _JSON,
    },
)


@pytest.fixture(scope="module")
def wire_file(mock_backend):
    srv = start_server(mock_backend)
    sock = socket.create_connection(srv.server_address[:2], timeout=5)
    fh = sock.makefile("rwb")
    yield fh
    fh.close()
    sock.close()
    srv.shutdown()
    srv.server_close()


@settings(deadline=None)
@given(_JSON | _REQUEST_LIKE)
def test_any_json_line_gets_one_reply(wire_file, value):
    wire_file.write(json.dumps(value).encode() + b"\n")
    wire_file.flush()
    reply = json.loads(wire_file.readline())
    assert set(reply) == {"id", "ok", "result", "error"}
    assert reply["ok"] is (reply["error"] is None)
    sent = value.get("id") if isinstance(value, dict) else None
    assert reply["id"] == (sent if type(sent) is int else 0)
    if not reply["ok"]:
        assert reply["error"].startswith(("invalid:", "backend:"))
    # exactly one line came back, and the connection still serves
    valid = ToolRequest(424242, "caption", "v000", 1)
    wire_file.write(json.dumps(valid.to_json_dict()).encode() + b"\n")
    wire_file.flush()
    reply = json.loads(wire_file.readline())
    assert reply["id"] == 424242 and reply["ok"] is True
