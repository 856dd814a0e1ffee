from __future__ import annotations

import json
import socket
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from morevqa.harness import load_dataset, run_eval
from morevqa.server import _reply_line, parse_listen_address, start_server
from morevqa import tools
from morevqa.tools import (
    MAX_LINE_BYTES,
    METHODS,
    RecordingError,
    RemoteBackend,
    ReplayBackend,
    RequestLineError,
    ToolError,
    ToolRequest,
    ToolResponse,
    ToolSession,
    encode_line,
    read_request,
)

from conftest import CONTRACT_PROBES


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


def test_concurrent_clients_get_matching_ids(server, oracle_bundle):
    # each worker asks for frames whose caption no other worker's frame has,
    # so a reply that reached another worker's request could not pass
    host, port = _addr(server)
    fixtures = sorted(oracle_bundle.fixtures.items())
    captions = sorted({frame.caption for _, fixture in fixtures for frame in fixture.frames})
    asks = [[] for _ in range(4)]
    for video_id, fixture in fixtures:
        for frame in fixture.frames:
            asks[captions.index(frame.caption) % 4].append((video_id, frame))
    assert min(map(len, asks)) >= 20
    errors = []

    def worker(offset):
        try:
            remote = RemoteBackend(host, port)
            for i, (video_id, frame) in enumerate(asks[offset][:20]):
                req = ToolRequest(offset * 1000 + i, "caption", video_id, frame.frame_id)
                resp = remote.dispatch(req)
                assert resp.ok and resp.result == frame.caption, (resp, frame)
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
    assert parse_listen_address("::1:65535") == ("::1", 65535)
    for bad in ("no-port", ":80", "h:", "h:65536", "h:\u00b2", "h:+80", "h:" + "9" * 5000):
        with pytest.raises(ValueError):
            parse_listen_address(bad)


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


def test_store_hit_returns_the_stored_reply(counted_server, mock_backend):
    srv, counting = counted_server
    remote = RemoteBackend(*_addr(srv))
    first = remote.dispatch(ToolRequest(1, "caption", "v000", 3))
    again = remote.dispatch(ToolRequest(2, "caption", "v000", 3))
    remote.close()
    assert len(counting.requests) == 1
    assert again == mock_backend.dispatch(ToolRequest(2, "caption", "v000", 3))
    assert again is first


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
            assert resp == ToolResponse(ok=False, error="backend: RuntimeError: boom")
        remote.close()
    finally:
        srv.shutdown()
        srv.server_close()


@pytest.mark.parametrize("line, reply", [
    (b'{"id": 7, "method": "caption", "video_id": "v000", "frame_id": 1}',
     b'{"id": 7, "ok": true, "result": "this quiet street has parked cars", "error": null}\n'),
    (b'{"id": 8, "method": "caption", "video_id": "v000", "frame_id": 99}',
     b'{"id": 8, "ok": false, "result": null, '
     b'"error": "backend: unknown frame 99 of video \'v000\'"}\n'),
    (b"not json",
     b'{"id": 0, "ok": false, "result": null, '
     b'"error": "invalid: bad request line (Expecting value: line 1 column 1 (char 0))"}\n'),
], ids=["ok", "backend-error", "invalid-id-0"])
def test_reply_line_bytes(mock_backend, line, reply):
    assert _reply_line(mock_backend, line) == reply


@pytest.mark.parametrize("req_id", [7, 1.9, 1.0, True, "7", None, [1]])
def test_reply_carries_only_an_id_that_was_sent(mock_backend, req_id):
    line = json.dumps({"id": req_id, "method": "caption", "video_id": "v000", "frame_id": 1})
    reply = json.loads(_reply_line(mock_backend, line.encode()))
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
    # args must be a JSON object, never pairs that dict() would take
    for line in (b'{"id": 1, "method": "vqa", "video_id": "v000", "frame_id": 3, '
                 b'"args": [["question", "what?"]]}',
                 b'{"id": 1, "method": "caption", "video_id": "v000", "frame_id": 3, '
                 b'"args": ["ab"]}'):
        fh.write(line + b"\n")
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["id"] == 1 and reply["error"].startswith("invalid:"), line
    for line in (b'{"id": 1e400, "method": "caption"}', b"[" * 100000 + b"]" * 100000):
        fh.write(line + b"\n")
        fh.flush()
        reply = json.loads(fh.readline())
        assert reply["id"] == 0 and reply["error"].startswith("invalid:")
    sock.close()


@pytest.mark.parametrize("req", CONTRACT_PROBES,
                         ids=[f"{r.method}-{r.frame_id}-{r.args}" for r in CONTRACT_PROBES])
def test_contract_probe_is_invalid_on_every_backend(server, mock_backend, tmp_path, req):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    remote = RemoteBackend(*_addr(server))
    try:
        for backend in (mock_backend, remote, ReplayBackend(empty)):
            resp = backend.dispatch(req)
            assert not resp.ok and resp.error.startswith("invalid:"), (backend, resp)
    finally:
        remote.close()


def _padded(req: ToolRequest, size: int) -> bytes:
    """The wire line of `req`, padded with spaces to `size` bytes, newline included."""
    line = json.dumps(req.to_json_dict()).encode()
    return line + b" " * (size - len(line) - 1) + b"\n"


def test_request_line_over_the_cap_gets_one_invalid_reply(server):
    sock = socket.create_connection(_addr(server), timeout=5)
    fh = sock.makefile("rwb")
    for size in (MAX_LINE_BYTES, MAX_LINE_BYTES + 3, 2 * MAX_LINE_BYTES + 3):
        fh.write(_padded(ToolRequest(5, "caption", "v000", 1), size))
        fh.write(json.dumps(ToolRequest(6, "caption", "v000", 2).to_json_dict()).encode() + b"\n")
        fh.flush()
        first, second = json.loads(fh.readline()), json.loads(fh.readline())
        if size == MAX_LINE_BYTES:
            assert first["id"] == 5 and first["ok"] is True
        else:
            assert first["id"] == 0 and first["error"].startswith("invalid: request line longer")
        # the rest of the long line was skipped: the next line is answered on its own
        assert second["id"] == 6 and second["ok"] is True
    sock.close()


def test_request_line_that_is_not_utf8_gets_invalid_and_keeps_connection(server):
    sock = socket.create_connection(_addr(server), timeout=5)
    fh = sock.makefile("rwb")
    # decoded leniently, this would ask for a caption of video 'v000\ufffd'
    fh.write(b'{"id": 3, "method": "caption", "video_id": "v000\xff", "frame_id": 1, "args": {}}\n')
    fh.write(json.dumps(ToolRequest(4, "caption", "v000", 1).to_json_dict()).encode() + b"\n")
    fh.flush()
    first, second = json.loads(fh.readline()), json.loads(fh.readline())
    assert first["id"] == 0 and first["error"].startswith("invalid: request line is not UTF-8")
    assert second["id"] == 4 and second["ok"] is True
    sock.close()


def test_remote_drops_a_reply_line_over_the_cap():
    reply = b'{"id": 1, "ok": true, "result": "%s", "error": null}\n' % (b"x" * MAX_LINE_BYTES)
    fake = _ReplyServer(reply)
    remote = RemoteBackend("127.0.0.1", fake.port, timeout_s=5)
    resp = remote.dispatch(_CAPTION)
    assert resp.error.startswith("transport: reply line longer")
    assert remote._sock is None  # the rest of the line is never read as a reply
    remote.close()
    fake.sock.close()


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
        try:
            with conn, conn.makefile("rwb") as fh:
                while fh.readline():
                    fh.write(self.reply)
                    fh.flush()
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client closed with part of a reply unread


_CAPTION = ToolRequest(1, "caption", "v000", 0)
_LOCALIZE = ToolRequest(1, "localize", "v000", None, {"object": "cup", "frames": [1]})
_SCORE = ToolRequest(1, "score", "v000", 0, {"text": "cup"})
_BAD_REPLIES = [
    (b'{"id": 8, "ok": true, "result": "a caption", "error": null}\n', _CAPTION),  # another id
    (b'{"id": 1, "ok": true, "result": 3, "error": null}\n', _CAPTION),  # a caption is text
    (b'{"id": 1, "ok": false, "result": null, "error": 5}\n', _CAPTION),
    (b'{"id": 1, "ok": true, "result": "x", "error": "both"}\n', _CAPTION),
    (b'[1]\n', _CAPTION),
    # an id is an int
    (b'{"id": 1.0, "ok": true, "result": "a caption", "error": null}\n', _CAPTION),
    (b'{"id": true, "ok": true, "result": "a caption", "error": null}\n', _CAPTION),
    (b'{"id": 1, "ok": "no", "result": "x", "error": null}\n', _CAPTION),  # ok is a JSON boolean
    # box coordinates are numbers, not booleans
    (b'{"id": 1, "ok": true, "result": [[1, [false, false, true, true]]], "error": null}\n',
     _LOCALIZE),
    # an int too large for a float is still no score in [0, 1]
    (b'{"id": 1, "ok": true, "result": 1%s, "error": null}\n' % (b"0" * 309), _SCORE),
    # a line is UTF-8, though json.loads reads UTF-16 too (this one ends in
    # the UTF-16 newline)
    ('{"id": 1, "ok": true, "result": "a cat", "error": null}\n'.encode("utf-16-be"), _CAPTION),
]


# each case is named by its reply line alone
@pytest.mark.parametrize("reply, req", _BAD_REPLIES,
                         ids=[reply.decode() for reply, _ in _BAD_REPLIES])
def test_remote_rejects_bad_reply(reply, req):
    fake = _ReplyServer(reply)
    remote = RemoteBackend("127.0.0.1", fake.port, timeout_s=5)
    resp = remote.dispatch(req)
    assert resp.error.startswith("transport:")
    remote.close()
    fake.sock.close()


class _OutOfStepServer:
    """Answers the first request it reads with a line that is not a reply and
    then a stray reply for the same id, and every later request, on any
    connection, with the caption `frame <frame_id>`."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.first = True
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn, conn.makefile("rwb") as fh:
            try:
                for line in iter(fh.readline, b""):
                    req = json.loads(line)
                    reply = {"id": req["id"], "ok": True, "error": None,
                             "result": f"frame {req['frame_id']}"}
                    if self.first:
                        self.first = False
                        fh.write(b"not a reply\n")
                        reply["result"] = "a stray caption"
                    fh.write(json.dumps(reply).encode() + b"\n")
                    fh.flush()
            except OSError:
                pass


def test_remote_drops_a_bad_stream_before_another_thread_reads_it(monkeypatch):
    # Two items' sessions both number their first request 1. The first reads
    # a bad line; while it checks that line, the second item dispatches on
    # the same client. It must not read the stray reply left on the stream.
    fake = _OutOfStepServer()
    remote = RemoteBackend("127.0.0.1", fake.port, timeout_s=5)
    read_reply = tools._read_reply
    second = {}

    def second_item():
        second["caption"] = ToolSession(remote).caption("v000", 5)

    other = threading.Thread(target=second_item)

    def reading(line, req):
        if req.frame_id == 0:
            other.start()
            other.join(timeout=0.5)  # a client that releases its lock here lets it finish
        return read_reply(line, req)

    monkeypatch.setattr(tools, "_read_reply", reading)
    try:
        with pytest.raises(ToolError, match="transport:"):
            ToolSession(remote).caption("v000", 0)
        other.join(timeout=5)
    finally:
        remote.close()
        fake.sock.close()
    assert not other.is_alive()
    assert second == {"caption": "frame 5"}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
# every arg name some method takes, `stage` and `prefix` included, with values
# of any JSON type, and `pad`, which no method takes
_ARGS = st.dictionaries(
    st.sampled_from(["question", "text", "action", "object", "frames", "prompt", "prefix",
                     "stage", "pad"]),
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
    args = value.get("args") if isinstance(value, dict) else None
    if isinstance(args, dict) and ("pad" in args or not all(
            isinstance(args.get(name, ""), str) for name in ("prefix", "stage"))):
        assert reply["error"].startswith("invalid:")
    # exactly one line came back, and the connection still serves
    valid = ToolRequest(424242, "caption", "v000", 1)
    wire_file.write(json.dumps(valid.to_json_dict()).encode() + b"\n")
    wire_file.flush()
    reply = json.loads(wire_file.readline())
    assert reply["id"] == 424242 and reply["ok"] is True


@pytest.mark.parametrize("blank", [b"\n", b"   \n", b"\xc2\xa0\n"],
                         ids=["empty", "spaces", "no-break-space"])
def test_blank_line_gets_one_invalid_reply(server, blank):
    with socket.create_connection(_addr(server), timeout=5) as sock, sock.makefile("rwb") as fh:
        fh.write(blank + encode_line(ToolRequest(8, "caption", "v000", 1)))
        fh.flush()
        first, second = json.loads(fh.readline()), json.loads(fh.readline())
    assert first["id"] == 0 and first["error"].startswith("invalid: bad request line (")
    assert second["id"] == 8 and second["ok"] is True


_RECORDED_REPLY = b'{"id": 5, "ok": true, "result": "c", "error": null}\n'


def _replay_complaint(path, line: bytes) -> str:
    """What replay says of `line` as a recording's first request line."""
    path.write_bytes(line + b"\n" + _RECORDED_REPLY)
    with pytest.raises(RecordingError) as err:
        ReplayBackend(path)
    prefix = f"recording {path}: pair 1: "
    assert str(err.value).startswith(prefix)
    return str(err.value)[len(prefix):]


@pytest.mark.parametrize("line, req_id", [
    (b'{"id": 5, "method": "caption", "video_id": "v000\xff", "frame_id": 1}', 0),
    (b'{"id": 5, "method": caption}', 0),
    (b"[1]", 0),
    (b'{"id": 5, "method": "caption", "args": [["a", 1]]}', 5),
    (b'{"id": 1.5, "method": "caption", "video_id": "v000", "frame_id": 1}', 0),
], ids=["not-utf8", "not-json", "json-array", "args-pair-list", "float-id"])
def test_server_and_replay_refuse_a_request_line_alike(server, tmp_path, line, req_id):
    detail = _replay_complaint(tmp_path / "rec.jsonl", line)
    with socket.create_connection(_addr(server), timeout=5) as sock, sock.makefile("rwb") as fh:
        fh.write(line + b"\n")
        fh.flush()
        reply = json.loads(fh.readline())
    assert reply == {"id": req_id, "ok": False, "result": None, "error": f"invalid: {detail}"}


@pytest.fixture(scope="module")
def recording_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "rec.jsonl"


@settings(deadline=None, max_examples=60)
@given(st.binary(max_size=40).filter(lambda b: b"\n" not in b and b)
       | _REQUEST_LIKE.map(lambda value: json.dumps(value).encode()))
def test_any_refused_request_line_reads_alike_on_wire_and_in_replay(
        mock_backend, recording_path, line):
    try:
        read_request(line)
    except RequestLineError:
        detail = _replay_complaint(recording_path, line)
        reply = json.loads(_reply_line(mock_backend, line))
        assert reply["error"] == f"invalid: {detail}"
    else:  # a line that reads is answered past the reader
        error = json.loads(_reply_line(mock_backend, line))["error"] or ""
        assert not error.startswith(("invalid: bad request line", "invalid: request line"))


# requests whose fields hold any JSON value; NaN is left out, as it equals nothing
_JSON_NO_NAN = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(st.builds(ToolRequest, id=st.integers(), method=st.sampled_from(METHODS) | _JSON_NO_NAN,
                 video_id=_JSON_NO_NAN, frame_id=_JSON_NO_NAN,
                 args=st.dictionaries(st.text(max_size=8), _JSON_NO_NAN, max_size=4)))
def test_request_line_round_trip(req):
    line = encode_line(req)
    assert line.endswith(b"\n") and line.count(b"\n") == 1 and line.isascii()
    assert read_request(line) == req
