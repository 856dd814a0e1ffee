"""Tool dispatch layer: the six-method contract, a fixture-driven mock
backend, the line codec of the wire and of recordings, a wire-protocol
client, and record/replay.

Every backend implements `dispatch(ToolRequest) -> ToolResponse`. A reply
carries no id: only the line codec pairs it with its request. Failures are
reported in the response error text with a distinguishing prefix: `invalid:`
for request validation, `backend:` for backend-side failures, `transport:`
for wire problems.
"""

from __future__ import annotations

import json
import math
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path
from types import NoneType
from typing import Any, Callable, Iterable, Mapping

from .core import VideoMeta, expect_type
from .lang import render
from .planner import rule_plan
from .prompts import (
    PLANNER_HEADER_PREFIX,
    PREDICT_HEADER,
    parse_planner_prompt,
    parse_predict_prompt,
)
from .text import best_by_overlap, jaccard, token_set, whole_word_matcher

def _json_id(obj: dict[str, Any]) -> int:
    """The `id` field of a wire object. A float, bool or string id is
    refused, never coerced: the reply must carry the id that was sent."""
    req_id = obj["id"]
    if type(req_id) is not int:
        raise ValueError(f"id must be an integer, got {req_id!r}")
    return req_id


MAX_LINE_BYTES = 1 << 20  # the longest wire line read, newline included

# what reading a JSON request, reply or fixture into its type can raise
_JSON_ERRORS = (ValueError, KeyError, TypeError, OverflowError, RecursionError)


# Each tool call builds one request and one response. A frozen dataclass's
# generated `__init__` sets every field through `object.__setattr__`; these
# set each slot through its member descriptor, bound once below the class,
# which costs about 40% less per object on CPython 3.11. Equality, repr,
# `fields()` and the frozen `__setattr__` are still the dataclass's own.

@dataclass(frozen=True, slots=True, init=False)
class ToolRequest:
    id: int
    method: str
    video_id: str | None = None
    frame_id: int | None = None
    args: dict[str, Any] = field(default_factory=dict)

    def __init__(self, id: int, method: str, video_id: str | None = None,
                 frame_id: int | None = None, args: dict[str, Any] | None = None) -> None:
        _set_req_id(self, id)
        _set_req_method(self, method)
        _set_req_video_id(self, video_id)
        _set_req_frame_id(self, frame_id)
        _set_req_args(self, {} if args is None else args)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "method": self.method,
            "video_id": self.video_id,
            "frame_id": self.frame_id,
            "args": self.args,
        }

    @classmethod
    def from_json_dict(cls, obj: dict[str, Any]) -> "ToolRequest":
        """Read a wire request; `args`, when present, must be a JSON object,
        never a list of pairs that `dict()` would accept."""
        return cls(
            id=_json_id(obj),
            method=obj["method"],
            video_id=obj.get("video_id"),
            frame_id=obj.get("frame_id"),
            args=expect_type(obj.get("args", {}), "args", dict),
        )


_set_req_id = ToolRequest.id.__set__
_set_req_method = ToolRequest.method.__set__
_set_req_video_id = ToolRequest.video_id.__set__
_set_req_frame_id = ToolRequest.frame_id.__set__
_set_req_args = ToolRequest.args.__set__


@dataclass(frozen=True, slots=True, init=False)
class ToolResponse:
    ok: bool
    result: Any = None
    error: str | None = None

    def __init__(self, ok: bool, result: Any = None, error: str | None = None) -> None:
        if ok == (error is not None):
            raise ValueError("exactly one of result-ok and error must hold")
        _set_resp_ok(self, ok)
        _set_resp_result(self, result)
        _set_resp_error(self, error)

    def to_json_dict(self) -> dict[str, Any]:
        return {"ok": self.ok, "result": self.result, "error": self.error}


_set_resp_ok = ToolResponse.ok.__set__
_set_resp_result = ToolResponse.result.__set__
_set_resp_error = ToolResponse.error.__set__


# --- the method-signature table ---

REQUIRED, OPTIONAL, FORBIDDEN = "required", "optional", "forbidden"


def _is_str(value: Any) -> bool:
    return type(value) is str


def _is_unit_number(value: Any) -> bool:
    return type(value) in (int, float) and 0.0 <= value <= 1.0  # float() of a huge int overflows


def _is_boxes(value: Any) -> bool:
    """`[[frame_id, [x0, y0, x1, y1]], ...]`: int ids, boxes in [0, 1], x0 < x1, y0 < y1."""
    return type(value) is list and all(
        type(entry) is list and len(entry) == 2 and type(entry[0]) is int
        and type(box := entry[1]) is list and len(box) == 4
        and all(map(_is_unit_number, box)) and box[0] < box[2] and box[1] < box[3]
        for entry in value)


@dataclass(frozen=True, slots=True)
class MethodArgs:
    """A method's signature: `video_id` REQUIRED or OPTIONAL, `frame_id` REQUIRED or
    FORBIDDEN, each arg in store-key order -> (exact-type check, required), result check."""
    video_id: str
    frame_id: str
    args: dict[str, tuple[Callable[[Any], bool], bool]]
    result: Callable[[Any], bool]


METHOD_ARGS = {
    "caption": MethodArgs(REQUIRED, REQUIRED, {}, _is_str),
    "vqa": MethodArgs(REQUIRED, REQUIRED,
                      {"question": (_is_str, True), "prefix": (_is_str, False)}, _is_str),
    "localize": MethodArgs(REQUIRED, FORBIDDEN, {
        "object": (_is_str, True),
        "frames": (lambda v: type(v) is list and all(type(f) is int for f in v), True),
        "stage": (_is_str, False)}, _is_boxes),
    "verify_action": MethodArgs(REQUIRED, REQUIRED, {"action": (_is_str, True)},
                                lambda v: type(v) is bool),
    "score": MethodArgs(REQUIRED, REQUIRED, {"text": (_is_str, True)}, _is_unit_number),
    "complete": MethodArgs(OPTIONAL, FORBIDDEN,
                           {"prompt": (lambda v: _is_str(v) and v != "", True)}, _is_str),
}
METHODS = tuple(METHOD_ARGS)


def check_request(req: ToolRequest) -> tuple | str:
    """The store key of a request that fits its `METHOD_ARGS` row, or the
    complaint (a str) about one that does not. The key is method, video and
    frame, then each arg in table order (absent as None, a list as a tuple).
    Only a valid request has a key, and validity fixes every value's exact
    type, so although `True == 1.0 == 1`, two keys are equal exactly when the
    requests' method, video, frame and sorted compact JSON args are."""
    method = req.method
    try:
        row = METHOD_ARGS[method]
    except (KeyError, TypeError):  # a JSON list or object is unhashable
        return f"unknown method {method!r}"
    video_id, frame_id, args = req.video_id, req.frame_id, req.args
    if video_id is None:
        if row.video_id is REQUIRED:
            return f"{method} requires video_id"
    elif type(video_id) is not str:
        return "video_id must be a string"
    if frame_id is None:
        if row.frame_id is REQUIRED:
            return f"{method} requires frame_id"
    elif row.frame_id is FORBIDDEN:
        return f"{method} takes no frame_id"
    elif type(frame_id) is not int:
        return "frame_id must be an integer"
    if not (row.args or args):  # a caption, most calls
        return (method, video_id, frame_id)
    key = [method, video_id, frame_id]
    present = 0
    for name, (check, required) in row.args.items():
        if name in args:
            value = args[name]
            if not check(value):
                return f"{method} got a malformed {name} arg"
            key.append(tuple(value) if type(value) is list else value)
            present += 1
        elif required:
            return f"{method} requires a {name} arg"
        else:
            key.append(None)
    if present != len(args):
        return f"{method} takes no {next(n for n in args if n not in row.args)!r} arg"
    return tuple(key)


def validate_result_shape(method: str, result: Any) -> bool:
    """Check the type-specific result shape of a successful response."""
    return type(method) is str and method in METHOD_ARGS and METHOD_ARGS[method].result(result)


# --- world fixtures ---

@dataclass
class ObjectRecord:
    name: str
    box: list[float]


@dataclass
class FrameRecord:
    frame_id: int
    objects: list[ObjectRecord] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)
    caption: str = ""
    ocr_text: str | None = None


def _frame_from_json(fr: Any, idx: int) -> FrameRecord:
    where = f"frame {idx}"
    expect_type(fr, where, dict)
    objects = []
    for o in expect_type(fr.get("objects", []), f"{where} objects", list):
        expect_type(o, f"{where} object", dict)
        box = expect_type(o["box"], f"{where} box", list)
        if len(box) != 4:
            raise ValueError(f"{where} box must hold 4 numbers, got {box!r}")
        for v in box:
            expect_type(v, f"{where} box coordinate", int, float)
        name = expect_type(o["name"], f"{where} object name", str)
        objects.append(ObjectRecord(name, list(box)))
    actions = expect_type(fr.get("actions", []), f"{where} actions", list)
    for action in actions:
        expect_type(action, f"{where} action", str)
    return FrameRecord(
        frame_id=expect_type(fr["frame_id"], f"{where} frame_id", int),
        objects=objects,
        actions=list(actions),
        caption=expect_type(fr["caption"], f"{where} caption", str),
        ocr_text=expect_type(fr.get("ocr_text"), f"{where} ocr_text", str, NoneType),
    )


@dataclass
class WorldFixture:
    """Synthetic per-frame ground truth backing the mock tools."""

    video_id: str
    fps: float
    frames: list[FrameRecord]
    qa_notes: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.fps < math.inf:
            raise ValueError(f"{self.video_id}: fps must be a finite positive number")
        if not self.frames:
            raise ValueError(f"{self.video_id}: frames must be non-empty")
        for idx, frame in enumerate(self.frames):
            if frame.frame_id != idx:
                raise ValueError(f"{self.video_id}: frame ids must be contiguous from 0")
            if not frame.caption:
                raise ValueError(f"{self.video_id}: frame {idx} caption must be non-empty")
            for obj in frame.objects:
                x0, y0, x1, y1 = obj.box
                if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
                    raise ValueError(f"{self.video_id}: frame {idx} has an invalid box")

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    def video_meta(self) -> VideoMeta:
        return VideoMeta(
            video_id=self.video_id,
            frame_count=self.frame_count,
            fps=self.fps,
            duration_s=self.frame_count / self.fps,
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "video_id": self.video_id,
            "fps": self.fps,
            "frames": [
                {
                    "frame_id": fr.frame_id,
                    "objects": [{"name": o.name, "box": list(o.box)} for o in fr.objects],
                    "actions": list(fr.actions),
                    "caption": fr.caption,
                    "ocr_text": fr.ocr_text,
                }
                for fr in self.frames
            ],
            "qa_notes": self.qa_notes,
        }

    @classmethod
    def from_json_dict(cls, obj: dict[str, Any]) -> "WorldFixture":
        """Read a fixture whose fields have exactly their JSON types; a field
        of another type (a bool for a number, a string for a list) is a
        ValueError, never coerced."""
        expect_type(obj, "a fixture", dict)
        frames = [
            _frame_from_json(fr, idx)
            for idx, fr in enumerate(expect_type(obj["frames"], "frames", list))
        ]
        return cls(
            video_id=expect_type(obj["video_id"], "video_id", str),
            fps=float(expect_type(obj["fps"], "fps", int, float)),
            frames=frames,
            qa_notes=expect_type(obj.get("qa_notes"), "qa_notes", str, NoneType),
        )


class FixtureError(ValueError):
    """A fixture file that does not hold a valid fixture."""


def load_fixture(path: str | Path) -> WorldFixture:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return WorldFixture.from_json_dict(json.load(fh))
        except _JSON_ERRORS as exc:
            raise FixtureError(f"fixture {path}: {type(exc).__name__}: {exc}") from exc


def save_fixture(fixture: WorldFixture, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixture.to_json_dict(), fh, indent=2)
        fh.write("\n")


def load_corpus(directory: str | Path) -> dict[str, WorldFixture]:
    """Load every *.json fixture in a directory, keyed by video id."""
    corpus: dict[str, WorldFixture] = {}
    for path in sorted(Path(directory).glob("*.json")):
        fixture = load_fixture(path)
        corpus[fixture.video_id] = fixture
    return corpus


# --- mock behaviors ---

def mock_localize(
    fixture: WorldFixture, object_phrase: str, frames: Iterable[int]
) -> list[list[Any]]:
    """Frames whose fixture objects match the phrase, with their boxes.

    A frame matches when an object name equals the normalized phrase or the
    phrase contains the object name as a whole-word substring.
    """
    matches = whole_word_matcher(object_phrase)
    found: list[list[Any]] = []
    for frame_id in frames:
        if not 0 <= frame_id < fixture.frame_count:
            continue
        for obj in fixture.frames[frame_id].objects:
            if matches(obj.name):
                found.append([frame_id, list(obj.box)])
                break
    return found


def _frame_token_set(frame: FrameRecord) -> set[str]:
    parts = [frame.caption] + [o.name for o in frame.objects] + list(frame.actions)
    return token_set(" ".join(parts))


def mock_score(fixture: WorldFixture, frame_id: int, text: str) -> float:
    """Jaccard similarity between the text and the frame's visible content."""
    frame = fixture.frames[frame_id]
    return jaccard(token_set(text), _frame_token_set(frame))


def mock_verify_action(fixture: WorldFixture, frame_id: int, action: str) -> bool:
    """True when a fixture action equals the query or the query contains it
    as a whole-word substring."""
    actions = fixture.frames[frame_id].actions
    return bool(actions) and any(map(whole_word_matcher(action), actions))


def mock_vqa(fixture: WorldFixture, frame_id: int, question: str, prefix: str | None) -> str:
    frame = fixture.frames[frame_id]
    if prefix == "ocr":
        return frame.ocr_text or ""
    parts = list(frame.actions) + [o.name for o in frame.objects]
    return "; ".join(parts) if parts else frame.caption


def _open_answer_pool(fixture: WorldFixture | None) -> list[str]:
    if fixture is None:
        return []
    if fixture.qa_notes:
        pool = [line.strip() for line in fixture.qa_notes.split("\n") if line.strip()]
        if pool:
            return pool
    pool: list[str] = []
    seen: set[str] = set()
    for frame in fixture.frames:
        for phrase in list(frame.actions) + [o.name for o in frame.objects]:
            if phrase not in seen:
                seen.add(phrase)
                pool.append(phrase)
    return pool


def mock_complete(prompt: str, fixture: WorldFixture | None) -> str:
    """Deterministic stand-in for the completion model.

    Planner prompts are answered by the rule-based planner; prediction
    prompts pick the candidate (or fixture answer phrase, for open-ended)
    with the highest token overlap against the context block, lowest index
    winning ties.
    """
    header = prompt.split("\n", 1)[0]
    if header.startswith(PLANNER_HEADER_PREFIX):
        if header[len(PLANNER_HEADER_PREFIX):].strip() == "single_stage":
            raise MockBackendError(
                "no single-stage planner is available; supply an authored program or a replay"
            )
        try:
            return render(rule_plan(*parse_planner_prompt(prompt)))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise MockBackendError(f"{type(exc).__name__}: {exc}") from exc
    if header == PREDICT_HEADER:
        try:
            _, candidates, context_text = parse_predict_prompt(prompt)
        except ValueError as exc:
            raise MockBackendError(str(exc)) from exc
        context_tokens = token_set(context_text)
        if candidates:
            return candidates[best_by_overlap(candidates, context_tokens)]
        pool = _open_answer_pool(fixture)
        if not pool:
            return ""
        return pool[best_by_overlap(pool, context_tokens)]
    raise MockBackendError("prompt is missing a #planner or #predict header line")


class MockBackendError(Exception):
    pass


class MockBackend:
    """Pure function of (fixture corpus, request); safe for concurrent use."""

    def __init__(self, corpus: Mapping[str, WorldFixture]):
        self.corpus = dict(corpus)

    def dispatch(self, req: ToolRequest) -> ToolResponse:
        complaint = check_request(req)
        if type(complaint) is str:
            return ToolResponse(ok=False, error=f"invalid: {complaint}")
        try:
            result = self._route(req)
        except MockBackendError as exc:
            return ToolResponse(ok=False, error=f"backend: {exc}")
        return ToolResponse(ok=True, result=result)

    def _route(self, req: ToolRequest) -> Any:
        method, frame_id, args = req.method, req.frame_id, req.args
        fixture = self.corpus.get(req.video_id)
        if method == "complete":
            return mock_complete(args["prompt"], fixture)
        if fixture is None:
            raise MockBackendError(f"unknown video {req.video_id!r}")
        if METHOD_ARGS[method].frame_id is REQUIRED and not 0 <= frame_id < fixture.frame_count:
            raise MockBackendError(f"unknown frame {frame_id} of video {fixture.video_id!r}")
        if method == "caption":
            return fixture.frames[frame_id].caption
        if method == "vqa":
            return mock_vqa(fixture, frame_id, args["question"], args.get("prefix"))
        if method == "score":
            return mock_score(fixture, frame_id, args["text"])
        if method == "verify_action":
            return mock_verify_action(fixture, frame_id, args["action"])
        return mock_localize(fixture, args["object"], args["frames"])


# --- content-keyed reply store ---

class ReplyStore:
    """The one dispatch path of the wire client, the recorder and replay;
    each defines only `_miss(req)`. Replies are keyed by request content, and
    a hit returns the reply object held: every tool is deterministic
    (`complete` decodes at temperature 0), so a reply answers every later
    request with the same `check_request` key, whatever its id, and nothing
    mutates a reply. A request that `check_request` rejects has
    no key: it goes straight to `_miss` and is never looked up. Only ok
    misses are kept: `invalid:`, `backend:` and `transport:` replies are
    asked for again. Nothing is evicted. Threads share the store without a
    lock; two that miss one request at once both ask for it.
    """

    def __init__(self) -> None:
        self._replies: dict[tuple, ToolResponse] = {}

    def __len__(self) -> int:
        return len(self._replies)

    def dispatch(self, req: ToolRequest) -> ToolResponse:
        key = check_request(req)
        if type(key) is str:
            return self._miss(req)
        hit = self._replies.get(key)
        if hit is not None:
            return hit
        resp = self._miss(req)
        if resp.ok:
            self._replies[key] = resp
        return resp


# --- the line codec of the wire and of recordings ---

def encode_line(req: ToolRequest) -> bytes:
    """The line of a request, newline included. `json.dumps` escapes every
    non-ASCII character, so the line is ASCII and thus UTF-8."""
    return json.dumps(req.to_json_dict()).encode() + b"\n"


def encode_reply(req_id: int, resp: ToolResponse) -> bytes:
    """The line of `resp` as the reply to request `req_id`, newline included."""
    return json.dumps({"id": req_id, **resp.to_json_dict()}).encode() + b"\n"


class RequestLineError(ValueError):
    """A request line that cannot be read; `id` is the line's integer id, or 0."""

    def __init__(self, why: str, req_id: int = 0) -> None:
        super().__init__(why)
        self.id = req_id


def read_request(line: bytes) -> ToolRequest:
    """The request on `line`: strict UTF-8 holding one JSON object, with only
    JSON whitespace around it. Raises RequestLineError otherwise."""
    try:  # json.loads would also take UTF-16 and UTF-32 bytes
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RequestLineError(f"request line is not UTF-8 ({exc})") from exc
    req_id = 0
    try:
        obj = json.loads(text)
        if type(obj) is not dict:
            raise ValueError("request must be a JSON object")
        if type(obj.get("id")) is int:
            req_id = obj["id"]
        return ToolRequest.from_json_dict(obj)
    except _JSON_ERRORS as exc:
        raise RequestLineError(f"bad request line ({exc})", req_id) from exc


def _read_reply(line: bytes, req: ToolRequest) -> ToolResponse:
    """The reply on `line` to `req`. Raises ValueError when the line cannot be
    read, answers another id or carries a result of the wrong shape."""
    try:  # decoded first for the reason `read_request` gives
        obj = json.loads(line.decode("utf-8"))
        reply_id, ok = _json_id(obj), obj["ok"]
        if type(ok) is not bool:
            raise ValueError(f"ok must be a boolean, got {ok!r}")
        resp = ToolResponse(ok, obj.get("result"), obj.get("error"))
    except _JSON_ERRORS as exc:
        raise ValueError(f"bad response line ({exc})") from exc
    if reply_id != req.id:
        raise ValueError(f"reply id {reply_id} to request id {req.id}")
    if not (validate_result_shape(req.method, resp.result) if resp.ok
            else isinstance(resp.error, str)):
        raise ValueError(f"malformed {req.method} reply")
    return resp


# --- remote backend (newline-delimited JSON over TCP) ---

class RemoteBackend(ReplyStore):
    """Client for the six-method wire protocol. One configurable timeout.
    A miss is one round trip."""

    def __init__(self, host: str, port: int, timeout_s: float = 10.0):
        super().__init__()
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._file = None

    def _connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
        sock.settimeout(self.timeout_s)
        self._sock = sock
        # read-only: a "rwb" pair's readline(limit) can return more than the limit
        self._file = sock.makefile("rb")

    def _close_locked(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _miss(self, req: ToolRequest) -> ToolResponse:
        payload = encode_line(req)
        # Write, read, check and (on a bad reply) close in one lock hold: a
        # stream that is out of step must be dropped before another thread
        # can read from it, since every session numbers its requests from 1
        # and the id check alone would accept another item's stray reply.
        with self._lock:
            try:
                self._connect()
                self._sock.sendall(payload)
                line = self._file.readline(MAX_LINE_BYTES)
            except OSError as exc:
                self._close_locked()
                return ToolResponse(ok=False, error=f"transport: {exc}")
            if not line:
                self._close_locked()
                return ToolResponse(ok=False, error="transport: connection closed by server")
            try:
                if len(line) == MAX_LINE_BYTES and not line.endswith(b"\n"):
                    raise ValueError(f"reply line longer than {MAX_LINE_BYTES} bytes")
                return _read_reply(line, req)
            except ValueError as exc:
                self._close_locked()  # the next call reconnects
                return ToolResponse(ok=False, error=f"transport: {exc}")


# --- record / replay ---

class RecordingBackend(ReplyStore):
    """Wraps a live backend and writes each pair it asks the inner backend
    for, in order, as alternating request and response JSON lines.

    A repeat of an ok request is a store hit and is not written again. Error
    replies are not kept, so a failed request is asked and written each time
    it is made, and so is a request that two workers miss at the same moment.
    """

    def __init__(self, inner, path: str | Path):
        super().__init__()
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh = open(self.path, "wb")

    def _miss(self, req: ToolRequest) -> ToolResponse:
        resp = self.inner.dispatch(req)
        with self._lock:
            self._fh.write(encode_line(req) + encode_reply(req.id, resp))
            self._fh.flush()
        return resp

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


class ReplayMissError(Exception):
    pass


class RecordingError(ValueError):
    """A recording that cannot be replayed, named with the failing pair."""


class ReplayBackend(ReplyStore):
    """Answers requests from a recording, whose requests are read as the
    server reads them and whose replies as the wire client reads them; a
    well-formed request that was never recorded is a hard error."""

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        lines = [line for line in self.path.read_bytes().split(b"\n") if line]
        for pair, at in enumerate(range(0, len(lines), 2), start=1):
            try:
                req = read_request(lines[at])
                if at + 1 == len(lines):
                    raise ValueError("request line without a response line")
                resp = _read_reply(lines[at + 1], req)
            except ValueError as exc:
                raise RecordingError(f"recording {self.path}: pair {pair}: {exc}") from exc
            key = check_request(req)
            if type(key) is not str:
                self._replies[key] = resp

    def _miss(self, req: ToolRequest) -> ToolResponse:
        # an invalid request is answered as any live backend answers it
        complaint = check_request(req)
        if type(complaint) is str:
            return ToolResponse(ok=False, error=f"invalid: {complaint}")
        args = json.dumps(req.args, sort_keys=True, separators=(",", ":"))
        raise ReplayMissError(
            "replay miss: no recorded response for "
            f"method={req.method} video_id={req.video_id!r} "
            f"frame_id={req.frame_id} args={args}"
        )


# --- session ---

class ToolError(Exception):
    """A dispatched call came back not-ok."""

    def __init__(self, method: str, error: str):
        super().__init__(f"{method}: {error}")
        self.method = method
        self.error = error


class ToolSession:
    """Request-id allocation plus an ordered trace over one backend.

    A session belongs to one item run on one thread: `harness.run_item` and
    `cli._cmd_run` each open one per question, so traces stay per-item even
    when items run concurrently, and the session needs no lock. Threads may
    share the backend, never a session.
    """

    def __init__(self, backend):
        self.backend = backend
        self._next_id = 1
        self.trace: list[dict[str, Any]] = []

    def dispatch(
        self,
        method: str,
        video_id: str | None = None,
        frame_id: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> Any:
        """Send one call and append its trace record. Returns the result of
        an ok reply; raises ToolError on any other."""
        if args is None:
            args = {}
        req_id = self._next_id
        self._next_id = req_id + 1
        resp = self.backend.dispatch(ToolRequest(req_id, method, video_id, frame_id, args))
        call_args = {"video_id": video_id, "frame_id": frame_id, **args}
        if resp.ok:
            self.trace.append({"method": method, "args": call_args, "result": resp.result})
            return resp.result
        self.trace.append(
            {"method": method, "args": call_args, "result": None, "error": resp.error})
        raise ToolError(method, resp.error or "unknown error")

    def caption(self, video_id: str, frame_id: int) -> str:
        return self.dispatch("caption", video_id, frame_id)

    def vqa(self, video_id: str, frame_id: int, question: str, prefix: str | None = None) -> str:
        args: dict[str, Any] = {"question": question}
        if prefix is not None:
            args["prefix"] = prefix
        return self.dispatch("vqa", video_id, frame_id, args)

    def localize(
        self,
        video_id: str,
        object_phrase: str,
        frames: list[int],
        stage: str | None = None,
    ) -> list[list[Any]]:
        # the stage arg lets a real server fuse detection and scoring
        # internally; the mock ignores it
        args: dict[str, Any] = {"object": object_phrase, "frames": list(frames)}
        if stage is not None:
            args["stage"] = stage
        return self.dispatch("localize", video_id, None, args)

    def verify_action(self, video_id: str, frame_id: int, action: str) -> bool:
        return self.dispatch("verify_action", video_id, frame_id, {"action": action})

    def score(self, video_id: str, frame_id: int, text: str) -> float:
        return self.dispatch("score", video_id, frame_id, {"text": text})

    def complete(self, prompt: str, video_id: str | None = None) -> str:
        return self.dispatch("complete", video_id, None, {"prompt": prompt})
