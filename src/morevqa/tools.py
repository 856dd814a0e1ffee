"""Tool dispatch layer: the six-method contract, a fixture-driven mock
backend, a wire-protocol client, and record/replay.

Every backend implements `dispatch(ToolRequest) -> ToolResponse`. Failures are
reported in the response error text with a distinguishing prefix: `invalid:`
for request validation, `backend:` for backend-side failures, `transport:`
for wire problems.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from .core import VideoMeta
from .planner import rule_plan
from .prompts import (
    PLANNER_HEADER_PREFIX,
    PREDICT_HEADER,
    parse_planner_prompt,
    parse_predict_prompt,
)
from .text import jaccard, token_overlap, token_set, whole_word_contains

METHODS = ("caption", "vqa", "localize", "verify_action", "score", "complete")


def _json_id(obj: dict[str, Any]) -> int:
    """The `id` field of a wire object. A float, bool or string id is
    refused, never coerced: the reply must carry the id that was sent."""
    req_id = obj["id"]
    if type(req_id) is not int:
        raise ValueError(f"id must be an integer, got {req_id!r}")
    return req_id


@dataclass(frozen=True, slots=True)
class ToolRequest:
    id: int
    method: str
    video_id: str | None = None
    frame_id: int | None = None
    args: dict[str, Any] = field(default_factory=dict)

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
        return cls(
            id=_json_id(obj),
            method=obj["method"],
            video_id=obj.get("video_id"),
            frame_id=obj.get("frame_id"),
            args=dict(obj.get("args", {})),
        )


@dataclass(frozen=True, slots=True)
class ToolResponse:
    id: int
    ok: bool
    result: Any = None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.ok == (self.error is not None):
            raise ValueError("exactly one of result-ok and error must hold")

    def to_json_dict(self) -> dict[str, Any]:
        return {"id": self.id, "ok": self.ok, "result": self.result, "error": self.error}

    @classmethod
    def from_json_dict(cls, obj: dict[str, Any]) -> "ToolResponse":
        return cls(
            id=_json_id(obj),
            ok=bool(obj["ok"]),
            result=obj.get("result"),
            error=obj.get("error"),
        )


# method -> the string arg it requires
_TEXT_ARG = {
    "vqa": "question",
    "score": "text",
    "verify_action": "action",
    "localize": "object",
    "complete": "prompt",
}


def validate_request(req: ToolRequest) -> str | None:
    """Return a validation complaint, or None when the request is well formed.

    A well-formed request has a string video id, integer frame ids and
    string text args, so no backend sees a value of the wrong type. Frame ids
    are checked with `type(...) is int`, because bool is an int subclass and
    `True == 1` would alias frame 1.
    """
    if req.method not in METHODS:
        return f"unknown method {req.method!r}"
    if req.video_id is not None and not isinstance(req.video_id, str):
        return "video_id must be a string"
    if req.frame_id is not None and type(req.frame_id) is not int:
        return "frame_id must be an integer"
    if req.method in ("caption", "vqa", "score", "verify_action"):
        if req.video_id is None:
            return f"{req.method} requires video_id"
        if req.frame_id is None:
            return f"{req.method} requires frame_id"
    if req.method == "localize":
        if req.video_id is None:
            return "localize requires video_id"
        frames = req.args.get("frames")
        if type(frames) is not list or not all(type(f) is int for f in frames):
            return "localize requires a frames list arg"
    text_arg = _TEXT_ARG.get(req.method)
    if text_arg is not None and not isinstance(req.args.get(text_arg), str):
        return f"{req.method} requires a string {text_arg} arg"
    if req.method == "complete" and not req.args["prompt"]:
        return "complete requires a prompt arg"
    return None


def validate_result_shape(method: str, result: Any) -> bool:
    """Check the type-specific result shape of a successful response."""
    if method in ("caption", "vqa", "complete"):
        return isinstance(result, str)
    if method == "verify_action":
        return isinstance(result, bool)
    if method == "score":
        return (
            isinstance(result, (int, float))
            and not isinstance(result, bool)
            and 0.0 <= float(result) <= 1.0
        )
    if method == "localize":
        if not isinstance(result, list):
            return False
        for entry in result:
            if not (isinstance(entry, list) and len(entry) == 2):
                return False
            frame_id, box = entry
            if type(frame_id) is not int:
                return False
            if not (isinstance(box, list) and len(box) == 4):
                return False
            x0, y0, x1, y1 = box
            if not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in box):
                return False
            if not (x0 < x1 and y0 < y1):
                return False
        return True
    return False


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


@dataclass
class WorldFixture:
    """Synthetic per-frame ground truth backing the mock tools."""

    video_id: str
    fps: float
    frames: list[FrameRecord]
    qa_notes: str | None = None

    def __post_init__(self) -> None:
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
        frames = [
            FrameRecord(
                frame_id=int(fr["frame_id"]),
                objects=[ObjectRecord(o["name"], list(o["box"])) for o in fr.get("objects", [])],
                actions=list(fr.get("actions", [])),
                caption=fr["caption"],
                ocr_text=fr.get("ocr_text"),
            )
            for fr in obj["frames"]
        ]
        return cls(
            video_id=obj["video_id"],
            fps=float(obj["fps"]),
            frames=frames,
            qa_notes=obj.get("qa_notes"),
        )


def load_fixture(path: str | Path) -> WorldFixture:
    with open(path, "r", encoding="utf-8") as fh:
        return WorldFixture.from_json_dict(json.load(fh))


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
    found: list[list[Any]] = []
    for frame_id in frames:
        if not 0 <= frame_id < fixture.frame_count:
            continue
        for obj in fixture.frames[frame_id].objects:
            if whole_word_contains(object_phrase, obj.name):
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
    for known in fixture.frames[frame_id].actions:
        if whole_word_contains(action, known):
            return True
    return False


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


def _best_by_overlap(options: list[str], context_tokens: set[str]) -> int:
    best_idx = 0
    best_overlap = -1
    for idx, option in enumerate(options):
        overlap = token_overlap(option, context_tokens)
        if overlap > best_overlap:
            best_idx, best_overlap = idx, overlap
    return best_idx


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
            stage, question, memory = parse_planner_prompt(prompt)
        except ValueError as exc:
            raise MockBackendError(str(exc)) from exc
        return rule_plan(stage, memory, question)
    if header == PREDICT_HEADER:
        try:
            _, candidates, context_text = parse_predict_prompt(prompt)
        except ValueError as exc:
            raise MockBackendError(str(exc)) from exc
        context_tokens = token_set(context_text)
        if candidates:
            return candidates[_best_by_overlap(candidates, context_tokens)]
        pool = _open_answer_pool(fixture)
        if not pool:
            return ""
        return pool[_best_by_overlap(pool, context_tokens)]
    raise MockBackendError("prompt is missing a #planner or #predict header line")


class MockBackendError(Exception):
    pass


class MockBackend:
    """Pure function of (fixture corpus, request); safe for concurrent use."""

    def __init__(self, corpus: Mapping[str, WorldFixture]):
        self.corpus = dict(corpus)

    def _fixture(self, video_id: str | None) -> WorldFixture:
        if video_id is None or video_id not in self.corpus:
            raise MockBackendError(f"unknown video {video_id!r}")
        return self.corpus[video_id]

    def _frame(self, fixture: WorldFixture, frame_id: int) -> FrameRecord:
        if not 0 <= frame_id < fixture.frame_count:
            raise MockBackendError(f"unknown frame {frame_id} of video {fixture.video_id!r}")
        return fixture.frames[frame_id]

    def dispatch(self, req: ToolRequest) -> ToolResponse:
        complaint = validate_request(req)
        if complaint is not None:
            return ToolResponse(req.id, ok=False, error=f"invalid: {complaint}")
        try:
            result = self._route(req)
        except MockBackendError as exc:
            return ToolResponse(req.id, ok=False, error=f"backend: {exc}")
        return ToolResponse(req.id, ok=True, result=result)

    def _route(self, req: ToolRequest) -> Any:
        if req.method == "complete":
            fixture = self.corpus.get(req.video_id) if req.video_id else None
            return mock_complete(req.args["prompt"], fixture)
        fixture = self._fixture(req.video_id)
        if req.method == "caption":
            return self._frame(fixture, req.frame_id).caption
        if req.method == "vqa":
            self._frame(fixture, req.frame_id)
            return mock_vqa(fixture, req.frame_id, req.args["question"], req.args.get("prefix"))
        if req.method == "score":
            self._frame(fixture, req.frame_id)
            return mock_score(fixture, req.frame_id, req.args["text"])
        if req.method == "verify_action":
            self._frame(fixture, req.frame_id)
            return mock_verify_action(fixture, req.frame_id, req.args["action"])
        if req.method == "localize":
            return mock_localize(fixture, req.args["object"], req.args["frames"])
        raise MockBackendError(f"unroutable method {req.method!r}")


# --- content-keyed reply store ---

# json.dumps builds a new encoder on each call that passes options
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_args(args: Mapping[str, Any]) -> str:
    """`json.dumps(args, sort_keys=True, separators=(",", ":"))`."""
    return _CANONICAL_ENCODER.encode(args) if args else "{}"


def _request_key(req: ToolRequest) -> tuple:
    return (req.method, req.video_id, req.frame_id, canonical_args(req.args))


class ReplyStore:
    """Tool replies keyed by request content, answered under the caller's id.

    Every tool is deterministic (`complete` decodes at temperature 0 and the
    mock is a pure function of its request), so a reply answers every later
    request with the same `_request_key`. A request that `validate_request`
    rejects is never looked up; that also keeps a bool `frame_id` off frame
    1's entry, since `True == 1` as a dict key. Nothing is evicted: the store
    lives as long as the backend that owns it. Threads share it without a
    lock; two that miss the same request at once both ask for it and get the
    same reply.
    """

    def __init__(self) -> None:
        self._replies: dict[tuple, ToolResponse] = {}

    def __len__(self) -> int:
        return len(self._replies)

    def put(self, req: ToolRequest, resp: ToolResponse) -> None:
        if validate_request(req) is None:
            self._replies[_request_key(req)] = resp

    def fetch(self, req: ToolRequest, call) -> ToolResponse:
        """The stored reply to `req`, or else `call(req)`, which is kept only
        when ok: `invalid:`, `backend:` and `transport:` replies are asked
        for again each time."""
        if validate_request(req) is not None:
            return call(req)
        key = _request_key(req)
        hit = self._replies.get(key)
        if hit is not None:
            return ToolResponse(req.id, hit.ok, hit.result, hit.error)
        resp = call(req)
        if resp.ok:
            self._replies[key] = resp
        return resp


# --- remote backend (newline-delimited JSON over TCP) ---

def _read_reply(line: bytes, req: ToolRequest) -> ToolResponse:
    """The reply on `line` to `req`. Raises ValueError when the line cannot be
    read, answers another id or carries a result of the wrong shape."""
    try:
        resp = ToolResponse.from_json_dict(json.loads(line))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad response line ({exc})") from exc
    if resp.id != req.id:
        raise ValueError(f"reply id {resp.id} to request id {req.id}")
    if not (validate_result_shape(req.method, resp.result) if resp.ok
            else isinstance(resp.error, str)):
        raise ValueError(f"malformed {req.method} reply")
    return resp


class RemoteBackend:
    """Client for the six-method wire protocol. One configurable timeout.

    A repeated request is answered from a `ReplyStore`, with no round trip.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._file = None
        self._store = ReplyStore()

    def _connect(self) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout_s)
        sock.settimeout(self.timeout_s)
        self._sock = sock
        self._file = sock.makefile("rwb")

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

    def dispatch(self, req: ToolRequest) -> ToolResponse:
        return self._store.fetch(req, self._round_trip)

    def _round_trip(self, req: ToolRequest) -> ToolResponse:
        payload = json.dumps(req.to_json_dict()) + "\n"
        with self._lock:
            try:
                self._connect()
                self._file.write(payload.encode("utf-8"))
                self._file.flush()
                line = self._file.readline()
            except OSError as exc:
                self._close_locked()
                return ToolResponse(req.id, ok=False, error=f"transport: {exc}")
        if not line:
            self.close()
            return ToolResponse(req.id, ok=False, error="transport: connection closed by server")
        try:
            return _read_reply(line, req)
        except ValueError as exc:
            self.close()  # the stream may be out of step; the next call reconnects
            return ToolResponse(req.id, ok=False, error=f"transport: {exc}")


# --- record / replay ---

class RecordingBackend:
    """Wraps a live backend and writes each distinct request/response pair,
    in order, as alternating JSON lines.

    A repeat of an ok request is answered from a `ReplyStore` without calling
    the inner backend, and is not written again. Error replies are not kept,
    so a failed request is asked and written each time it is made, and so is
    a request that two workers miss at the same moment.
    """

    def __init__(self, inner, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()
        self._store = ReplyStore()
        self._fh = open(self.path, "w", encoding="utf-8")

    def dispatch(self, req: ToolRequest) -> ToolResponse:
        return self._store.fetch(req, self._record)

    def _record(self, req: ToolRequest) -> ToolResponse:
        resp = self.inner.dispatch(req)
        with self._lock:
            self._fh.write(json.dumps(req.to_json_dict()) + "\n")
            self._fh.write(json.dumps(resp.to_json_dict()) + "\n")
            self._fh.flush()
        return resp

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


class ReplayMissError(Exception):
    pass


class ReplayBackend:
    """Answers requests from a recording loaded into a `ReplyStore`; a
    well-formed request that was never recorded is a hard error."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._store = ReplyStore()
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().split("\n") if line.strip()]
        if len(lines) % 2 != 0:
            raise ValueError(f"recording {self.path} has an odd number of lines")
        for i in range(0, len(lines), 2):
            self._store.put(
                ToolRequest.from_json_dict(json.loads(lines[i])),
                ToolResponse.from_json_dict(json.loads(lines[i + 1])),
            )

    def __len__(self) -> int:
        return len(self._store)

    def dispatch(self, req: ToolRequest) -> ToolResponse:
        return self._store.fetch(req, self._miss)

    def _miss(self, req: ToolRequest) -> ToolResponse:
        # an invalid request is answered as any live backend answers it
        complaint = validate_request(req)
        if complaint is not None:
            return ToolResponse(req.id, ok=False, error=f"invalid: {complaint}")
        raise ReplayMissError(
            "replay miss: no recorded response for "
            f"method={req.method} video_id={req.video_id!r} "
            f"frame_id={req.frame_id} args={canonical_args(req.args)}"
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

    Sessions are cheap; the engine opens one per question run so traces stay
    per-item even when items run concurrently.
    """

    def __init__(self, backend):
        self.backend = backend
        self._lock = threading.Lock()
        self._next_id = 1
        self.trace: list[dict[str, Any]] = []

    def dispatch(
        self,
        method: str,
        video_id: str | None = None,
        frame_id: int | None = None,
        args: dict[str, Any] | None = None,
    ) -> ToolResponse:
        args = args or {}
        with self._lock:
            req_id = self._next_id
            self._next_id += 1
        resp = self.backend.dispatch(ToolRequest(req_id, method, video_id, frame_id, args))
        call_args = {"video_id": video_id, "frame_id": frame_id, **args}
        if resp.ok:
            record = {"method": method, "args": call_args, "result": resp.result}
        else:
            record = {"method": method, "args": call_args, "result": None, "error": resp.error}
        with self._lock:
            self.trace.append(record)
        return resp

    def _unwrap(self, resp: ToolResponse, method: str) -> Any:
        if not resp.ok:
            raise ToolError(method, resp.error or "unknown error")
        return resp.result

    def caption(self, video_id: str, frame_id: int) -> str:
        return self._unwrap(self.dispatch("caption", video_id, frame_id), "caption")

    def vqa(self, video_id: str, frame_id: int, question: str, prefix: str | None = None) -> str:
        args: dict[str, Any] = {"question": question}
        if prefix is not None:
            args["prefix"] = prefix
        return self._unwrap(self.dispatch("vqa", video_id, frame_id, args), "vqa")

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
        return self._unwrap(self.dispatch("localize", video_id, None, args), "localize")

    def verify_action(self, video_id: str, frame_id: int, action: str) -> bool:
        args = {"action": action}
        return self._unwrap(self.dispatch("verify_action", video_id, frame_id, args), "verify_action")

    def score(self, video_id: str, frame_id: int, text: str) -> float:
        return self._unwrap(self.dispatch("score", video_id, frame_id, {"text": text}), "score")

    def complete(self, prompt: str, video_id: str | None = None) -> str:
        return self._unwrap(self.dispatch("complete", video_id, None, {"prompt": prompt}), "complete")
