from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from morevqa import tools
from morevqa.core import FrameWindow, MemoryState
from morevqa.prompts import build_planner_prompt, build_predict_prompt
from morevqa.server import start_server
from morevqa.tools import (
    METHOD_ARGS,
    METHODS,
    REQUIRED,
    FixtureError,
    FrameRecord,
    MockBackend,
    ObjectRecord,
    RecordingBackend,
    RecordingError,
    RemoteBackend,
    ReplayBackend,
    ReplayMissError,
    ToolRequest,
    ToolResponse,
    ToolSession,
    WorldFixture,
    check_request,
    load_corpus,
    load_fixture,
    mock_localize,
    mock_score,
    mock_verify_action,
    validate_result_shape,
)

from conftest import CONTRACT_PROBES

BOX = [0.1, 0.1, 0.5, 0.5]


def _fixture() -> WorldFixture:
    frames = []
    for i in range(10):
        objects = []
        actions = []
        caption = f"frame number {i}"
        if i in (2, 3, 7):
            objects.append(ObjectRecord("ball", list(BOX)))
        if i == 5:
            caption = "a person is throwing a baseball in a field"
            actions.append("throwing a baseball")
        if i == 4:
            objects.append(ObjectRecord("catapult", list(BOX)))
        frames.append(FrameRecord(i, objects, actions, caption))
    return WorldFixture(video_id="v1", fps=1.0, frames=frames)


@pytest.fixture()
def backend() -> MockBackend:
    return MockBackend({"v1": _fixture()})


def test_caption_returns_fixture_text(backend):
    resp = backend.dispatch(ToolRequest(1, "caption", "v1", 5))
    assert resp.ok
    assert resp.result == "a person is throwing a baseball in a field"
    assert resp.error is None


def test_verify_action_exact_membership(backend):
    ok = backend.dispatch(
        ToolRequest(1, "verify_action", "v1", 5, {"action": "throwing a baseball"})
    )
    assert ok.result is True
    no = backend.dispatch(
        ToolRequest(2, "verify_action", "v1", 4, {"action": "throwing a baseball"})
    )
    assert no.result is False


def test_localize_reads_fixture(backend):
    resp = backend.dispatch(
        ToolRequest(1, "localize", "v1", None, {"object": "ball", "frames": list(range(10))})
    )
    assert [entry[0] for entry in resp.result] == [2, 3, 7]
    for _, box in resp.result:
        assert box == BOX


def test_mock_localize_whole_word_rules():
    fixture = _fixture()
    assert [e[0] for e in mock_localize(fixture, "the ball", range(10))] == [2, 3, 7]
    # "cat" does not match the object "catapult"
    assert mock_localize(fixture, "cat", range(10)) == []
    assert [e[0] for e in mock_localize(fixture, "catapult", range(10))] == [4]


def test_mock_score_examples():
    frames = [FrameRecord(0, [], [], "red ball bounces high")]
    fixture = WorldFixture("s", 1.0, frames)
    assert mock_score(fixture, 0, "red ball bounces high") == 1.0
    assert mock_score(fixture, 0, "entirely unrelated words") == 0.0
    # two shared tokens over a four-token union
    assert mock_score(fixture, 0, "red ball") == 0.5


@given(st.lists(st.sampled_from(["red", "ball", "cat", "dog", "sky"]), min_size=1, max_size=6))
def test_mock_score_token_order_invariant(words):
    frames = [FrameRecord(0, [], [], "red ball near a dog")]
    fixture = WorldFixture("s", 1.0, frames)
    text = " ".join(words)
    shuffled = " ".join(reversed(words))
    assert mock_score(fixture, 0, text) == mock_score(fixture, 0, shuffled)


def test_mock_verify_query_containing_action():
    frames = [FrameRecord(0, [], ["lying on its back"], "a cat")]
    fixture = WorldFixture("s", 1.0, frames)
    assert mock_verify_action(fixture, 0, "cat lying on its back")
    assert not mock_verify_action(fixture, 0, "standing up")


def test_mock_complete_predict_overlap_and_tie(backend):
    prompt = build_predict_prompt(
        "what is it?",
        ("a cloudy sky", "throwing a baseball", "nothing at all"),
        ["[frame 5] caption: a person is throwing a baseball in a field"],
    )
    resp = backend.dispatch(ToolRequest(1, "complete", "v1", None, {"prompt": prompt}))
    assert resp.result == "throwing a baseball"
    # equal overlap resolves to the lowest index
    tie_prompt = build_predict_prompt("q?", ("zebra", "yak"), ["no overlap here"])
    resp = backend.dispatch(ToolRequest(2, "complete", "v1", None, {"prompt": tie_prompt}))
    assert resp.result == "zebra"


def test_mock_complete_planner_routes_to_rules(backend):
    memory = MemoryState(frame_ids=FrameWindow.full(10),
                         question="why is the cat lying on its back at the end of the video?")
    prompt = build_planner_prompt("event_parsing", memory.to_json_dict())
    resp = backend.dispatch(ToolRequest(1, "complete", "v1", None, {"prompt": prompt}))
    assert resp.ok
    assert 'trim("end")' in resp.result


@pytest.mark.parametrize("prompt", [
    "#planner:grounding\nmemory: []",
    "#planner:grounding\nmemory: {}",
    '#planner:nosuch\nmemory: {"frame_ids": [0, 1], "question": "why?"}',
    # fields of the wrong JSON type are refused, not coerced
    '#planner:grounding\nmemory: {"frame_ids": [0.5, 1.9, "4"], "question": "why?"}',
    '#planner:grounding\nmemory: {"frame_ids": [true, 2], "question": "why?"}',
    '#planner:reasoning\nmemory: {"frame_ids": [0, 1], "question": "why?", "require_ocr": "false"}',
    '#planner:grounding\nmemory: {"frame_ids": [0, 1], "question": "why?", "event_queue": "ab"}',
])
def test_mock_complete_bad_planner_prompt_is_backend_error(backend, prompt):
    resp = backend.dispatch(ToolRequest(1, "complete", "v1", None, {"prompt": prompt}))
    assert not resp.ok and resp.error.startswith("backend:")


def test_mock_complete_missing_header(backend):
    resp = backend.dispatch(ToolRequest(1, "complete", "v1", None, {"prompt": "hello"}))
    assert not resp.ok
    assert resp.error.startswith("backend:")


def test_dispatch_error_prefixes(backend):
    invalid = backend.dispatch(ToolRequest(1, "caption", "v1", None))
    assert not invalid.ok and invalid.error.startswith("invalid:")
    unknown_method = backend.dispatch(ToolRequest(2, "describe", "v1", 0))
    assert unknown_method.error.startswith("invalid:")
    unknown_video = backend.dispatch(ToolRequest(3, "caption", "nope", 0))
    assert unknown_video.error.startswith("backend:")
    unknown_frame = backend.dispatch(ToolRequest(4, "caption", "v1", 99))
    assert unknown_frame.error.startswith("backend:")


def test_mock_is_pure_function_of_request(backend):
    req = ToolRequest(9, "score", "v1", 5, {"text": "throwing a baseball"})
    assert backend.dispatch(req) == backend.dispatch(req)


_METHOD_STRATEGY = st.sampled_from(["caption", "vqa", "localize", "verify_action", "score"])


@given(
    _METHOD_STRATEGY,
    st.integers(min_value=-3, max_value=12),
    st.text(max_size=12),
)
def test_fuzzed_requests_validate_or_error(method, frame_id, text):
    backend = MockBackend({"v1": _fixture()})
    args = {name: list(range(10)) if name == "frames" else text
            for name, (_, required) in METHOD_ARGS[method].args.items() if required}
    resp = backend.dispatch(ToolRequest(1, method, "v1", frame_id, args))
    if resp.ok:
        assert validate_result_shape(method, resp.result)
    else:
        assert resp.error.startswith(("invalid:", "backend:"))


def test_response_invariant_ok_xor_error():
    with pytest.raises(ValueError):
        ToolResponse(ok=True, result="x", error="boom")
    with pytest.raises(ValueError):
        ToolResponse(ok=False, result=None, error=None)


def test_session_ids_monotonic_and_trace(backend):
    session = ToolSession(backend)
    session.caption("v1", 0)
    session.score("v1", 0, "frame number 0")
    assert [t["method"] for t in session.trace] == ["caption", "score"]
    with pytest.raises(Exception):
        session.caption("missing", 0)
    assert len(session.trace) == 3  # failures are traced too


def test_record_then_replay(tmp_path, backend):
    rec_path = tmp_path / "rec.jsonl"
    recorder = RecordingBackend(backend, rec_path)
    requests = [
        ToolRequest(1, "caption", "v1", 5),
        ToolRequest(2, "score", "v1", 5, {"text": "baseball"}),
        ToolRequest(3, "localize", "v1", None, {"object": "ball", "frames": [0, 1, 2, 3]}),
    ]
    live = [recorder.dispatch(req) for req in requests]
    recorder.close()

    lines = [l for l in rec_path.read_text(encoding="utf-8").splitlines() if l]
    assert len(lines) == 2 * len(requests)  # alternating request, response

    replay = ReplayBackend(rec_path)
    replayed = [replay.dispatch(req) for req in requests]
    assert replayed == live
    # a fresh id still matches by content and gets the recorded reply itself
    again = replay.dispatch(ToolRequest(77, "caption", "v1", 5))
    assert again is replayed[0] and again.result == live[0].result


def test_recorded_grid_holds_each_distinct_request_once(tmp_path, mock_backend, run_grid):
    rec_path = tmp_path / "grid.jsonl"
    recorder = RecordingBackend(mock_backend, rec_path)
    try:
        live = run_grid(recorder, tmp_path / "live")
    finally:
        recorder.close()
    lines = rec_path.read_text(encoding="utf-8").splitlines()
    requests = [ToolRequest.from_json_dict(json.loads(line)) for line in lines[::2]]
    assert len(requests) == 1516
    assert len({check_request(req) for req in requests}) == 1516
    assert live == run_grid(ReplayBackend(rec_path), tmp_path / "replay")


def test_recording_the_grid_checks_each_request_once_per_layer(tmp_path, mock_backend,
                                                                run_grid, monkeypatch):
    # the store checks each of the 4,424 requests once, and the mock once
    # more for each of the 1,516 it misses
    checked = []

    def counting(req):
        checked.append(req)
        return check_request(req)

    monkeypatch.setattr(tools, "check_request", counting)
    recorder = RecordingBackend(mock_backend, tmp_path / "grid.jsonl")
    try:
        run_grid(recorder, tmp_path / "live")
    finally:
        recorder.close()
    assert recorder.path.read_bytes().count(b"\n") == 2 * 1516
    assert len(checked) == 4424 + 1516 == 5940


# --- the store-backed backends: the wire client, the recorder and replay ---

# Each invalid alias of a valid request would share its store key if it had
# one: `True == 1.0 == 1`, an absent optional arg keys as None, and a caption
# keys no args.
STORE_REQUESTS = [
    ToolRequest(1, "caption", "v1", 5),
    ToolRequest(2, "caption", "v1", 99),  # backend error
    ToolRequest(3, "caption", "v1", None),  # invalid
    ToolRequest(4, "caption", "v1", True),  # invalid, never frame 1's reply
    ToolRequest(5, "caption", "v1", 1),
    ToolRequest(6, "caption", "v1", 1.0),  # invalid, never frame 1's reply
    ToolRequest(7, "caption", "v1", 5, {"pad": 1}),  # invalid, never frame 5's reply
    ToolRequest(8, "vqa", "v1", 5, {"question": "q"}),
    ToolRequest(9, "vqa", "v1", 5, {"question": "q", "prefix": None}),  # invalid
    ToolRequest(10, "localize", "v1", None, {"object": "ball", "frames": [1]}),
    ToolRequest(11, "localize", "v1", None, {"object": "ball", "frames": [True]}),  # invalid
]


class _Counting:
    """Passes requests on and keeps the ids of those that reach it."""

    def __init__(self, dispatch):
        self.inner = dispatch
        self.ids = []

    def dispatch(self, req):
        self.ids.append(req.id)
        return self.inner(req)


def _journal_ids(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["id"] for line in lines[::2]]


@pytest.fixture(params=["remote", "recording", "replay"])
def store_backend(request, backend, tmp_path):
    """A store-backed backend over `backend`, and a function that lists the
    ids of the requests that reached its miss: server requests, journal
    lines, or calls to replay's own miss."""
    if request.param == "remote":
        counting = _Counting(backend.dispatch)
        srv = start_server(counting)
        remote = RemoteBackend(*srv.server_address[:2])
        yield remote, lambda: counting.ids
        remote.close()
        srv.shutdown()
        srv.server_close()
        return
    recorder = RecordingBackend(backend, tmp_path / "rec.jsonl")
    if request.param == "recording":
        yield recorder, lambda: _journal_ids(recorder.path)
        recorder.close()
        return
    for req in STORE_REQUESTS + STORE_REQUESTS:  # error pairs are written twice
        recorder.dispatch(req)
    recorder.close()
    replay = ReplayBackend(recorder.path)
    counting = _Counting(replay._miss)
    replay._miss = counting.dispatch
    yield replay, lambda: counting.ids


def test_store_backed_contract(store_backend, backend):
    store, reached = store_backend
    for req in STORE_REQUESTS + STORE_REQUESTS:
        assert store.dispatch(req) == backend.dispatch(req)
    for req in STORE_REQUESTS:
        moved = dataclasses.replace(req, id=req.id + 100)  # a hit keeps ok, result and error
        assert store.dispatch(moved) == backend.dispatch(moved)
    invalid = [3, 4, 6, 7, 9, 11]
    for i in invalid:  # each one again, and still refused
        assert store.dispatch(STORE_REQUESTS[i - 1]).error.startswith("invalid:")
    if isinstance(store, ReplayBackend):
        # the recorded backend error is served as recorded; only the
        # invalid requests, which have no key, reach the miss
        assert reached() == invalid + invalid + [i + 100 for i in invalid] + invalid
        assert len(store) == 5
    else:
        # each ok reply is asked for once, the error replies every time
        errors = [2] + invalid
        assert reached() == [*range(1, 12)] + errors + [i + 100 for i in errors] + invalid
        assert len(store) == 4


def test_a_store_hit_under_a_new_id_returns_the_stored_reply(store_backend):
    store, _ = store_backend
    kept = 0
    for req in STORE_REQUESTS:
        first = store.dispatch(req)
        again = store.dispatch(dataclasses.replace(req, id=req.id + 100))
        if first.ok:  # an ok reply is kept, and a hit builds no new one
            assert again is first
            kept += 1
    assert kept == 4


def _recorded(req: ToolRequest, reply: str) -> str:
    return json.dumps(req.to_json_dict()) + "\n" + reply + "\n"


_SCORE = ToolRequest(2, "score", "v1", 5, {"text": "x"})
_FIRST_PAIR = _recorded(ToolRequest(1, "caption", "v1", 5),
                        '{"id": 1, "ok": true, "result": "a caption", "error": null}')


@pytest.mark.parametrize("pair, complaint", [
    ("{bad\n{}\n", "bad request line"),
    ("[1]\n[2]\n", "bad request line"),
    ("\xff\n{}\n", "request line is not UTF-8"),
    (json.dumps(_SCORE.to_json_dict()) + "\n", "without a response line"),
    (_recorded(_SCORE, "{bad"), "bad response line"),
    (_recorded(_SCORE, "[" * 100000 + "]" * 100000), "bad response line"),
    (_recorded(_SCORE, '{"id": 2, "ok": true, "result": "not a float", "error": null}'),
     "malformed score reply"),
    (_recorded(_SCORE, '{"id": 3, "ok": true, "result": 0.5, "error": null}'),
     "reply id 3 to request id 2"),
    (_recorded(_SCORE, '{"id": 2, "ok": "no", "result": 0.5, "error": null}'),
     "ok must be a boolean"),
    ('{"id": 2, "method": "caption", "video_id": "v1", "frame_id": 5, "args": ["ab"]}\n'
     '{"id": 2, "ok": true, "result": "c", "error": null}\n', "args must be dict"),
    ('{"id": 2, "method": "vqa", "video_id": "v1", "frame_id": 5, '
     '"args": [["question", "what?"]]}\n{"id": 2, "ok": true, "result": "a", "error": null}\n',
     "args must be dict"),
    # an int too large for a float is still no score in [0, 1]
    (_recorded(_SCORE, '{"id": 2, "ok": true, "result": 1%s, "error": null}' % ("0" * 309)),
     "malformed score reply"),
    # json.loads reads UTF-16 bytes too; a recording line must be UTF-8
    (json.dumps(_SCORE.to_json_dict()).encode("utf-16-le").decode("latin-1") + "\n"
     '{"id": 2, "ok": true, "result": 0.5, "error": null}\n', "bad request line"),
    (_recorded(_SCORE, '{"id": 2, "ok": true, "result": 0.5, "error": null}'
                       .encode("utf-16-le").decode("latin-1")), "bad response line"),
    (_recorded(_SCORE, '{"id": 2, "ok": true, "result": 0.5, "error": "\xff"}'),
     "bad response line"),
    # only an empty line is skipped, as the server answers any other line;
    # a form feed is no JSON whitespace
    ("\x0c\n", "bad request line"),
    ("   \n", "bad request line"),
], ids=["bad-json", "json-array", "not-utf8", "odd-line-count", "bad-reply-json",
        "deep-reply", "reply-shape", "reply-id", "non-bool-ok", "args-string-list",
        "args-pair-list", "huge-int-score", "utf16-request", "utf16-reply", "not-utf8-reply",
        "form-feed-line", "blank-line"])
def test_bad_recording_raises_recording_error(tmp_path, pair, complaint):
    path = tmp_path / "rec.jsonl"
    path.write_bytes((_FIRST_PAIR + pair).encode("latin-1"))
    with pytest.raises(RecordingError) as err:
        ReplayBackend(path)
    assert isinstance(err.value, ValueError)
    assert str(err.value).startswith(f"recording {path}: pair 2: ")
    assert complaint in str(err.value)


def test_replay_miss_names_request(tmp_path, backend):
    rec_path = tmp_path / "rec.jsonl"
    recorder = RecordingBackend(backend, rec_path)
    recorder.dispatch(ToolRequest(1, "caption", "v1", 5))
    recorder.close()
    replay = ReplayBackend(rec_path)
    with pytest.raises(ReplayMissError) as err:
        replay.dispatch(ToolRequest(1, "caption", "v1", 6))
    assert str(err.value) == (
        "replay miss: no recorded response for method=caption video_id='v1' frame_id=6 args={}")
    # args as sorted compact JSON, non-ASCII escaped
    with pytest.raises(ReplayMissError) as err:
        replay.dispatch(ToolRequest(2, "vqa", "v1", 5, {"question": "q\u00e9", "prefix": "ocr"}))
    assert str(err.value) == (
        "replay miss: no recorded response for method=vqa video_id='v1' frame_id=5 "
        'args={"prefix":"ocr","question":"q\\u00e9"}')


def test_fixture_serialization_round_trip(tmp_path):
    fixture = _fixture()
    data = fixture.to_json_dict()
    assert WorldFixture.from_json_dict(data).to_json_dict() == data
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    corpus = load_corpus(tmp_path)
    assert set(corpus) == {"v1"}


def test_fixture_validation():
    for fps in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            WorldFixture("bad", fps, [FrameRecord(0, [], [], "x")])
    with pytest.raises(ValueError):
        WorldFixture("bad", 1.0, [FrameRecord(1, [], [], "x")])  # ids must start at 0
    with pytest.raises(ValueError):
        WorldFixture("bad", 1.0, [FrameRecord(0, [], [], "")])  # empty caption
    with pytest.raises(ValueError):
        WorldFixture(
            "bad", 1.0,
            [FrameRecord(0, [ObjectRecord("x", [0.5, 0.1, 0.2, 0.9])], [], "c")],
        )


def _edited_fixture(edit) -> str:
    data = _fixture().to_json_dict()
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize("text", [
    _edited_fixture(lambda d: d.update(fps=0)),
    _edited_fixture(lambda d: d.pop("frames")),
    _edited_fixture(lambda d: d["frames"][2]["objects"][0].update(box=[0.1, 0.1, 0.5])),
    _edited_fixture(lambda d: d.update(frames="abc")),
    "{bad",
    _edited_fixture(lambda d: d["frames"][1].update(frame_id=1.0)),
    _edited_fixture(lambda d: d["frames"][0].update(frame_id=False)),
    _edited_fixture(lambda d: d.update(fps=True)),
    _edited_fixture(lambda d: d.update(fps="1")),
    _edited_fixture(lambda d: d["frames"][0].update(caption=5)),
    _edited_fixture(lambda d: d["frames"][2]["objects"][0].update(name=5)),
    _edited_fixture(lambda d: d["frames"][5].update(actions="run")),
    _edited_fixture(lambda d: d["frames"][5].update(actions=[5])),
    _edited_fixture(lambda d: d["frames"][2].update(objects={"name": "ball"})),
    _edited_fixture(lambda d: d["frames"][2]["objects"][0].update(box=[0.1, 0.1, True, 0.5])),
    _edited_fixture(lambda d: d["frames"][2]["objects"][0].update(box=["0.1", 0.1, 0.5, 0.5])),
    _edited_fixture(lambda d: d["frames"][2]["objects"][0].update(box="abcd")),
    _edited_fixture(lambda d: d.update(qa_notes=5)),
    _edited_fixture(lambda d: d["frames"][0].update(ocr_text=5)),
    _edited_fixture(lambda d: d.update(video_id=["v1"])),
    "[]",
], ids=["zero-fps", "no-frames", "short-box", "frames-not-a-list", "not-json",
        "float-frame-id", "bool-frame-id", "bool-fps", "string-fps", "int-caption",
        "int-object-name", "string-actions", "int-action", "objects-not-a-list", "bool-box",
        "string-box-coordinate", "string-box", "int-qa-notes", "int-ocr-text", "list-video-id",
        "not-an-object"])
def test_bad_fixture_file_raises_fixture_error(tmp_path, text):
    path = tmp_path / "v1.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FixtureError, match=f"^fixture {path}: "):
        load_fixture(path)


def test_validate_request_rules():
    assert check_request(ToolRequest(1, "caption", "v1", 0)) == ("caption", "v1", 0)
    assert check_request(ToolRequest(1, "caption", None, 0)) == "caption requires video_id"
    assert check_request(ToolRequest(1, "vqa", "v1", 0)) == "vqa requires a question arg"
    assert check_request(
        ToolRequest(1, "localize", "v1", None, {"object": "x", "frames": "nope"})
    ) == "localize got a malformed frames arg"
    assert check_request(ToolRequest(1, "complete", None, None, {})) == (
        "complete requires a prompt arg")
    wrong_types = [
        ToolRequest(1, "caption", "v1", "3"),
        ToolRequest(1, "caption", "v1", True),
        ToolRequest(1, "caption", ["v1"], 0),
        ToolRequest(1, "score", "v1", 0, {"text": ["grey", "cat"]}),
        ToolRequest(1, "vqa", "v1", 0, {"question": 7}),
        ToolRequest(1, "verify_action", "v1", 0, {"action": None}),
        ToolRequest(1, "localize", "v1", None, {"object": "x", "frames": [0, True]}),
        ToolRequest(1, "localize", "v1", None, {"object": 1, "frames": [0]}),
        ToolRequest(1, "complete", {"v": 1}, None, {"prompt": "#predict"}),
        ToolRequest(1, "complete", None, None, {"prompt": ["#predict"]}),
    ]
    for req in wrong_types + CONTRACT_PROBES:
        assert type(check_request(req)) is str, req
    optional_args = [
        ToolRequest(1, "vqa", "v1", 0, {"question": "q", "prefix": "ocr"}),
        ToolRequest(1, "localize", "v1", None, {"object": "x", "frames": [], "stage": "s"}),
        ToolRequest(1, "complete", None, None, {"prompt": "#predict"}),
    ]
    for req in optional_args:
        assert type(check_request(req)) is tuple, req


def test_every_request_the_grid_sends_is_valid(tmp_path, mock_backend, run_grid):
    complaints = []

    class Checking:
        def dispatch(self, req):
            complaints.append(check_request(req))
            return mock_backend.dispatch(req)

    run_grid(Checking(), tmp_path)
    assert len(complaints) == 4424
    assert [c for c in complaints if type(c) is str] == []


def test_validate_result_shape_rejects_bools_as_numbers():
    assert not validate_result_shape("score", True)
    assert not validate_result_shape("localize", [[True, [0.1, 0.1, 0.5, 0.5]]])
    assert not validate_result_shape("localize", [[1, [False, False, True, True]]])
    assert not validate_result_shape("localize", [[1, [0.1, False, 0.5, 0.5]]])
    assert validate_result_shape("localize", [[1, [0.1, 0.1, 0.5, 0.5]]])
    assert validate_result_shape("localize", [[1, [0, 0, 1, 1]]])


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)


# small domains, so two drawn requests are often equal or nearly so
_TEXT = st.sampled_from(["a", "b", "1"])
_EXTRA_ARGS = st.dictionaries(st.sampled_from(["prefix", "stage"]), _TEXT, max_size=2)


def _optional_args(method: str, extras: dict) -> dict:
    return {name: value for name, value in extras.items() if name in METHOD_ARGS[method].args}


@st.composite
def _valid_requests(draw) -> ToolRequest:
    method = draw(st.sampled_from(METHODS))
    row = METHOD_ARGS[method]
    args = _optional_args(method, draw(_EXTRA_ARGS))
    for name, (_, required) in row.args.items():
        if required:
            args[name] = draw(st.lists(st.integers(0, 1), max_size=2) if name == "frames"
                              else _TEXT)
    frame_id = draw(st.integers(0, 1)) if row.frame_id is REQUIRED else None
    video_id = draw(st.sampled_from(["v1", "v2"] if row.video_id is REQUIRED
                                    else ["v1", "v2", None]))
    return ToolRequest(1, method, video_id, frame_id, args)


def _canonical(args: dict) -> str:
    return json.dumps(args, sort_keys=True, separators=(",", ":"))


def _with_other_extras(req: ToolRequest, extras: dict) -> ToolRequest:
    args = {k: v for k, v in req.args.items() if k not in ("prefix", "stage")}
    return ToolRequest(2, req.method, req.video_id, req.frame_id,
                       {**_optional_args(req.method, extras), **args})


@settings(max_examples=500)
@given(_valid_requests(), st.data())
def test_request_key_equal_exactly_when_canonical_content_equal(a, data):
    # b is another request, or a with its optional args drawn again
    b = data.draw(_valid_requests() | _EXTRA_ARGS.map(lambda extras: _with_other_extras(a, extras)))
    key_a, key_b = check_request(a), check_request(b)
    assert type(key_a) is tuple and type(key_b) is tuple
    same = ((a.method, a.video_id, a.frame_id, _canonical(a.args))
            == (b.method, b.video_id, b.frame_id, _canonical(b.args)))
    assert (key_a == key_b) is same
    # the same content under another id and arg order is the same key
    again = ToolRequest(2, a.method, a.video_id, a.frame_id, dict(reversed(a.args.items())))
    assert check_request(again) == key_a


def test_request_key_of_a_non_string_arg_is_never_a_string_key():
    # a non-string text arg is refused, so it never gets a key at all
    for prefix in (1, 1.0, True, None, [1], ["1"]):
        req = ToolRequest(1, "vqa", "v1", 0, {"question": "q", "prefix": prefix})
        assert check_request(req) == "vqa got a malformed prefix arg"
    # args key in table order, an absent optional one as None, frames as a tuple
    assert check_request(ToolRequest(1, "caption", "v1", 0)) == ("caption", "v1", 0)
    assert check_request(ToolRequest(1, "vqa", "v1", 0, {"question": "q"})) == (
        "vqa", "v1", 0, "q", None)
    assert check_request(ToolRequest(1, "vqa", "v1", 0, {"prefix": "ocr", "question": "q"})) == (
        "vqa", "v1", 0, "q", "ocr")
    localize = ToolRequest(1, "localize", "v1", None,
                           {"stage": "s", "frames": [2, 1], "object": "cup"})
    assert check_request(localize) == ("localize", "v1", None, "cup", (2, 1), "s")


def test_request_and_response_are_frozen():
    req = ToolRequest(1, "caption", "v1", 5)
    resp = ToolResponse(ok=True, result="x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        req.frame_id = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        resp.result = "y"


# --- any file content either loads or raises its typed error ---

_REQUEST_LIKE = st.fixed_dictionaries(
    {"id": st.integers(0, 3) | _JSON_VALUES, "method": st.sampled_from(METHODS) | _JSON_VALUES},
    optional={
        "video_id": st.just("v1") | _JSON_VALUES,
        "frame_id": st.integers(0, 9) | _JSON_VALUES,
        "args": st.dictionaries(st.sampled_from(["text", "question", "frames", "prompt"]),
                                _JSON_VALUES, max_size=3) | _JSON_VALUES,
    },
)
_REPLY_LIKE = st.fixed_dictionaries(
    {"id": st.integers(0, 3) | _JSON_VALUES, "ok": st.booleans() | _JSON_VALUES},
    optional={"result": _JSON_VALUES, "error": _JSON_VALUES},
)
_FRAME_LIKE = st.fixed_dictionaries(
    {"frame_id": st.integers(0, 2) | _JSON_VALUES, "caption": st.text(max_size=4) | _JSON_VALUES},
    optional={
        "objects": st.lists(st.fixed_dictionaries(
            {"name": _JSON_VALUES, "box": st.lists(st.floats(0, 1), max_size=5) | _JSON_VALUES}
        ), max_size=2) | _JSON_VALUES,
        "actions": _JSON_VALUES,
        "ocr_text": _JSON_VALUES,
    },
)
_FIXTURE_LIKE = st.fixed_dictionaries(
    {"video_id": st.just("v") | _JSON_VALUES, "fps": st.floats() | _JSON_VALUES,
     "frames": st.lists(_FRAME_LIKE, max_size=3) | _JSON_VALUES},
    optional={"qa_notes": _JSON_VALUES},
)


def _json_bytes(strategy):
    return strategy.map(lambda value: json.dumps(value).encode())


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@settings(deadline=None)
@given(st.lists(st.binary(max_size=12) | _json_bytes(_JSON_VALUES | _REQUEST_LIKE | _REPLY_LIKE),
                max_size=6))
def test_any_recording_loads_or_raises_recording_error(scratch_dir, lines):
    path = scratch_dir / "rec.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        ReplayBackend(path)
    except RecordingError:
        pass


@settings(deadline=None)
@given(st.binary(max_size=24) | _json_bytes(_JSON_VALUES | _FIXTURE_LIKE))
def test_any_fixture_file_loads_or_raises_fixture_error(scratch_dir, data):
    path = scratch_dir / "v.json"
    path.write_bytes(data)
    try:
        load_fixture(path)
    except FixtureError:
        pass
