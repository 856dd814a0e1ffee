from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from morevqa.core import FrameWindow, MemoryState
from morevqa.prompts import build_planner_prompt, build_predict_prompt
from morevqa.tools import (
    FrameRecord,
    MockBackend,
    ObjectRecord,
    RecordingBackend,
    ReplayBackend,
    ReplayMissError,
    ToolRequest,
    ToolResponse,
    ToolSession,
    WorldFixture,
    load_corpus,
    mock_localize,
    mock_score,
    mock_verify_action,
    _request_key,
    canonical_args,
    validate_request,
    validate_result_shape,
)

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
    assert resp.id == 1


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
    prompt = build_planner_prompt("event_parsing", memory)
    resp = backend.dispatch(ToolRequest(1, "complete", "v1", None, {"prompt": prompt}))
    assert resp.ok
    assert 'trim("end")' in resp.result


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
    args = {
        "question": text,
        "text": text,
        "action": text,
        "object": text,
        "frames": list(range(10)),
    }
    resp = backend.dispatch(ToolRequest(1, method, "v1", frame_id, args))
    if resp.ok:
        assert validate_result_shape(method, resp.result)
    else:
        assert resp.error.startswith(("invalid:", "backend:"))


def test_response_invariant_ok_xor_error():
    with pytest.raises(ValueError):
        ToolResponse(1, ok=True, result="x", error="boom")
    with pytest.raises(ValueError):
        ToolResponse(1, ok=False, result=None, error=None)


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
    # a fresh id still matches by content and echoes the new id
    again = replay.dispatch(ToolRequest(77, "caption", "v1", 5))
    assert again.id == 77 and again.result == live[0].result


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
    assert len({_request_key(req) for req in requests}) == 1516
    assert live == run_grid(ReplayBackend(rec_path), tmp_path / "replay")


def test_recorder_keeps_only_ok_replies(tmp_path, backend):
    rec_path = tmp_path / "rec.jsonl"
    recorder = RecordingBackend(backend, rec_path)
    requests = [
        ToolRequest(1, "caption", "v1", 5),
        ToolRequest(2, "caption", "v1", 99),  # backend error: asked again
        ToolRequest(3, "caption", "v1", True),  # invalid: never frame 1's reply
    ]
    for req in requests + requests:
        assert recorder.dispatch(req) == backend.dispatch(req)
    recorder.close()
    lines = rec_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in lines[::2]] == [1, 2, 3, 2, 3]

    replay = ReplayBackend(rec_path)
    assert len(replay) == 2  # the invalid request has no key
    for req in requests:
        assert replay.dispatch(req) == backend.dispatch(req)
        moved = dataclasses.replace(req, id=req.id + 10)  # a hit keeps ok, result and error
        assert replay.dispatch(moved) == backend.dispatch(moved)
    bool_frame = replay.dispatch(ToolRequest(4, "caption", "v1", True))
    assert bool_frame.error.startswith("invalid:")


def test_replay_miss_names_request(tmp_path, backend):
    rec_path = tmp_path / "rec.jsonl"
    recorder = RecordingBackend(backend, rec_path)
    recorder.dispatch(ToolRequest(1, "caption", "v1", 5))
    recorder.close()
    replay = ReplayBackend(rec_path)
    with pytest.raises(ReplayMissError) as err:
        replay.dispatch(ToolRequest(1, "caption", "v1", 6))
    assert "caption" in str(err.value)
    assert "frame_id=6" in str(err.value)


def test_fixture_serialization_round_trip(tmp_path):
    fixture = _fixture()
    data = fixture.to_json_dict()
    assert WorldFixture.from_json_dict(data).to_json_dict() == data
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    corpus = load_corpus(tmp_path)
    assert set(corpus) == {"v1"}


def test_fixture_validation():
    with pytest.raises(ValueError):
        WorldFixture("bad", 1.0, [FrameRecord(1, [], [], "x")])  # ids must start at 0
    with pytest.raises(ValueError):
        WorldFixture("bad", 1.0, [FrameRecord(0, [], [], "")])  # empty caption
    with pytest.raises(ValueError):
        WorldFixture(
            "bad", 1.0,
            [FrameRecord(0, [ObjectRecord("x", [0.5, 0.1, 0.2, 0.9])], [], "c")],
        )


def test_validate_request_rules():
    assert validate_request(ToolRequest(1, "caption", "v1", 0)) is None
    assert validate_request(ToolRequest(1, "caption", None, 0)) is not None
    assert validate_request(ToolRequest(1, "vqa", "v1", 0)) is not None
    assert validate_request(
        ToolRequest(1, "localize", "v1", None, {"object": "x", "frames": "nope"})
    ) is not None
    assert validate_request(ToolRequest(1, "complete", None, None, {})) is not None
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
    for req in wrong_types:
        assert validate_request(req) is not None, req


def test_validate_result_shape_rejects_bools_as_numbers():
    assert not validate_result_shape("score", True)
    assert not validate_result_shape("localize", [[True, [0.1, 0.1, 0.5, 0.5]]])
    assert validate_result_shape("localize", [[1, [0.1, 0.1, 0.5, 0.5]]])


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)


@given(st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=4))
def test_canonical_args_is_sorted_compact_json(args):
    assert canonical_args(args) == json.dumps(args, sort_keys=True, separators=(",", ":"))


def test_request_and_response_are_frozen():
    req = ToolRequest(1, "caption", "v1", 5)
    resp = ToolResponse(1, ok=True, result="x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        req.frame_id = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        resp.result = "y"
