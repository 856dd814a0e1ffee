from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from morevqa.baselines import (
    JcefConfig,
    jcef_caption_frames,
    run_jcef,
    run_llm_only,
    run_single_stage,
)
from morevqa.core import EvalItem, QAItem, Settings
from morevqa.server import start_server
from morevqa.tools import (
    FrameRecord,
    MockBackend,
    RemoteBackend,
    ReplayBackend,
    ToolSession,
    WorldFixture,
)


def _simple_fixture(n_frames=13) -> WorldFixture:
    frames = []
    for i in range(n_frames):
        caption = f"plain caption {i}"
        if i == 5:
            caption = "a person is throwing a baseball in a field"
        frames.append(FrameRecord(i, [], [], caption))
    return WorldFixture("vb", 1.0, frames)


@pytest.fixture()
def simple_backend():
    return MockBackend({"vb": _simple_fixture()})


def _with_program(tmp_path, video, qa, program):
    """An item whose program file holds `program`."""
    path = tmp_path / "prog.mvp"
    path.write_text(program, encoding="utf-8")
    return EvalItem(video.video_id, qa, program_path=str(path))


def test_jcef_caption_line_format(simple_backend):
    video = _simple_fixture().video_meta()
    qa = QAItem(question="what is happening?", candidates=("throwing a baseball", "sleeping"))
    out = run_jcef(EvalItem(video.video_id, qa), video, ToolSession(simple_backend), Settings())
    assert "[frame 5] caption: a person is throwing a baseball in a field" in out.trace["prompt"]
    assert out.mc_index == 0


def test_jcef_thirteen_frames_thirteen_lines(simple_backend):
    video = _simple_fixture().video_meta()
    qa = QAItem(question="q?", candidates=("a", "b"))
    out = run_jcef(EvalItem(video.video_id, qa), video, ToolSession(simple_backend),
                   Settings(jcef_config=JcefConfig(fps_caption=1.0, frame_fraction=1.0)))
    caption_lines = [l for l in out.trace["prompt"].split("\n") if l.startswith("[frame ")]
    assert len(caption_lines) == 13


def test_jcef_fraction_zero_equals_llm_only(simple_backend):
    video = _simple_fixture().video_meta()
    qa = QAItem(question="q?", candidates=("a", "b"))
    jcef = run_jcef(EvalItem(video.video_id, qa), video, ToolSession(simple_backend),
                    Settings(jcef_config=JcefConfig(frame_fraction=0.0)))
    llm = run_llm_only(EvalItem(video.video_id, qa), None, ToolSession(simple_backend), Settings())
    assert jcef.trace["prompt"] == llm.trace["prompt"]
    assert "[frame " not in jcef.trace["prompt"]
    assert jcef.answer == llm.answer


def test_llm_only_returns_valid_index(simple_backend):
    qa = QAItem(question="q?", candidates=("a", "b", "c"))
    out = run_llm_only(EvalItem("vb", qa), None, ToolSession(simple_backend), Settings())
    assert out.mc_index in range(3)


@settings(max_examples=30)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_jcef_fraction_monotonic_caption_count(a, b):
    video = _simple_fixture(20).video_meta()
    low, high = sorted((a, b))
    n_low = len(jcef_caption_frames(video, JcefConfig(frame_fraction=low)))
    n_high = len(jcef_caption_frames(video, JcefConfig(frame_fraction=high)))
    assert n_low <= n_high


def test_jcef_caption_frames_at_non_unit_fps():
    from morevqa.core import VideoMeta

    # 20 frames at 2 fps is 10 seconds; captioning at 1 fps lands on every
    # other source frame
    video = VideoMeta("v", 20, 2.0, 10.0)
    assert jcef_caption_frames(video, JcefConfig(fps_caption=1.0)) == list(range(0, 20, 2))
    assert jcef_caption_frames(video, JcefConfig(frame_fraction=0.0)) == []


def test_jcef_prompt_stable_across_runs(simple_backend):
    video = _simple_fixture().video_meta()
    qa = QAItem(question="q?", candidates=("a", "b"))
    first = run_jcef(EvalItem(video.video_id, qa), video, ToolSession(simple_backend), Settings())
    second = run_jcef(EvalItem(video.video_id, qa), video, ToolSession(simple_backend), Settings())
    assert first.trace["prompt"] == second.trace["prompt"]


def test_jcef_prompt_golden():
    frames = [FrameRecord(0, [], [], "a red kite"), FrameRecord(1, [], [], "a blue kite")]
    backend = MockBackend({"vg": WorldFixture("vg", 1.0, frames)})
    video = WorldFixture("vg", 1.0, frames).video_meta()
    qa = QAItem(question="which kite?", candidates=("red", "blue"))
    out = run_jcef(EvalItem(video.video_id, qa), video, ToolSession(backend), Settings())
    assert out.trace["prompt"] == "\n".join(
        [
            "#predict",
            "question: which kite?",
            "candidates:",
            "0: red",
            "1: blue",
            "context:",
            "[frame 0] caption: a red kite",
            "[frame 1] caption: a blue kite",
        ]
    )


def test_single_stage_degenerate_program_equals_llm_only(simple_backend, tmp_path):
    video = _simple_fixture().video_meta()
    qa = QAItem(question="what now?", candidates=("a", "b"))
    program = "return llm_query(question)"
    single = run_single_stage(_with_program(tmp_path, video, qa, program), video,
                              ToolSession(simple_backend), Settings())
    llm = run_llm_only(EvalItem(video.video_id, qa), None, ToolSession(simple_backend), Settings())
    assert single.answer == llm.answer
    assert single.failure is None


def test_single_stage_unbound_variable_failure(simple_backend, tmp_path):
    video = _simple_fixture().video_meta()
    qa = QAItem(question="q?", candidates=("a", "b"))
    item = _with_program(tmp_path, video, qa, "return llm_query(quesiton)")
    out = run_single_stage(item, video, ToolSession(simple_backend), Settings())
    assert out.failure is not None
    assert out.failure["kind"] == "runtime_unbound"
    assert "quesiton" in out.failure["message"]


@pytest.mark.parametrize(
    "program", ["return caption(true)", 'return vqa(1.5, "q")', "return localize(5)"]
)
@pytest.mark.parametrize("transport", ["mock", "wire", "replay"])
def test_single_stage_wrong_typed_tool_argument_fails_dispatch(
    program, transport, simple_backend, tmp_path
):
    """A tool argument of the wrong type is not coerced: the request is
    rejected as `invalid:` and the program fails as `runtime_dispatch`."""
    video = _simple_fixture().video_meta()
    qa = QAItem(question="q?", candidates=("a", "b"))
    server = None
    if transport == "wire":
        server = start_server(simple_backend)
        backend = RemoteBackend(*server.server_address[:2])
    elif transport == "replay":
        (tmp_path / "empty.rec").write_text("")
        backend = ReplayBackend(tmp_path / "empty.rec")
    else:
        backend = simple_backend
    try:
        out = run_single_stage(_with_program(tmp_path, video, qa, program), video,
                               ToolSession(backend), Settings())
    finally:
        if server is not None:
            backend.close()
            server.shutdown()
            server.server_close()
    assert out.failure is not None
    assert out.failure["kind"] == "runtime_dispatch"
    assert "invalid:" in out.failure["message"]
    assert "calls" not in out.trace


def test_single_stage_parse_failure(simple_backend, tmp_path):
    video = _simple_fixture().video_meta()
    qa = QAItem(question="q?", candidates=("a", "b"))
    item = _with_program(tmp_path, video, qa, "if broken(:\n  x")
    out = run_single_stage(item, video, ToolSession(simple_backend), Settings())
    assert out.failure is not None and out.failure["kind"] == "parse_error"


def test_single_stage_without_program_reports_missing(simple_backend):
    video = _simple_fixture().video_meta()
    qa = QAItem(question="q?", candidates=("a", "b"))
    out = run_single_stage(EvalItem(video.video_id, qa), video, ToolSession(simple_backend),
                           Settings())
    assert out.failure is not None and out.failure["kind"] == "missing_program"


def test_single_stage_bad_condition_grounds_wrong_frames(oracle_bundle, oracle_dir, mock_backend):
    # item 1 has a trap replica of its event at frame 0, outside the
    # questioned end region; a first-match program falls for it
    row = oracle_bundle.rows[1]
    qa = QAItem(
        question=row["question"],
        candidates=tuple(row["candidates"]),
        answer_mc=row["answer_mc"],
    )
    video = oracle_bundle.fixtures[row["video_id"]].video_meta()
    item = EvalItem(row["video_id"], qa, program_path="programs/item0001.mvp")
    out = run_single_stage(item, video, ToolSession(mock_backend), Settings(dataset_dir=oracle_dir))
    assert out.failure is None
    vqa_calls = [c for c in out.trace["calls"] if c[0] == "vqa"]
    assert vqa_calls and vqa_calls[0][1][0] == 0  # wrong early frame in the trace
    assert out.mc_index != row["answer_mc"]
