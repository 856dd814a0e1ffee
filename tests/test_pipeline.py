from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from astgen import _NAMES, _WORDS, random_expr
from morevqa.core import (
    EvalItem,
    FrameWindow,
    MemoryState,
    QAItem,
    QAType,
    RunConfig,
    Settings,
    TemporalConjunction,
    TemporalRegion,
    uniform_sample,
)
from morevqa.lang import FLAT, Assign, CallStmt, Program, parse, render
from morevqa.pipeline import (
    STAGE_CALLS,
    RuleBasedPlanner,
    LlmBackedPlanner,
    StageError,
    _stage_calls,
    answer_from_reply,
    apply_conjunction,
    apply_trim,
    build_context,
    final_predict,
    map_reply_to_candidate,
    run_event_parsing,
    run_grounding,
    run_morevqa,
    run_reasoning,
)
from morevqa.prompts import build_planner_prompt
from morevqa.tools import ToolError, ToolSession

RUNNERS = {
    "event_parsing": run_event_parsing,
    "grounding": run_grounding,
    "reasoning": run_reasoning,
}


def _qa(bundle, index):
    row = bundle.rows[index]
    return QAItem(
        question=row["question"],
        candidates=tuple(row["candidates"]) if row.get("candidates") else None,
        answer_mc=row.get("answer_mc"),
        answer_open=tuple(row["answer_open"]) if row.get("answer_open") else None,
        gt_window_s=tuple(row["gt_window_s"]),
    )


def _video(bundle, index):
    return bundle.fixtures[bundle.rows[index]["video_id"]].video_meta()


def _memory(qa, video):
    return MemoryState(frame_ids=FrameWindow.full(video.frame_count), question=qa.question)


def _run_stage(stage, memory, video, session, config=None):
    """Plan one stage with the rule planner and run its program on the
    memory; returns the emitted program text."""
    prompt = build_planner_prompt(stage, memory.to_json_dict())
    reply, program = RuleBasedPlanner().plan(stage, memory, prompt, session, video.video_id)
    assert reply is None  # the rule planner sends no text; its rendering is emitted
    RUNNERS[stage](program, memory, video, session, config or RunConfig())
    return render(program)


def _run_stages(stages, qa, video, session, config=None):
    memory = _memory(qa, video)
    for stage in stages:
        _run_stage(stage, memory, video, session, config)
    return memory


# --- trim ---

def test_apply_trim_end():
    window = FrameWindow(tuple(range(20)))
    assert apply_trim(window, TemporalRegion.END).to_list() == list(range(12, 20))


def test_apply_trim_middle():
    window = FrameWindow(tuple(range(10)))
    assert apply_trim(window, TemporalRegion.MIDDLE).to_list() == [3, 4, 5, 6]


def test_apply_trim_whole_identity():
    window = FrameWindow((2, 5, 9))
    assert apply_trim(window, TemporalRegion.WHOLE) == window


def test_apply_trim_remove_mode_keeps_complement_share():
    window = FrameWindow(tuple(range(20)))
    trimmed = apply_trim(window, TemporalRegion.END, mode="remove")
    assert len(trimmed) == 20 - math.ceil(0.4 * 20)
    assert trimmed.to_list() == list(range(8, 20))


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=60, unique=True),
       st.sampled_from([TemporalRegion.BEGINNING, TemporalRegion.MIDDLE, TemporalRegion.END]))
def test_apply_trim_law(ids, region):
    window = FrameWindow(tuple(sorted(ids)))
    trimmed = apply_trim(window, region)
    assert len(trimmed) == max(1, math.ceil(0.4 * len(window)))
    # contiguous in the index sequence of the window
    positions = [window.to_list().index(f) for f in trimmed]
    assert positions == list(range(positions[0], positions[0] + len(positions)))


# --- conjunction ---

def test_apply_conjunction_examples():
    universe = FrameWindow(tuple(range(30)))
    anchor = FrameWindow((10, 11, 12))
    assert apply_conjunction(anchor, TemporalConjunction.AFTER, universe).to_list() == list(range(13, 30))
    assert apply_conjunction(anchor, TemporalConjunction.BEFORE, universe).to_list() == list(range(10))
    assert apply_conjunction(anchor, TemporalConjunction.WHILE, universe).to_list() == [10, 11, 12]
    assert apply_conjunction(anchor, TemporalConjunction.NONE, universe) == universe


def test_apply_conjunction_empty_falls_back_to_anchor():
    universe = FrameWindow((5, 6, 7))
    anchor = FrameWindow((7,))
    after = apply_conjunction(anchor, TemporalConjunction.AFTER, universe)
    assert after.to_list() == [7]


@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=40, unique=True),
    st.data(),
    st.sampled_from([TemporalConjunction.AFTER, TemporalConjunction.BEFORE, TemporalConjunction.WHILE]),
)
def test_apply_conjunction_subset_of_universe(ids, data, conj):
    universe = FrameWindow(tuple(sorted(ids)))
    anchor_ids = data.draw(
        st.lists(st.sampled_from(universe.to_list()), min_size=1, unique=True)
    )
    anchor = FrameWindow(tuple(sorted(anchor_ids)))
    result = apply_conjunction(anchor, conj, universe)
    assert set(result.to_list()) <= set(universe.to_list())


# --- derived windows ---

def _assert_checked(window):
    """The window equals itself rebuilt through the checked constructor."""
    assert type(window) is FrameWindow and type(window.frame_ids) is tuple
    assert FrameWindow(window.frame_ids) == window


@given(
    st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=40, unique=True),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=64),
    st.data(),
)
def test_derived_windows_equal_checked_windows(ids, frame_count, n, data):
    universe = FrameWindow(tuple(sorted(ids)))
    anchor_ids = data.draw(st.lists(st.sampled_from(universe.to_list()), min_size=1, unique=True))
    anchor = FrameWindow(tuple(sorted(anchor_ids)))
    derived = [FrameWindow.full(frame_count), uniform_sample(frame_count, n)]
    derived += [apply_trim(universe, region, mode)
                for region in TemporalRegion for mode in ("keep", "remove")]
    derived += [apply_conjunction(anchor, conj, universe) for conj in TemporalConjunction]
    for window in derived:
        _assert_checked(window)


def test_grounded_windows_equal_checked_windows(oracle_bundle, mock_backend, monkeypatch):
    import morevqa.pipeline

    # the outcome holds the grounded window as a list; the window object
    # itself is the one prediction's context is built from
    grounded = []

    def context(memory, *args):
        grounded.append(memory.grounded_window)
        return build_context(memory, *args)

    monkeypatch.setattr(morevqa.pipeline, "build_context", context)
    configs = (RunConfig(), RunConfig(trim_mode="remove"),
               RunConfig(grounded_to_prediction_only=True))
    for index, config in itertools.product(range(len(oracle_bundle.rows)), configs):
        qa, video = _qa(oracle_bundle, index), _video(oracle_bundle, index)
        session = ToolSession(mock_backend)
        out = run_morevqa(
            EvalItem(video.video_id, qa), video, session,
            Settings(config, planner=RuleBasedPlanner()),
        )
        assert out.failure is None
        window = grounded.pop()
        _assert_checked(window)
        assert window.to_list() == out.trace["grounded_window"]


# --- stage 1 ---

def test_event_parsing_why_end(oracle_bundle, mock_backend):
    qa = QAItem(question="why is the cat lying on its back at the end of the video?")
    video = _video(oracle_bundle, 0)
    session = ToolSession(mock_backend)
    memory = _memory(qa, video)
    emitted = _run_stage("event_parsing", memory, video, session)
    assert 'trim("end")' in emitted
    assert 'classify("why")' in emitted
    assert memory.qa_type is QAType.WHY
    assert memory.event_queue == ["cat lying on its back"]
    assert memory.frame_ids.to_list() == list(range(19, 32))
    record = run_morevqa(
        EvalItem(video.video_id, qa), video, session,
        Settings(RunConfig(), planner=RuleBasedPlanner()),
    ).trace["stage_records"][0]
    assert record["emitted_program"] == emitted
    assert record["memory_before"]["frame_ids"] == list(range(32))


def test_event_parsing_simple_question_keeps_window(oracle_bundle, mock_backend):
    qa = QAItem(question="what is in the background?")
    video = _video(oracle_bundle, 0)
    memory = _run_stages(["event_parsing"], qa, video, ToolSession(mock_backend))
    assert memory.event_queue == []
    assert memory.frame_ids == FrameWindow.full(32)
    assert memory.qa_type is QAType.WHAT


def test_event_parsing_unknown_call_is_stage_error():
    memory = MemoryState(frame_ids=FrameWindow.full(8), question="q")
    with pytest.raises(StageError) as err:
        run_event_parsing(parse("explode()", FLAT), memory, None, None, RunConfig())
    assert err.value.kind == "unknown_call"


def test_event_parsing_event_overflow():
    memory = MemoryState(frame_ids=FrameWindow.full(8), question="q")
    program = parse('\n'.join(f'parse_event("e{i}")' for i in range(3)), FLAT)
    with pytest.raises(StageError) as err:
        run_event_parsing(program, memory, None, None, RunConfig())
    assert err.value.kind == "event_overflow"


def test_noop_program_leaves_memory_identical():
    config = RunConfig()
    memory = MemoryState(frame_ids=FrameWindow.full(8), question="q")
    snapshot = memory.to_json_dict()
    run_event_parsing(parse("noop()", FLAT), memory, None, None, config)
    assert memory.to_json_dict() == snapshot
    run_event_parsing(Program(), memory, None, None, config)
    assert memory.to_json_dict() == snapshot


# --- stage 2 ---

def test_grounding_verified_frames(oracle_bundle, mock_backend):
    # item 1: end-region event; targets live at frames 22 and 26
    qa = _qa(oracle_bundle, 1)
    video = _video(oracle_bundle, 1)
    session = ToolSession(mock_backend)
    memory = _run_stages(["event_parsing"], qa, video, session)
    start = len(session.trace)
    _run_stage("grounding", memory, video, session)
    assert memory.grounded_window.to_list() == [22, 26]
    methods = [c["method"] for c in session.trace[start:]]
    assert "localize" in methods and "verify_action" in methods and "score" in methods


def test_grounding_empty_queue_middle_frame(oracle_bundle, mock_backend):
    qa = QAItem(question="what is in the background?")
    video = _video(oracle_bundle, 0)
    session = ToolSession(mock_backend)
    memory = _run_stages(["event_parsing"], qa, video, session)
    assert _run_stage("grounding", memory, video, session) == "noop()"
    assert memory.grounded_window.to_list() == [16]


def test_grounding_empty_program_is_the_middle_frame(oracle_bundle, mock_backend):
    qa = _qa(oracle_bundle, 1)
    video = _video(oracle_bundle, 1)
    session = ToolSession(mock_backend)
    memory = _run_stages(["event_parsing"], qa, video, session)
    start = len(session.trace)
    run_grounding(Program(), memory, video, session, RunConfig())
    assert memory.grounded_window.to_list() == [memory.frame_ids.middle_frame()] == [25]
    assert session.trace[start:] == []


def test_grounding_two_events_after(oracle_bundle, mock_backend):
    # item 4 is a conjunction item: anchors at 6/7, targets at 20/22, decoy at 2
    qa = _qa(oracle_bundle, 4)
    video = _video(oracle_bundle, 4)
    session = ToolSession(mock_backend)
    memory = _run_stages(["event_parsing"], qa, video, session)
    assert memory.conjunction is TemporalConjunction.AFTER
    _run_stage("grounding", memory, video, session)
    grounded = memory.grounded_window.to_list()
    assert grounded == [20, 22]
    assert all(f > 7 for f in grounded)  # strictly after the last anchor frame


def test_grounding_subset_of_frame_ids(oracle_bundle, mock_backend):
    for index in range(len(oracle_bundle.rows)):
        qa = _qa(oracle_bundle, index)
        video = _video(oracle_bundle, index)
        session = ToolSession(mock_backend)
        memory = _run_stages(["event_parsing"], qa, video, session)
        assert set(memory.frame_ids) <= set(range(video.frame_count))
        _run_stage("grounding", memory, video, session)
        assert set(memory.grounded_window) <= set(memory.frame_ids)


# --- stage 3 ---

ALL_STAGES = ["event_parsing", "grounding", "reasoning"]


def test_reasoning_why_subquestions(oracle_bundle, mock_backend):
    qa = _qa(oracle_bundle, 0)
    video = _video(oracle_bundle, 0)
    memory = _run_stages(ALL_STAGES, qa, video, ToolSession(mock_backend))
    subqs = [v for k, v in memory.extra.items() if "_frame_" not in k]
    assert any("doing?" in s for s in subqs)
    assert any("interacting with?" in s for s in subqs)
    assert any("_frame_" in k for k in memory.extra)


def test_reasoning_zero_subquestions_asks_question(oracle_bundle, mock_backend):
    qa = QAItem(question="what is in the background?")
    video = _video(oracle_bundle, 0)
    memory = _run_stages(ALL_STAGES, qa, video, ToolSession(mock_backend))
    assert memory.extra["sq_0"] == "what is in the background?"
    assert any(k.startswith("sq_0_frame_") for k in memory.extra)


def test_reasoning_empty_program_asks_the_question_on_grounded_frames(
    oracle_bundle, mock_backend
):
    qa = _qa(oracle_bundle, 1)
    video = _video(oracle_bundle, 1)
    session = ToolSession(mock_backend)
    memory = _run_stages(ALL_STAGES[:2], qa, video, session)
    start = len(session.trace)
    run_reasoning(Program(), memory, video, session, RunConfig())
    asked = session.trace[start:]
    assert [c["args"]["frame_id"] for c in asked] == memory.grounded_window.to_list()
    assert all(c["args"]["question"] == memory.question for c in asked)
    assert memory.extra["sq_0"] == memory.question


def test_reasoning_ocr_prefix_on_every_vqa(oracle_bundle, mock_backend):
    index = 5  # the sign-reading item
    qa = _qa(oracle_bundle, index)
    video = _video(oracle_bundle, index)
    session = ToolSession(mock_backend)
    memory = _run_stages(["event_parsing"], qa, video, session)
    assert memory.require_ocr
    _run_stage("grounding", memory, video, session)
    _run_stage("reasoning", memory, video, session)
    vqa_calls = [c for c in session.trace if c["method"] == "vqa"]
    assert vqa_calls
    assert all(c["args"].get("prefix") == "ocr" for c in vqa_calls)


# --- context and prediction ---

def test_build_context_counts_and_sorting(oracle_bundle, mock_backend):
    video = _video(oracle_bundle, 0)
    memory = MemoryState(frame_ids=FrameWindow.full(32), question="q")
    memory.extra["sq_0"] = "what is here?"
    memory.extra["sq_0_frame_14"] = "an answer"
    session = ToolSession(mock_backend)
    lines = build_context(memory, video, session, 16)
    assert len(lines) == 17
    frame_ids = [int(line[len("[frame "):line.index("]")]) for line in lines]
    assert frame_ids == sorted(frame_ids)
    qa_line = next(l for l in lines if "] qa: " in l)
    assert qa_line == "[frame 14] qa: what is here? -> an answer"
    position = lines.index(qa_line)
    assert lines[position - 1].startswith("[frame 13] caption:")
    assert lines[position + 1].startswith("[frame 15] caption:")


def test_build_context_pure_captions_without_grounding(oracle_bundle, mock_backend):
    video = _video(oracle_bundle, 0)
    memory = MemoryState(frame_ids=FrameWindow.full(32), question="q")
    lines = build_context(memory, video, ToolSession(mock_backend), 16)
    assert all(line.split("] ", 1)[1].startswith("caption: ") for line in lines)
    assert len(lines) == 16


def test_map_reply_overlap_and_exact():
    candidates = ("blue bird", "green turtle", "red fox")
    assert map_reply_to_candidate("green turtle", candidates) == 1
    assert map_reply_to_candidate("a very red fox indeed", candidates) == 2
    assert map_reply_to_candidate("nothing matches", candidates) == 0  # falls back, never errors


def test_answer_from_reply_maps_or_passes_through():
    candidates = ("blue bird", "green turtle")
    assert answer_from_reply("a green turtle", candidates) == ("green turtle", 1)
    assert answer_from_reply("a green turtle", None) == ("a green turtle", None)


def test_final_predict_single_candidate(oracle_bundle, mock_backend):
    qa = QAItem(question="q?", candidates=("only option",))
    answer, idx, prompt, _ = final_predict([], qa, ToolSession(mock_backend), "v000")
    assert idx == 0 and answer == "only option"
    assert prompt.startswith("#predict")


def test_final_predict_open_ended_passthrough(oracle_bundle, mock_backend):
    # open item: the pool comes from the fixture qa notes
    index = 7
    qa = _qa(oracle_bundle, index)
    video_id = oracle_bundle.rows[index]["video_id"]
    correct = oracle_bundle.rows[index]["answer_open"][0]
    context = [f"[frame 3] qa: q -> {correct}"]
    answer, idx, _, reply = final_predict(context, qa, ToolSession(mock_backend), video_id)
    assert idx is None
    assert answer == reply == correct


# --- full runs ---

def test_run_morevqa_mask_m2_off_middle_frame(oracle_bundle, mock_backend):
    qa = _qa(oracle_bundle, 1)
    video = _video(oracle_bundle, 1)
    out = run_morevqa(
        EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
        Settings(RunConfig(stage_mask=(True, False, True)), planner=RuleBasedPlanner()),
    )
    # middle frame of the trimmed end window [19..31]
    assert out.trace["grounded_window"] == [25]


def test_run_morevqa_all_off_has_no_vqa_calls(oracle_bundle, mock_backend):
    qa = _qa(oracle_bundle, 1)
    video = _video(oracle_bundle, 1)
    session = ToolSession(mock_backend)
    out = run_morevqa(
        EvalItem(video.video_id, qa), video, session,
        Settings(RunConfig(stage_mask=(False, False, False)), planner=RuleBasedPlanner()),
    )
    assert not [c for c in session.trace if c["method"] == "vqa"]
    assert len(out.trace["stage_records"]) == 4
    assert [r["stage_name"] for r in out.trace["stage_records"]] == [
        "event_parsing", "grounding", "reasoning", "prediction",
    ]


def test_run_morevqa_m3_off_question_only_vqa(oracle_bundle, mock_backend):
    qa = _qa(oracle_bundle, 1)
    video = _video(oracle_bundle, 1)
    session = ToolSession(mock_backend)
    out = run_morevqa(
        EvalItem(video.video_id, qa), video, session,
        Settings(RunConfig(stage_mask=(True, True, False)), planner=RuleBasedPlanner()),
    )
    vqa_calls = [c for c in session.trace if c["method"] == "vqa"]
    assert vqa_calls
    revised = out.trace["stage_records"][0]["memory_after"]["question"]
    assert all(c["args"]["question"] == revised for c in vqa_calls)


def test_default_item_renders_once_per_stage_and_parses_nothing(
        oracle_bundle, mock_backend, monkeypatch):
    import morevqa.lang
    import morevqa.pipeline

    calls = {"render": 0, "parse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(morevqa.pipeline, "render", counted("render", morevqa.pipeline.render))
    for module in (morevqa.pipeline, morevqa.lang):
        monkeypatch.setattr(module, "parse", counted("parse", morevqa.lang.parse))
    qa, video = _qa(oracle_bundle, 4), _video(oracle_bundle, 4)
    out = run_morevqa(
        EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
        Settings(RunConfig(), planner=RuleBasedPlanner()),
    )
    assert out.failure is None and out.mc_index == qa.answer_mc
    assert calls == {"render": 3, "parse": 0}
    # the rule planner's rendering is both the emitted and the parsed program
    for record in out.trace["stage_records"][:3]:
        assert record["emitted_program"] == record["parsed_program"]


def test_run_morevqa_failure_is_structured(oracle_bundle, mock_backend):
    class BrokenPlanner:
        kind = "rule_based"

        def plan(self, stage, memory, prompt, session, video_id):
            text = "this is ( not a program"
            return text, parse(text, FLAT)

    qa = _qa(oracle_bundle, 0)
    video = _video(oracle_bundle, 0)
    out = run_morevqa(
        EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
        Settings(RunConfig(), planner=BrokenPlanner()),
    )
    assert out.failure is not None
    assert out.failure["stage"] == "event_parsing"
    assert out.failure["kind"] == "parse_error"


def test_llm_backed_planner_matches_rule_planner_under_mock(oracle_bundle, mock_backend):
    for index in (0, 4, 5, 6):
        qa = _qa(oracle_bundle, index)
        video = _video(oracle_bundle, index)
        rule = run_morevqa(
            EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
            Settings(RunConfig(), planner=RuleBasedPlanner()),
        )
        llm = run_morevqa(
            EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
            Settings(RunConfig(), planner=LlmBackedPlanner()),
        )
        assert rule.answer == llm.answer
        assert [r["emitted_program"] for r in rule.trace["stage_records"][:3]] == [
            r["emitted_program"] for r in llm.trace["stage_records"][:3]
        ]


def test_run_morevqa_determinism(oracle_bundle, mock_backend):
    qa = _qa(oracle_bundle, 4)
    video = _video(oracle_bundle, 4)
    first = run_morevqa(
        EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
        Settings(RunConfig(), planner=RuleBasedPlanner()),
    )
    second = run_morevqa(
        EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
        Settings(RunConfig(), planner=RuleBasedPlanner()),
    )
    import json

    assert json.dumps(first.trace) == json.dumps(second.trace)


class _RecordedCallSession:
    """Serves tool results straight from a stage record's call list, in
    order, so a stage can be replayed without any backend."""

    def __init__(self, tool_calls):
        self.queue = list(tool_calls)
        self.trace = []

    def _pop(self, method):
        assert self.queue, f"replaying {method} but the record has no more calls"
        entry = self.queue.pop(0)
        assert entry["method"] == method, (entry["method"], method)
        return entry["result"]

    def localize(self, video_id, phrase, frames, stage=None):
        return self._pop("localize")

    def score(self, video_id, frame_id, text):
        return self._pop("score")

    def verify_action(self, video_id, frame_id, action):
        return self._pop("verify_action")

    def vqa(self, video_id, frame_id, question, prefix=None):
        return self._pop("vqa")


def test_stage_records_replay_to_memory_after(oracle_bundle, mock_backend):
    """memory_after must be reachable from memory_before by re-running the
    recorded program (the empty one for a disabled stage) against the
    recorded tool results."""
    masks = [(True, True, True), (True, False, True), (True, True, False), (False, False, True)]
    for mask, index in itertools.product(masks, (0, 1, 4, 5, 6)):
        config = RunConfig(stage_mask=mask)
        qa = _qa(oracle_bundle, index)
        video = _video(oracle_bundle, index)
        out = run_morevqa(
            EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
            Settings(config, planner=RuleBasedPlanner()),
        )
        for record in out.trace["stage_records"][:3]:
            memory = MemoryState.from_json_dict(record["memory_before"])
            replay = _RecordedCallSession(record["tool_calls"])
            parsed = record["parsed_program"]
            program = parse(parsed, FLAT) if parsed else Program()
            RUNNERS[record["stage_name"]](program, memory, video, replay, config)
            assert memory.to_json_dict() == record["memory_after"]
            assert replay.queue == []


def test_grounded_to_prediction_only_flag(oracle_bundle, mock_backend):
    qa = _qa(oracle_bundle, 1)
    video = _video(oracle_bundle, 1)
    config = RunConfig(grounded_to_prediction_only=True)
    session = ToolSession(mock_backend)
    out = run_morevqa(
        EvalItem(video.video_id, qa), video, session,
        Settings(config, planner=RuleBasedPlanner()),
    )
    # reasoning only saw the ungrounded middle frame
    vqa_frames = {c["args"]["frame_id"] for c in session.trace if c["method"] == "vqa"}
    assert vqa_frames == {25}
    # the true grounded window still reaches prediction and the output
    assert out.trace["grounded_window"] == [22, 26]
    assert "grounded frames: [22, 26]" in out.trace["stage_records"][-1]["planner_prompt"]


# --- the stage-call contract ---

class _OneStagePlanner:
    """Answers one stage with a fixed program text (or raises the exception
    given in its place) and plans every other stage by the rules."""

    kind = "rule_based"

    def __init__(self, stage, text):
        self.stage = stage
        self.text = text

    def plan(self, stage, memory, prompt, session, video_id):
        if stage != self.stage:
            return RuleBasedPlanner().plan(stage, memory, prompt, session, video_id)
        if isinstance(self.text, Exception):
            raise self.text
        return self.text, parse(self.text, FLAT)


# (stage, planner output, failure kind); item 0 parses one event
STAGE_FAILURES = [
    ("event_parsing", "x = 1", "bad_statement"),
    ("grounding", 'x = localize("cat")', "bad_statement"),
    ("event_parsing", "explode()", "unknown_call"),
    ("grounding", "explode()", "unknown_call"),
    ("reasoning", "explode()", "unknown_call"),
    ("grounding", 'trim("end")', "unknown_call"),
    ("event_parsing", "parse_event()", "bad_argument"),
    ("event_parsing", "revise_question()", "bad_argument"),
    ("event_parsing", "require_ocr()", "bad_argument"),
    ("event_parsing", "noop(1)", "bad_argument"),
    ("event_parsing", 'trim("end", 3)', "bad_argument"),
    ("grounding", "localize()", "bad_argument"),
    ("grounding", "verify_action()", "bad_argument"),
    ("grounding", 'localize("dog", 1)', "bad_argument"),
    ("grounding", 'anchor_then_shift("cat")', "bad_argument"),
    ("reasoning", "subquestion()", "bad_argument"),
    ("reasoning", "vqa_on_grounded()", "bad_argument"),
    ("event_parsing", "trim(3)", "bad_argument"),
    ("event_parsing", 'require_ocr("false")', "bad_argument"),
    ("grounding", "localize(1)", "bad_argument"),
    ("reasoning", "vqa_on_grounded(5)", "bad_argument"),
    ("reasoning", "vqa_on_grounded(1.5)", "bad_argument"),
    ("event_parsing", "parse_event(true)", "bad_argument"),
    ("grounding", "verify_action(false)", "bad_argument"),
    ("event_parsing", 'classify("whence")', "bad_argument"),
    ("event_parsing", 'trim("End")', "bad_argument"),
    ("event_parsing", 'set_conjunction("during")', "bad_argument"),
    ("event_parsing", "parse_event([])", "bad_argument"),
    ("reasoning", 'subquestion(["what?"])', "bad_argument"),
    ("grounding", "localize(dog)", "bad_argument"),
    ("event_parsing", 'parse_event("a")\nparse_event("b")\nparse_event("c")', "event_overflow"),
    ("grounding", "anchor_then_shift()", "bad_call"),
    ("reasoning", "subquestion(", "parse_error"),
    ("grounding", ToolError("complete", "backend: down"), "planner_error"),
]


@pytest.mark.parametrize("stage,text,kind", STAGE_FAILURES)
def test_every_stage_error_kind_is_charged_to_its_stage(
    stage, text, kind, oracle_bundle, mock_backend
):
    qa = _qa(oracle_bundle, 0)
    video = _video(oracle_bundle, 0)
    out = run_morevqa(
        EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
        Settings(RunConfig(), planner=_OneStagePlanner(stage, text)),
    )
    assert out.failure is not None
    assert (out.failure["stage"], out.failure["kind"]) == (stage, kind)
    assert [r["stage_name"] for r in out.trace["stage_records"]] == list(STAGE_CALLS)[
        : list(STAGE_CALLS).index(stage)
    ]


def test_bad_argument_names_the_signature():
    with pytest.raises(StageError) as err:
        _stage_calls(parse("trim(3)", FLAT), "event_parsing")
    assert err.value.message == "expected trim(beginning|middle|end|whole), got trim(3)"


def test_stage_calls_convert_arguments_and_drop_noop():
    program = parse('noop()\ntrim("end")\nrequire_ocr(false)\nparse_event("x")', FLAT)
    assert _stage_calls(program, "event_parsing") == [
        ("trim", [TemporalRegion.END]), ("require_ocr", [False]), ("parse_event", ["x"]),
    ]


def test_rule_plan_calls_type_check_against_stage_calls(oracle_bundle, mock_backend):
    for index in range(len(oracle_bundle.rows)):
        qa = _qa(oracle_bundle, index)
        video = _video(oracle_bundle, index)
        out = run_morevqa(
            EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
            Settings(RunConfig(), planner=RuleBasedPlanner()),
        )
        assert out.failure is None
        for record in out.trace["stage_records"][:3]:
            program = parse(record["emitted_program"], FLAT)
            calls = _stage_calls(program, record["stage_name"])
            assert [name for name, _ in calls] == [
                stmt.name for stmt in program.statements if stmt.name != "noop"
            ]


def test_multi_line_question_plans_alike_under_both_planners(oracle_bundle, mock_backend):
    row = oracle_bundle.rows[4]
    qa = QAItem("note:\n" + row["question"], tuple(row["candidates"]), row["answer_mc"])
    video = _video(oracle_bundle, 4)
    rule = run_morevqa(
        EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
        Settings(RunConfig(), planner=RuleBasedPlanner()),
    )
    llm = run_morevqa(
        EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
        Settings(RunConfig(), planner=LlmBackedPlanner()),
    )
    assert rule.failure is None and llm.failure is None
    programs = [r["emitted_program"] for r in rule.trace["stage_records"][:3]]
    assert programs == [r["emitted_program"] for r in llm.trace["stage_records"][:3]]
    assert "anchor_then_shift()" in programs[1]
    assert rule.mc_index == llm.mc_index == qa.answer_mc


_CALL_NAMES = sorted({name for calls in STAGE_CALLS.values() for name in calls}) + _WORDS


def _hostile_program(rng: random.Random, stage: str) -> Program:
    """A flat program of calls with arbitrary arguments, half of them to the
    stage's own call names and the rest to any stage's or to none; some
    statements are assignments."""
    stmts = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.2:
            stmts.append(Assign(rng.choice(_NAMES), random_expr(rng, 1)))
            continue
        names = list(STAGE_CALLS[stage]) if rng.random() < 0.5 else _CALL_NAMES
        args = tuple(random_expr(rng, 1) for _ in range(rng.randint(0, 2)))
        stmts.append(CallStmt(rng.choice(names), args))
    return Program(tuple(stmts))


@settings(max_examples=150, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    stage=st.sampled_from(list(STAGE_CALLS)),
    index=st.sampled_from([0, 1, 4, 5]),
)
def test_hostile_planner_output_fails_its_stage_or_runs(
    oracle_bundle, mock_backend, rng, stage, index
):
    text = render(_hostile_program(rng, stage))
    qa = _qa(oracle_bundle, index)
    video = _video(oracle_bundle, index)
    out = run_morevqa(
        EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
        Settings(RunConfig(), planner=_OneStagePlanner(stage, text)),
    )
    if out.failure is not None:
        assert out.failure["stage"] == stage, (text, out.failure)
        assert out.failure["kind"] in (
            "bad_statement", "unknown_call", "bad_argument", "event_overflow", "bad_call",
        ), (text, out.failure)
