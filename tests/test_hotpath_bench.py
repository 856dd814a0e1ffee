"""Micro-benchmarks of the per-item hot path: plan text to AST and back, the
oracle's authored single-stage programs, with their blocks, parsed (the only
parses a default grid makes; a stage planner builds its `Program` directly and
parses nothing), one rule-planner stage, the stage-call check of a planned
program, the check of a tool request that returns its content key, text
normalization of a question and of a context block, one caption and one
prediction `complete` from the mock, a replayed caption through a session, one
request over a loopback wire, context assembly, and one whole oracle item
through `run_morevqa` on the mock and on a replay of its recording.

The default run executes each case once, as a test (`--benchmark-disable` in
pyproject). To time them:

    PYTHONPATH=src python -m pytest tests/test_hotpath_bench.py --benchmark-enable
"""

from __future__ import annotations

import itertools

import pytest

from morevqa.core import EvalItem, FrameWindow, MemoryState, QAItem, RunConfig, Settings
from morevqa.lang import parse, render
from morevqa.pipeline import RuleBasedPlanner, _stage_calls, build_context, run_morevqa
from morevqa.planner import rule_plan
from morevqa.prompts import build_planner_prompt, build_predict_prompt
from morevqa.server import start_server
from morevqa.text import normalize_text
from morevqa.tools import (
    RecordingBackend,
    RemoteBackend,
    ReplayBackend,
    ToolRequest,
    ToolSession,
    check_request,
)

QUESTION = "why did the man smile after the dog started running at the beginning of the video?"


@pytest.fixture(scope="module")
def plan_text():
    memory = MemoryState(FrameWindow.full(32), QUESTION)
    return render(rule_plan("event_parsing", memory))


def test_bench_parse(benchmark, plan_text):
    program = benchmark(parse, plan_text)
    assert render(program) == plan_text


def test_bench_parse_extended(benchmark, oracle_bundle):
    texts = list(oracle_bundle.programs.values())

    def parse_all():
        return [parse(text) for text in texts]

    programs = benchmark(parse_all)
    assert len(programs) == 3
    assert [parse(render(p)) for p in programs] == programs


def test_bench_render(benchmark, plan_text):
    program = parse(plan_text)
    assert benchmark(render, program) == plan_text


def test_bench_rule_planner_plan(benchmark):
    memory = MemoryState(FrameWindow.full(32), QUESTION)
    prompt = build_planner_prompt("event_parsing", memory.to_json_dict())
    reply, program = benchmark(RuleBasedPlanner().plan, "event_parsing", memory, prompt, None, None)
    assert reply is None and parse(render(program)) == program


def test_bench_stage_calls(benchmark, plan_text):
    program = parse(plan_text)
    calls = benchmark(_stage_calls, program, "event_parsing")
    assert [name for name, _ in calls] == [stmt.name for stmt in program.statements]


def test_bench_request_key_complete(benchmark):
    req = ToolRequest(1, "complete", "v000", None, {"prompt": "#predict\n" + "x" * 1500})
    key = ("complete", "v000", None, req.args["prompt"])
    assert benchmark(check_request, req) == key


def test_bench_normalize_question(benchmark):
    assert benchmark(normalize_text, QUESTION).startswith("why did the man smile after")


@pytest.fixture(scope="module")
def context_text(oracle_bundle, mock_backend):
    """The rendered context block of an oracle item: 16 caption lines."""
    video = oracle_bundle.fixtures["v000"].video_meta()
    memory = MemoryState(FrameWindow.full(video.frame_count), QUESTION)
    return "\n".join(build_context(memory, video, ToolSession(mock_backend), 16))


def test_bench_normalize_context(benchmark, context_text):
    assert context_text.count("\n") == 15
    assert benchmark(normalize_text, context_text).startswith("frame 1 caption this")


def test_bench_mock_predict(benchmark, oracle_bundle, mock_backend, context_text):
    row = oracle_bundle.rows[4]
    prompt = build_predict_prompt(row["question"], tuple(row["candidates"]),
                                  context_text.split("\n"))
    req = ToolRequest(1, "complete", row["video_id"], None, {"prompt": prompt})
    resp = benchmark(mock_backend.dispatch, req)
    assert resp.ok and resp.result in row["candidates"]


def test_bench_mock_caption(benchmark, mock_backend):
    resp = benchmark(mock_backend.dispatch, ToolRequest(1, "caption", "v000", 3))
    assert resp.ok and resp.result


def test_bench_wire_round_trip(benchmark, mock_backend):
    server = start_server(mock_backend)
    remote = RemoteBackend(*server.server_address[:2])
    # a new question each round, so no reply is answered from the client's store
    questions = (f"what is in frame 3, take {n}?" for n in itertools.count())

    def round_trip():
        return remote.dispatch(ToolRequest(1, "vqa", "v000", 3, {"question": next(questions)}))

    try:
        resp = benchmark(round_trip)
    finally:
        remote.close()
        server.shutdown()
        server.server_close()
    assert resp.ok and resp.result


def test_bench_replayed_caption(benchmark, tmp_path, mock_backend):
    recorder = RecordingBackend(mock_backend, tmp_path / "rec.jsonl")
    expected = ToolSession(recorder).caption("v000", 3)
    recorder.close()
    session = ToolSession(ReplayBackend(tmp_path / "rec.jsonl"))

    def caption():
        session.trace.clear()
        return session.caption("v000", 3)

    assert benchmark(caption) == expected


def test_bench_build_context(benchmark, oracle_bundle, mock_backend):
    video = oracle_bundle.fixtures["v000"].video_meta()
    memory = MemoryState(FrameWindow.full(video.frame_count), QUESTION)
    memory.extra.update({"sq_0": "what is the man doing?", "sq_0_frame_14": "smiling"})
    session = ToolSession(mock_backend)

    def context():
        session.trace.clear()
        return build_context(memory, video, session, 16)

    assert len(benchmark(context)) == 17


def test_bench_run_morevqa_item(benchmark, oracle_bundle, mock_backend):
    row = oracle_bundle.rows[4]  # a two-event conjunction item: every stage does work
    video = oracle_bundle.fixtures[row["video_id"]].video_meta()
    qa = QAItem(row["question"], tuple(row["candidates"]), row["answer_mc"])

    def item():
        return run_morevqa(
            EvalItem(video.video_id, qa), video, ToolSession(mock_backend),
            Settings(RunConfig(), planner=RuleBasedPlanner()),
        )

    outcome = benchmark(item)
    assert outcome.failure is None and outcome.mc_index == qa.answer_mc


def test_bench_run_morevqa_item_on_replay(benchmark, tmp_path, oracle_bundle, mock_backend):
    row = oracle_bundle.rows[4]
    video = oracle_bundle.fixtures[row["video_id"]].video_meta()
    qa = QAItem(row["question"], tuple(row["candidates"]), row["answer_mc"])
    recorder = RecordingBackend(mock_backend, tmp_path / "rec.jsonl")
    live = run_morevqa(
        EvalItem(video.video_id, qa), video, ToolSession(recorder),
        Settings(RunConfig(), planner=RuleBasedPlanner()),
    )
    recorder.close()
    replay = ReplayBackend(tmp_path / "rec.jsonl")

    def item():
        return run_morevqa(
            EvalItem(video.video_id, qa), video, ToolSession(replay),
            Settings(RunConfig(), planner=RuleBasedPlanner()),
        )

    outcome = benchmark(item)
    assert outcome.failure is None and outcome.mc_index == qa.answer_mc
    assert outcome.trace == live.trace
