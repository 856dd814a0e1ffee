"""Micro-benchmarks of the per-item hot path: plan text to AST and back, the
content key of a tool request, and a replayed caption through a session.

The default run executes each case once, as a test (`--benchmark-disable` in
pyproject). To time them:

    PYTHONPATH=src python -m pytest tests/test_hotpath_bench.py --benchmark-enable
"""

from __future__ import annotations

import pytest

from morevqa.core import FrameWindow, MemoryState
from morevqa.lang import FLAT, parse, render
from morevqa.planner import rule_plan
from morevqa.tools import RecordingBackend, ReplayBackend, ToolSession, canonical_args

QUESTION = "why did the man smile after the dog started running at the beginning of the video?"


@pytest.fixture(scope="module")
def plan_text():
    memory = MemoryState(FrameWindow.full(32), QUESTION)
    return rule_plan("event_parsing", memory)


def test_bench_parse(benchmark, plan_text):
    program = benchmark(parse, plan_text, FLAT)
    assert render(program) == plan_text


def test_bench_render(benchmark, plan_text):
    program = parse(plan_text, FLAT)
    assert benchmark(render, program) == plan_text


def test_bench_canonical_args(benchmark):
    args = {"question": "what is the man doing?", "prefix": "ocr"}
    assert benchmark(canonical_args, args) == '{"prefix":"ocr","question":"what is the man doing?"}'


def test_bench_replayed_caption(benchmark, tmp_path, mock_backend):
    recorder = RecordingBackend(mock_backend, tmp_path / "rec.jsonl")
    expected = ToolSession(recorder).caption("v000", 3)
    recorder.close()
    session = ToolSession(ReplayBackend(tmp_path / "rec.jsonl"))

    def caption():
        session.trace.clear()
        return session.caption("v000", 3)

    assert benchmark(caption) == expected
