"""Every stage mask and every failing tool call, pinned by one digest.

The golden grid runs four of the eight stage masks. This file runs
`run_morevqa` on the oracle corpus under all eight masks, with and without
`grounded_to_prediction_only`, with both planners, and then once more for a
few items with a backend error injected at each call position in turn. The
digest was taken before the stage runners were folded into one loop; any
change to an answer, a stage record or a failure record shows up here.

Over the same grid it also checks the two facts the stage loop relies on:
a rule plan loses nothing by skipping the text round trip, and each stage
boundary has one memory snapshot.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from morevqa.core import STAGE_NAMES, FrameWindow, MemoryState, RunConfig, Settings
from morevqa.harness import load_dataset
from morevqa.lang import parse, render
from morevqa.pipeline import STAGE_CALLS, LlmBackedPlanner, RuleBasedPlanner, run_morevqa
from morevqa.planner import rule_plan
from morevqa.prompts import PLANNER_HEADER_PREFIX
from morevqa.tools import ToolResponse, ToolSession

MASKS = tuple(itertools.product((False, True), repeat=3))
PLANNERS = (RuleBasedPlanner, LlmBackedPlanner)
# why / end region / conjunction / OCR items
FAILING_ITEMS = (0, 1, 4, 5)

MASK_SHA256 = "5f0022b0572f770f038f96fa050e9c2344411a003dfc1613494813b2db15891e"


class FailAt:
    """Answers like its inner backend, except request number `at` (from 1),
    which gets a `backend:` error."""

    def __init__(self, inner, at: int):
        self.inner = inner
        self.at = at
        self.calls = 0

    def dispatch(self, req):
        self.calls += 1
        if self.calls == self.at:
            return ToolResponse(ok=False, error="backend: injected")
        return self.inner.dispatch(req)


@pytest.fixture(scope="module")
def items(oracle_bundle, oracle_dir):
    return [(item, oracle_bundle.fixtures[item.video_id].video_meta())
            for item in load_dataset(oracle_dir / "dataset.jsonl")]


def _run(item, video, config, planner, backend):
    session = ToolSession(backend)
    outcome = run_morevqa(item, video, session, Settings(config, planner=planner()))
    return outcome, session


def _configs():
    for mask, only in itertools.product(MASKS, (False, True)):
        yield RunConfig(stage_mask=mask, grounded_to_prediction_only=only)


def _owner(outcome, session, position: int) -> tuple[str, str]:
    """The stage and failure kind a failure at call `position` (from 1)
    is charged to, read from the clean run: stage records hold their own
    calls, planner calls included, and prediction makes every later one."""
    start = 0
    for record in outcome.trace["stage_records"][:3]:
        start += len(record["tool_calls"])
        if position <= start:
            call = session.trace[position - 1]
            planning = (call["method"] == "complete"
                        and call["args"]["prompt"].startswith(PLANNER_HEADER_PREFIX))
            return record["stage_name"], "planner_error" if planning else "tool_error"
    return "prediction", "tool_error"


def test_every_mask_and_failure_matches_the_digest(items, mock_backend):
    digest = hashlib.sha256()

    def update(outcome, item):
        digest.update(json.dumps(outcome.trace).encode("utf-8") + b"\n")

    runs = 0
    for config, planner in itertools.product(_configs(), PLANNERS):
        for item, video in items:
            update(_run(item, video, config, planner, mock_backend)[0], item)
            runs += 1
    for config, planner in itertools.product(_configs(), PLANNERS):
        for index in FAILING_ITEMS:
            item, video = items[index]
            _, session = _run(item, video, config, planner, mock_backend)
            for at in range(1, len(session.trace) + 1):
                update(_run(item, video, config, planner, FailAt(mock_backend, at))[0], item)
                runs += 1
    assert runs > 8 * 2 * 2 * 30
    assert digest.hexdigest() == MASK_SHA256


@pytest.mark.parametrize("mask", MASKS, ids=lambda m: "".join(str(int(b)) for b in m))
def test_a_tool_failure_is_charged_to_the_stage_that_made_the_call(items, mock_backend, mask):
    for planner, index in itertools.product(PLANNERS, FAILING_ITEMS):
        item, video = items[index]
        config = RunConfig(stage_mask=mask)
        clean, session = _run(item, video, config, planner, mock_backend)
        assert clean.failure is None
        for at in range(1, len(session.trace) + 1):
            failed, _ = _run(item, video, config, planner, FailAt(mock_backend, at))
            stage, kind = _owner(clean, session, at)
            assert (failed.failure["stage"], failed.failure["kind"]) == (stage, kind), at
            assert failed.answer == "" and failed.mc_index is None
            # the records of every stage before the failing one are kept
            names = [r["stage_name"] for r in failed.trace["stage_records"]]
            assert names == ["event_parsing", "grounding", "reasoning"][:len(names)]
            assert stage not in names


def test_rule_plans_survive_the_text_round_trip(items, mock_backend):
    for config in _configs():
        for item, video in items:
            outcome, _ = _run(item, video, config, RuleBasedPlanner, mock_backend)
            assert outcome.failure is None
            planned = [r for r in outcome.trace["stage_records"]
                       if r["stage_name"] in STAGE_CALLS]
            assert len(planned) == 3
            for record in planned:
                memory = MemoryState.from_json_dict(record["memory_before"])
                program = rule_plan(record["stage_name"], memory)
                assert parse(render(program)) == program
                if record["parsed_program"] is not None:
                    assert (record["emitted_program"] == record["parsed_program"]
                            == render(program))


def test_each_stage_starts_from_the_memory_the_last_one_left(items, mock_backend):
    for config, planner in itertools.product(_configs(), PLANNERS):
        for item, video in items:
            outcome, _ = _run(item, video, config, planner, mock_backend)
            records = outcome.trace["stage_records"]
            assert [r["stage_name"] for r in records] == list(STAGE_NAMES)
            start = MemoryState(FrameWindow.full(video.frame_count), item.qa.question)
            assert records[0]["memory_before"] == start.to_json_dict()
            grounded = records[1]["memory_after"]["grounded_window"]
            for prev, record in zip(records, records[1:]):
                expected = prev["memory_after"]
                if config.grounded_to_prediction_only and record["stage_name"] == "reasoning":
                    # the swap: reasoning sees only the window's middle frame
                    frames = expected["frame_ids"]
                    expected = {**expected, "grounded_window": [frames[len(frames) // 2]]}
                elif config.grounded_to_prediction_only and record["stage_name"] == "prediction":
                    # and prediction gets the grounded window back
                    expected = {**expected, "grounded_window": grounded}
                assert record["memory_before"] == expected, (record["stage_name"], config)
