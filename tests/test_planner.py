from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from morevqa.core import FrameWindow, MemoryState, QAType, TemporalConjunction
from morevqa.lang import FLAT, parse, render
from morevqa.planner import (
    _SPACE_BEFORE_PUNCT,
    counted_object,
    rule_plan,
    strip_region_phrase,
    subject_of_event,
)


def _memory(question: str) -> MemoryState:
    return MemoryState(frame_ids=FrameWindow.full(32), question=question)


def test_stage1_temporal_and_type_and_event():
    text = render(rule_plan(
        "event_parsing", _memory("why is the cat lying on its back at the end of the video?")
    ))
    assert 'trim("end")' in text
    assert 'classify("why")' in text
    assert 'parse_event("cat lying on its back")' in text
    assert 'revise_question("why is the cat lying on its back?")' in text


def test_stage1_simple_question_has_no_events():
    text = render(rule_plan("event_parsing", _memory("what is in the background?")))
    assert 'classify("what")' in text
    assert "parse_event" not in text
    assert "trim" not in text


def test_stage1_ocr_keyword():
    text = render(rule_plan("event_parsing", _memory("what does the sign say?")))
    assert "require_ocr(true)" in text


def test_stage1_conjunction_split():
    question = "why is the boy walking over to the shelf after playing with the person?"
    text = render(rule_plan("event_parsing", _memory(question)))
    assert 'set_conjunction("after")' in text
    assert 'parse_event("boy walking over to the shelf")' in text
    assert 'parse_event("playing with the person")' in text


def test_stage1_no_temporal_words_means_no_trim():
    text = render(rule_plan("event_parsing", _memory("why is the dog barking loudly?")))
    assert "trim" not in text


def test_stage2_noop_without_events():
    memory = _memory("what is in the background?")
    assert render(rule_plan("grounding", memory)) == "noop()"


def test_stage2_localize_and_verify_per_event():
    memory = _memory("irrelevant")
    memory.event_queue = ["cat lying on its back"]
    text = render(rule_plan("grounding", memory))
    assert text.split("\n") == [
        'localize("cat lying on its back")',
        'verify_action("cat lying on its back")',
    ]


def test_stage2_anchor_shift_for_two_events():
    memory = _memory("irrelevant")
    memory.event_queue = ["boy walking to the shelf", "playing with the person"]
    memory.conjunction = TemporalConjunction.AFTER
    assert render(rule_plan("grounding", memory)).split("\n")[-1] == "anchor_then_shift()"


def test_stage3_why_templates_use_subject():
    memory = _memory("why is the grey cat lying on its back?")
    memory.qa_type = QAType.WHY
    memory.event_queue = ["grey cat lying on its back"]
    text = render(rule_plan("reasoning", memory))
    assert 'subquestion("what is the grey cat doing?")' in text
    assert 'vqa_on_grounded("what is the grey cat interacting with?")' in text


def test_stage3_counting_template():
    memory = _memory("how many bright kites are gliding across the water?")
    memory.qa_type = QAType.COUNTING
    text = render(rule_plan("reasoning", memory))
    assert 'subquestion("how many bright kites are visible?")' in text


def test_stage3_other_types_noop():
    memory = _memory("what is in the background?")
    memory.qa_type = QAType.WHAT
    assert render(rule_plan("reasoning", memory)) == "noop()"


def _classify_lines(question: str) -> list[str]:
    lines = render(rule_plan("event_parsing", _memory(question))).split("\n")
    return [line for line in lines if line.startswith("classify(")]


def test_classify_rules():
    assert _classify_lines("why is it?") == [f'classify("{QAType.WHY.value}")']
    assert _classify_lines("how many dogs are there?") == [f'classify("{QAType.COUNTING.value}")']
    assert _classify_lines("how does it work?") == [f'classify("{QAType.HOW.value}")']
    assert _classify_lines("where is this?") == [f'classify("{QAType.LOCATION.value}")']
    assert _classify_lines("describe the scene") == [f'classify("{QAType.DESCRIPTION.value}")']
    assert _classify_lines("the dog barks") == []


def test_strip_region_phrase():
    assert (
        strip_region_phrase("why is the cat sad at the end of the video?")
        == "why is the cat sad?"
    )
    assert strip_region_phrase("no region here?") == "no region here?"


def test_subject_of_event():
    assert subject_of_event("grey cat lying on its back") == "grey cat"
    assert subject_of_event("boy walking over to the shelf") == "boy"


def test_counted_object():
    assert counted_object("how many bright kites are gliding?") == "bright kites"
    assert counted_object("why is the sky blue?") is None


def test_event_parsing_requires_action_token():
    text = render(rule_plan("event_parsing", _memory("what is in the background?")))
    assert "parse_event" not in text and "set_conjunction" not in text
    text = render(rule_plan("event_parsing", _memory("what is the dog doing?")))
    assert "parse_event" not in text  # "doing" alone is not a groundable action


@pytest.mark.parametrize("stage", ["event_parsing", "grounding", "reasoning"])
def test_emitted_programs_always_parse(stage, oracle_bundle):
    for row in oracle_bundle.rows:
        memory = _memory(row["question"])
        if stage != "event_parsing":
            # populate the memory the way stage 1 would
            program = parse(render(rule_plan("event_parsing", memory)), FLAT)
            from morevqa.core import RunConfig
            from morevqa.pipeline import run_event_parsing

            run_event_parsing(program, memory, None, None, RunConfig())
        parse(render(rule_plan(stage, memory)), FLAT)


# the earlier form of `_SPACE_BEFORE_PUNCT`, which captured the mark and
# wrote it back through a `\1` template
_OLD_SPACE_BEFORE_PUNCT = re.compile(r"\s+([?.!,])")


@given(st.text(alphabet=st.sampled_from(" \t\n\u3000\x1c\x85\xa0?.!,ab") | st.characters(),
               max_size=40))
def test_space_before_punct_matches_the_capturing_form(text):
    assert (_SPACE_BEFORE_PUNCT.sub("", text)
            == _OLD_SPACE_BEFORE_PUNCT.sub(r"\1", text))
