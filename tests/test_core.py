from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from morevqa.core import (
    FrameWindow,
    MemoryState,
    QAItem,
    QAType,
    RunConfig,
    TemporalConjunction,
    VideoMeta,
    uniform_sample,
    window_to_seconds,
)


def test_uniform_sample_identity_when_n_equals_frame_count():
    assert uniform_sample(10, 10).to_list() == list(range(10))


def test_uniform_sample_midpoint_formula():
    # floor((k + 0.5) * 100 / 4) for k in 0..3
    assert uniform_sample(100, 4).to_list() == [12, 37, 62, 87]


def test_uniform_sample_clamps_n():
    assert uniform_sample(3, 16).to_list() == [0, 1, 2]


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=200))
def test_uniform_sample_sorted_unique_in_range(frame_count, n):
    window = uniform_sample(frame_count, n)
    ids = window.to_list()
    assert ids == sorted(set(ids))
    assert all(0 <= f < frame_count for f in ids)
    assert len(ids) == min(n, frame_count)
    assert uniform_sample(frame_count, n).to_list() == ids


def test_frame_window_rejects_unsorted():
    with pytest.raises(ValueError):
        FrameWindow((3, 1))
    with pytest.raises(ValueError):
        FrameWindow((1, 1))
    with pytest.raises(ValueError):
        FrameWindow((-1, 0))


@pytest.mark.parametrize("ids", [(0.5, 1.9), ("3", "7"), (True, 2), (1, 2.0)])
def test_frame_window_refuses_ids_that_are_not_ints(ids):
    # a float, string or bool id is refused, never coerced to an int
    with pytest.raises(ValueError):
        FrameWindow(ids)


@pytest.mark.parametrize("field, value", [
    ("frame_ids", [0.5, 1.9, 4]),
    ("frame_ids", "ab"),
    ("question", 5),
    ("event_queue", "ab"),
    ("event_queue", [1]),
    ("conjunction", 1),
    ("qa_type", None),
    ("require_ocr", "false"),
    ("require_ocr", 0),
    ("extra", [["k", "v"]]),
    ("extra", {"sq_0": 3}),
    ("grounded_window", "ab"),
    ("grounded_window", [False]),
])
def test_memory_from_json_refuses_wrong_types(field, value):
    obj = MemoryState(frame_ids=FrameWindow((0, 1)), question="q").to_json_dict()
    with pytest.raises(ValueError):
        MemoryState.from_json_dict({**obj, field: value})


def test_frame_window_middle_frame_floor_midpoint():
    assert FrameWindow(tuple(range(10))).middle_frame() == 5
    assert FrameWindow((4, 9)).middle_frame() == 9
    assert FrameWindow((7,)).middle_frame() == 7


def test_video_meta_duration_consistency():
    VideoMeta("v", 30, 1.0, 30.0)
    with pytest.raises(ValueError):
        VideoMeta("v", 30, 1.0, 40.0)
    with pytest.raises(ValueError):
        VideoMeta("v", 0, 1.0, 0.0)


def test_qa_item_validation():
    qa = QAItem("q?", candidates=("a", "b"), answer_mc=1)
    assert qa.candidates == ("a", "b") and qa.answer_mc == 1 and qa.answer_open is None
    with pytest.raises(ValueError):
        QAItem("q?", candidates=("a",), answer_mc=3)
    with pytest.raises(ValueError):
        QAItem("q?", answer_mc=0)
    with pytest.raises(ValueError):
        QAItem("q?", gt_window_s=(5.0, 1.0))


@given(
    st.lists(st.integers(min_value=0, max_value=400), min_size=1, unique=True),
    st.text(max_size=40),
    st.lists(st.text(max_size=20), max_size=2),
    st.sampled_from(list(TemporalConjunction)),
    st.sampled_from(list(QAType)),
    st.booleans(),
    st.dictionaries(st.text(min_size=1, max_size=8), st.text(max_size=12), max_size=4),
)
def test_memory_round_trip(frame_ids, question, events, conj, qa_type, ocr, extra):
    memory = MemoryState(
        frame_ids=FrameWindow(tuple(sorted(frame_ids))),
        question=question,
        event_queue=events,
        conjunction=conj,
        qa_type=qa_type,
        require_ocr=ocr,
        extra=extra,
    )
    assert MemoryState.from_json_dict(memory.to_json_dict()) == memory


def test_memory_json_field_names():
    memory = MemoryState(frame_ids=FrameWindow((0, 1)), question="q")
    assert list(memory.to_json_dict()) == [
        "frame_ids", "question", "event_queue", "conjunction",
        "qa_type", "require_ocr", "extra", "grounded_window",
    ]


def test_run_config_validation():
    cfg = RunConfig(stage_mask=(1, 0, 1))
    assert cfg.stage_mask == (True, False, True)
    with pytest.raises(ValueError):
        RunConfig(n_context_frames=0)
    with pytest.raises(ValueError):
        RunConfig(trim_mode="drop")
    with pytest.raises(ValueError):
        RunConfig(score_threshold=1.5)


def test_window_to_seconds_tight_interval():
    assert window_to_seconds(FrameWindow((10, 12)), 2.0) == (5.0, 6.5)
