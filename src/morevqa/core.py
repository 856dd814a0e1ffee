"""Core domain types shared by every part of the reasoning engine."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class QAType(Enum):
    """Question sub-type recognized by the event parsing stage."""

    WHY = "why"
    HOW = "how"
    WHAT = "what"
    LOCATION = "location"
    COUNTING = "counting"
    DESCRIPTION = "description"
    EXPLANATION = "explanation"
    OTHER = "other"


class TemporalConjunction(Enum):
    """Temporal relationship joining two parsed events."""

    BEFORE = "before"
    AFTER = "after"
    WHILE = "while"
    NONE = "none"


class TemporalRegion(Enum):
    """Coarse region of a video referenced by the question."""

    BEGINNING = "beginning"
    MIDDLE = "middle"
    END = "end"
    WHOLE = "whole"


@dataclass(frozen=True)
class VideoMeta:
    """Identity and timing metadata for one video."""

    video_id: str
    frame_count: int
    fps: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        if abs(self.duration_s - self.frame_count / self.fps) > 1.0 / self.fps:
            raise ValueError("duration_s inconsistent with frame_count/fps")


@dataclass(frozen=True)
class FrameWindow:
    """Strictly increasing frame indices. May be empty (falsy)."""

    frame_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ids = tuple(map(int, self.frame_ids))
        object.__setattr__(self, "frame_ids", ids)
        if ids and ids[0] < 0:
            raise ValueError("frame ids must be non-negative")
        if not all(map(operator.lt, ids, ids[1:])):
            raise ValueError("frame_ids must be strictly increasing")

    @classmethod
    def full(cls, frame_count: int) -> "FrameWindow":
        return cls(tuple(range(frame_count)))

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __iter__(self):
        return iter(self.frame_ids)

    def __contains__(self, frame_id: int) -> bool:
        return frame_id in self.frame_ids

    def middle_frame(self) -> int:
        """Floor-midpoint element; requires a non-empty window."""
        if not self.frame_ids:
            raise ValueError("middle_frame of an empty window")
        return self.frame_ids[len(self.frame_ids) // 2]

    def to_list(self) -> list[int]:
        return list(self.frame_ids)


@dataclass(frozen=True)
class QAItem:
    """One question with optional candidates and ground truth."""

    question: str
    candidates: tuple[str, ...] | None = None
    answer_mc: int | None = None
    answer_open: tuple[str, ...] | None = None
    gt_window_s: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.candidates is not None:
            object.__setattr__(self, "candidates", tuple(self.candidates))
            if not self.candidates:
                raise ValueError("candidates must be non-empty when present")
        if self.answer_open is not None:
            object.__setattr__(self, "answer_open", tuple(self.answer_open))
            if not self.answer_open:
                raise ValueError("answer_open must be non-empty when present")
        if self.answer_mc is not None:
            if self.candidates is None:
                raise ValueError("answer_mc requires candidates")
            if not 0 <= self.answer_mc < len(self.candidates):
                raise ValueError("answer_mc out of candidate range")
        if self.gt_window_s is not None:
            s, e = self.gt_window_s
            object.__setattr__(self, "gt_window_s", (float(s), float(e)))
            if s > e:
                raise ValueError("gt_window_s start must be <= end")

    def is_multiple_choice(self) -> bool:
        return self.candidates is not None

    def is_scorable(self) -> bool:
        return (self.answer_mc is None) != (self.answer_open is None)


MAX_EVENTS = 2  # the grammar admits at most two events joined by one conjunction


@dataclass
class MemoryState:
    """Shared external memory read and written by the pipeline stages.

    The only mutable value object in the engine; a single question run is its
    sole writer.
    """

    frame_ids: FrameWindow
    question: str
    event_queue: list[str] = field(default_factory=list)
    conjunction: TemporalConjunction = TemporalConjunction.NONE
    qa_type: QAType = QAType.OTHER
    require_ocr: bool = False
    extra: dict[str, str] = field(default_factory=dict)
    grounded_window: FrameWindow | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "frame_ids": self.frame_ids.to_list(),
            "question": self.question,
            "event_queue": list(self.event_queue),
            "conjunction": self.conjunction.value,
            "qa_type": self.qa_type.value,
            "require_ocr": self.require_ocr,
            "extra": dict(self.extra),
            "grounded_window": (
                self.grounded_window.to_list() if self.grounded_window is not None else None
            ),
        }

    @classmethod
    def from_json_dict(cls, obj: dict[str, Any]) -> "MemoryState":
        grounded = obj.get("grounded_window")
        return cls(
            frame_ids=FrameWindow(tuple(obj["frame_ids"])),
            question=obj["question"],
            event_queue=list(obj.get("event_queue", [])),
            conjunction=TemporalConjunction(obj.get("conjunction", "none")),
            qa_type=QAType(obj.get("qa_type", "other")),
            require_ocr=bool(obj.get("require_ocr", False)),
            extra=dict(obj.get("extra", {})),
            grounded_window=FrameWindow(tuple(grounded)) if grounded is not None else None,
        )

    def clone(self) -> "MemoryState":
        return MemoryState.from_json_dict(self.to_json_dict())


STAGE_NAMES = ("event_parsing", "grounding", "reasoning", "prediction")


@dataclass
class StageRecord:
    """Interpretable trace of one stage: prompt, program, calls, memory delta."""

    stage_name: str
    planner_prompt: str
    emitted_program: str
    parsed_program: str | None
    tool_calls: list[dict[str, Any]]
    memory_before: dict[str, Any]
    memory_after: dict[str, Any]

    def __post_init__(self) -> None:
        if self.stage_name not in STAGE_NAMES:
            raise ValueError(f"unknown stage name {self.stage_name!r}")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "stage_name": self.stage_name,
            "planner_prompt": self.planner_prompt,
            "emitted_program": self.emitted_program,
            "parsed_program": self.parsed_program,
            "tool_calls": list(self.tool_calls),
            "memory_before": self.memory_before,
            "memory_after": self.memory_after,
        }


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration. Defaults match the reference setting."""

    n_context_frames: int = 16
    fps_caption: float = 1.0
    decode_temperature: float = 0.0
    stage_mask: tuple[bool, bool, bool] = (True, True, True)
    seed: int = 0
    # "keep" retains the 40% slice named by the region; "remove" keeps the
    # complementary 60% instead.
    trim_mode: str = "keep"
    score_threshold: float = 0.7
    grounded_to_prediction_only: bool = False

    def __post_init__(self) -> None:
        if self.n_context_frames < 1:
            raise ValueError("n_context_frames must be >= 1")
        if self.fps_caption <= 0:
            raise ValueError("fps_caption must be positive")
        if len(self.stage_mask) != 3:
            raise ValueError("stage_mask must have three entries")
        object.__setattr__(self, "stage_mask", tuple(bool(m) for m in self.stage_mask))
        if self.trim_mode not in ("keep", "remove"):
            raise ValueError("trim_mode must be 'keep' or 'remove'")
        if not 0.0 < self.score_threshold < 1.0:
            raise ValueError("score_threshold must lie in (0, 1)")


def uniform_sample(frame_count: int, n: int) -> FrameWindow:
    """Midpoint-offset uniform sampling of min(n, frame_count) frame indices.

    Index k of the m returned is floor((k + 0.5) * frame_count / m), which
    never stacks samples at frame 0 and is strictly increasing.
    """
    if frame_count < 1:
        raise ValueError("frame_count must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    m = min(n, frame_count)
    return FrameWindow(tuple(int((k + 0.5) * frame_count / m) for k in range(m)))


def window_to_seconds(window: FrameWindow, fps: float) -> tuple[float, float]:
    """Tight seconds interval [min/fps, (max+1)/fps) spanned by a window."""
    if not len(window):
        raise ValueError("cannot convert an empty window to seconds")
    ids = window.frame_ids
    return (ids[0] / fps, (ids[-1] + 1) / fps)
