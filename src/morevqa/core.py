"""Core domain types shared by every part of the reasoning engine."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import NoneType
from typing import Any


def expect_type(value: Any, what: str, *types: type) -> Any:
    """`value` when its exact type is one of `types`, so a bool is not an
    int; ValueError naming `what` otherwise. File readers use it so that a
    field of the wrong type is refused, never coerced."""
    if type(value) not in types:
        names = " or ".join("null" if t is NoneType else t.__name__ for t in types)
        raise ValueError(f"{what} must be {names}, got {value!r}")
    return value


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
        ids = tuple(self.frame_ids)
        if not all(type(f) is int for f in ids):
            raise ValueError(f"frame ids must be integers, got {ids!r}")
        object.__setattr__(self, "frame_ids", ids)
        if ids and ids[0] < 0:
            raise ValueError("frame ids must be non-negative")
        if not all(map(operator.lt, ids, ids[1:])):
            raise ValueError("frame_ids must be strictly increasing")

    @classmethod
    def full(cls, frame_count: int) -> "FrameWindow":
        return _derived_window(tuple(range(frame_count)))

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


def _derived_window(ids: tuple[int, ...]) -> FrameWindow:
    """The window over `ids`, set without the constructor's checks. Only for
    ids the engine derives from a valid window or a range (an order-keeping
    subsequence, a slice, computed sample ids), which are strictly increasing
    non-negative ints by construction; outside input goes through
    `FrameWindow(...)`."""
    window = object.__new__(FrameWindow)
    object.__setattr__(window, "frame_ids", ids)
    return window


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


@dataclass
class EvalItem:
    """One dataset row: a question bound to a video."""

    video_id: str
    qa: QAItem
    qtype_label: str | None = None
    subset: str | None = None
    program_path: str | None = None


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
        """Read a memory snapshot whose fields have exactly their JSON types;
        a field of another type is a ValueError, never coerced."""
        expect_type(obj, "memory", dict)
        event_queue = expect_type(obj.get("event_queue", []), "event_queue", list)
        for event in event_queue:
            expect_type(event, "an event", str)
        extra = expect_type(obj.get("extra", {}), "extra", dict)
        for value in extra.values():
            expect_type(value, "an extra value", str)
        grounded = expect_type(obj.get("grounded_window"), "grounded_window", list, NoneType)
        return cls(
            frame_ids=FrameWindow(expect_type(obj["frame_ids"], "frame_ids", list)),
            question=expect_type(obj["question"], "question", str),
            event_queue=list(event_queue),
            conjunction=TemporalConjunction(
                expect_type(obj.get("conjunction", "none"), "conjunction", str)),
            qa_type=QAType(expect_type(obj.get("qa_type", "other"), "qa_type", str)),
            require_ocr=expect_type(obj.get("require_ocr", False), "require_ocr", bool),
            extra=dict(extra),
            grounded_window=FrameWindow(grounded) if grounded is not None else None,
        )


# the `stage_name` of each of a `morevqa` trace's stage records, in order
STAGE_NAMES = ("event_parsing", "grounding", "reasoning", "prediction")


@dataclass(frozen=True)
class RunConfig:
    """Pipeline configuration. Defaults match the reference setting."""

    n_context_frames: int = 16
    stage_mask: tuple[bool, bool, bool] = (True, True, True)
    # "keep" retains the 40% slice named by the region; "remove" keeps the
    # complementary 60% instead.
    trim_mode: str = "keep"
    score_threshold: float = 0.7
    grounded_to_prediction_only: bool = False

    def __post_init__(self) -> None:
        if self.n_context_frames < 1:
            raise ValueError("n_context_frames must be >= 1")
        if len(self.stage_mask) != 3:
            raise ValueError("stage_mask must have three entries")
        object.__setattr__(self, "stage_mask", tuple(bool(m) for m in self.stage_mask))
        if self.trim_mode not in ("keep", "remove"):
            raise ValueError("trim_mode must be 'keep' or 'remove'")
        if not 0.0 < self.score_threshold < 1.0:
            raise ValueError("score_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class JcefConfig:
    """Caption-every-frame baseline settings."""

    fps_caption: float = 1.0
    frame_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fps_caption < math.inf:  # NaN included
            raise ValueError("fps_caption must be a finite positive number")
        if not 0.0 <= self.frame_fraction <= 1.0:
            raise ValueError("frame_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class Settings:
    """What every system's runner is handed besides the item, its video and
    the tool session: the two configs, the directory that a relative
    `program_path` resolves against, and the morevqa planner (None for the
    rule-based one). Each system reads only what it needs."""

    run_config: RunConfig = RunConfig()
    jcef_config: JcefConfig = JcefConfig()
    dataset_dir: Path | None = None
    planner: Any = None


@dataclass
class Outcome:
    """What every system's runner returns for one item. `trace` is the
    system's own trace dict; a failed item has an empty answer and its
    failure record."""

    answer: str
    mc_index: int | None
    pred_window_s: tuple[float, float] | None
    trace: dict[str, Any]
    failure: dict[str, Any] | None = None
    timings_ms: dict[str, float] = field(default_factory=dict)


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
    return _derived_window(tuple(int((k + 0.5) * frame_count / m) for k in range(m)))


def window_to_seconds(window: FrameWindow, fps: float) -> tuple[float, float]:
    """Tight seconds interval [min/fps, (max+1)/fps) spanned by a window."""
    if not len(window):
        raise ValueError("cannot convert an empty window to seconds")
    ids = window.frame_ids
    return (ids[0] / fps, (ids[-1] + 1) / fps)
