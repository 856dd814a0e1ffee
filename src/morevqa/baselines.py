"""Comparison systems built from the same tool registry: caption-every-frame,
language-only, and the single-stage planner/executor."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .core import QAItem, VideoMeta, uniform_sample
from .lang import (
    EXTENDED,
    InterpreterError,
    ParseError,
    InterpretResult,
    interpret,
    parse,
)
from .pipeline import answer_from_reply
from .prompts import build_predict_prompt, build_single_stage_prompt
from .tools import ToolError, ToolSession


@dataclass(frozen=True)
class JcefConfig:
    """Caption-every-frame baseline settings."""

    fps_caption: float = 1.0
    frame_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.fps_caption <= 0:
            raise ValueError("fps_caption must be positive")
        if not 0.0 <= self.frame_fraction <= 1.0:
            raise ValueError("frame_fraction must lie in [0, 1]")


@dataclass
class BaselineOutcome:
    answer: str
    mc_index: int | None
    prompt: str | None = None
    program: str | None = None
    calls: list[tuple[str, tuple, Any]] = field(default_factory=list)
    failure: dict[str, Any] | None = None

    def trace_dict(self, system: str, video_id: str | None, question: str) -> dict[str, Any]:
        trace: dict[str, Any] = {
            "system": system,
            "video_id": video_id,
            "question": question,
            "answer": self.answer,
            "mc_index": self.mc_index,
        }
        if self.prompt is not None:
            trace["prompt"] = self.prompt
        if self.program is not None:
            trace["program"] = self.program
        if self.calls:
            trace["calls"] = [[name, list(args), result] for name, args, result in self.calls]
        trace["failure"] = self.failure
        return trace


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def jcef_caption_frames(video: VideoMeta, cfg: JcefConfig) -> list[int]:
    """Frames to caption: a frame_fraction share of the fps_caption index
    space, sampled uniformly and mapped back to source frame indices."""
    positions_total = max(1, _round_half_up(video.duration_s * cfg.fps_caption))
    m = _round_half_up(cfg.frame_fraction * positions_total)
    if m == 0:
        return []
    positions = uniform_sample(positions_total, m)
    frames = []
    for p in positions:
        frame_id = int(math.floor(p * video.fps / cfg.fps_caption))
        frames.append(min(frame_id, video.frame_count - 1))
    return frames


def _caption_and_predict(
    qa: QAItem, session: ToolSession, frames: list[int], video_id: str | None
) -> BaselineOutcome:
    """Caption the frames, then predict from the question and those captions."""
    try:
        lines = [f"[frame {f}] caption: {session.caption(video_id, f)}" for f in frames]
        prompt = build_predict_prompt(qa.question, qa.candidates, lines)
        answer, mc_index = answer_from_reply(session.complete(prompt, video_id), qa.candidates)
    except ToolError as exc:
        return BaselineOutcome("", None, failure={"kind": "tool_error", "message": str(exc)})
    return BaselineOutcome(answer, mc_index, prompt=prompt)


def run_jcef(
    video: VideoMeta, qa: QAItem, cfg: JcefConfig, session: ToolSession
) -> BaselineOutcome:
    """Caption frames, feed everything to the prediction backend."""
    return _caption_and_predict(qa, session, jcef_caption_frames(video, cfg), video.video_id)


def run_llm_only(qa: QAItem, session: ToolSession) -> BaselineOutcome:
    """Predict from the question alone; no visual input at all."""
    return _caption_and_predict(qa, session, [], None)


def make_program_tools(session: ToolSession, video: VideoMeta, qa: QAItem) -> dict[str, Any]:
    """Callable bindings exposed to single-stage programs."""
    all_frames = list(range(video.frame_count))

    def localize(phrase: str) -> list[int]:
        found = session.localize(video.video_id, phrase, all_frames, stage="single_stage")
        return [entry[0] for entry in found]

    def verify_action(frame_id: int, action: str) -> bool:
        return session.verify_action(video.video_id, frame_id, action)

    def caption(frame_id: int) -> str:
        return session.caption(video.video_id, frame_id)

    def vqa(frame_id: int, question: str) -> str:
        return session.vqa(video.video_id, frame_id, question)

    def score(frame_id: int, text: str) -> float:
        return session.score(video.video_id, frame_id, text)

    def llm_query(question: str, infos: Any = None) -> str:
        if infos is None:
            lines: list[str] = []
        elif isinstance(infos, list):
            lines = [str(item) for item in infos]
        else:
            lines = [str(infos)]
        # deliberately video-blind, like the plain language-only module
        prompt = build_predict_prompt(str(question), qa.candidates, lines)
        return session.complete(prompt, None)

    return {
        "localize": localize,
        "verify_action": verify_action,
        "caption": caption,
        "vqa": vqa,
        "score": score,
        "llm_query": llm_query,
    }


def run_single_stage(
    video: VideoMeta,
    qa: QAItem,
    session: ToolSession,
    program_text: str | None = None,
) -> BaselineOutcome:
    """Parse and execute one whole program planned from the question alone.

    Program text comes from an authored file or a replayed planner call; the
    backend is asked only when neither is given. Parse and runtime failures
    are reported structurally, never raised.
    """
    if program_text is None:
        try:
            program_text = session.complete(
                build_single_stage_prompt(qa.question), video.video_id
            )
        except ToolError as exc:
            return BaselineOutcome(
                "", None, failure={"kind": "missing_program", "message": str(exc)}
            )
    try:
        program = parse(program_text, EXTENDED)
    except ParseError as exc:
        return BaselineOutcome(
            "", None, program=program_text,
            failure={"kind": "parse_error", "message": str(exc)},
        )
    env = {
        "question": qa.question,
        "candidates": list(qa.candidates) if qa.candidates else [],
    }
    dispatch = make_program_tools(session, video, qa)
    try:
        result: InterpretResult = interpret(program, env, dispatch)
    except InterpreterError as exc:
        return BaselineOutcome(
            "", None, program=program_text,
            failure={"kind": f"runtime_{exc.kind}", "message": str(exc)},
        )
    value = result.value if isinstance(result.value, str) else str(result.value)
    answer, mc_index = answer_from_reply(value, qa.candidates)
    return BaselineOutcome(answer, mc_index, program=program_text, calls=result.calls)
