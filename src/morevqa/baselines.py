"""Comparison systems built from the same tool registry: caption-every-frame,
language-only, and the single-stage planner/executor."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any

from .core import EvalItem, JcefConfig, Outcome, QAItem, Settings, VideoMeta, uniform_sample
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


def _outcome(system: str, item: EvalItem, answer: str = "", mc_index: int | None = None,
             failure: dict[str, Any] | None = None, **extra: Any) -> Outcome:
    """A baseline's outcome. Its trace holds the item, the answer, each of
    `prompt`, `program` and `calls` that is not None, then the failure."""
    trace: dict[str, Any] = {
        "system": system,
        "video_id": item.video_id,
        "question": item.qa.question,
        "answer": answer,
        "mc_index": mc_index,
    }
    trace.update((key, value) for key, value in extra.items() if value is not None)
    trace["failure"] = failure
    return Outcome(answer, mc_index, None, trace, failure)


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
    system: str, item: EvalItem, session: ToolSession, frames: list[int], video_id: str | None
) -> Outcome:
    """Caption the frames, then predict from the question and those captions."""
    qa = item.qa
    try:
        lines = [f"[frame {f}] caption: {session.caption(video_id, f)}" for f in frames]
        prompt = build_predict_prompt(qa.question, qa.candidates, lines)
        answer, mc_index = answer_from_reply(session.complete(prompt, video_id), qa.candidates)
    except ToolError as exc:
        return _outcome(system, item, failure={"kind": "tool_error", "message": str(exc)})
    return _outcome(system, item, answer, mc_index, prompt=prompt)


def run_jcef(
    item: EvalItem, video: VideoMeta, session: ToolSession, settings: Settings
) -> Outcome:
    """Caption frames, feed everything to the prediction backend."""
    frames = jcef_caption_frames(video, settings.jcef_config)
    return _caption_and_predict("jcef", item, session, frames, video.video_id)


def run_llm_only(
    item: EvalItem, video: VideoMeta | None, session: ToolSession, settings: Settings
) -> Outcome:
    """Predict from the question alone; no visual input at all."""
    return _caption_and_predict("llm_only", item, session, [], None)


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
    item: EvalItem, video: VideoMeta, session: ToolSession, settings: Settings
) -> Outcome:
    """Parse and execute one whole program planned from the question alone.

    Program text comes from the item's program file, resolved against the
    dataset directory; the backend is asked only when the item names none.
    A program that cannot be read or obtained, parsed or run is reported
    structurally, never raised.
    """
    qa = item.qa
    try:
        if item.program_path is None:
            program_text = session.complete(
                build_single_stage_prompt(qa.question), video.video_id
            )
        else:  # an absolute path ignores the directory
            path = Path(settings.dataset_dir or ".", item.program_path)
            program_text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError, ToolError) as exc:
        return _outcome("single_stage", item,
                        failure={"kind": "missing_program", "message": str(exc)})
    try:
        program = parse(program_text, EXTENDED)
    except ParseError as exc:
        return _outcome("single_stage", item, program=program_text,
                        failure={"kind": "parse_error", "message": str(exc)})
    env = {
        "question": qa.question,
        "candidates": list(qa.candidates) if qa.candidates else [],
    }
    dispatch = make_program_tools(session, video, qa)
    try:
        result: InterpretResult = interpret(program, env, dispatch)
    except InterpreterError as exc:
        return _outcome("single_stage", item, program=program_text,
                        failure={"kind": f"runtime_{exc.kind}", "message": str(exc)})
    value = result.value if isinstance(result.value, str) else str(result.value)
    answer, mc_index = answer_from_reply(value, qa.candidates)
    calls = [[name, list(args), res] for name, args, res in result.calls]
    return _outcome("single_stage", item, answer, mc_index, program=program_text,
                    calls=calls or None)
