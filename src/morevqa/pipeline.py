"""Three-stage reasoning pipeline over shared memory, plus final prediction.

Stage programs are flat tool-call programs obtained from a planner, executed
against MemoryState and the tool session. Every stage leaves a StageRecord so
the whole run is replayable from its trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any

from .core import (
    FrameWindow,
    MemoryState,
    QAItem,
    QAType,
    RunConfig,
    StageRecord,
    TemporalConjunction,
    TemporalRegion,
    VideoMeta,
    MAX_EVENTS,
    uniform_sample,
    window_to_seconds,
)
from .lang import (
    FLAT,
    BoolLit,
    CallStmt,
    FloatLit,
    IntLit,
    ListLit,
    ParseError,
    Program,
    StringLit,
    parse,
    render,
)
from .planner import rule_plan
from .prompts import build_planner_prompt, build_predict_prompt
from .text import normalize_text, token_set
from .tools import ToolError, ToolSession

TRIM_FRACTION = 0.4


class StageError(Exception):
    """Structured stage failure; aborts the current item."""

    def __init__(self, stage: str, kind: str, message: str):
        super().__init__(f"[{stage}] {kind}: {message}")
        self.stage = stage
        self.kind = kind
        self.message = message


@dataclass
class StageResult:
    record: StageRecord
    memory: MemoryState


@dataclass
class ContextBlock:
    """Temporally sorted caption and grounded-VQA entries plus their text."""

    entries: list[dict[str, Any]]
    rendered: str


@dataclass
class RunOutcome:
    answer: str
    mc_index: int | None
    grounded_window: FrameWindow | None
    grounded_window_s: tuple[float, float] | None
    stage_records: list[StageRecord]
    prediction_prompt: str | None = None
    failure: dict[str, Any] | None = None
    stage_timings_ms: dict[str, float] | None = None

    def trace_dict(self, video_id: str, question: str) -> dict[str, Any]:
        return {
            "system": "morevqa",
            "video_id": video_id,
            "question": question,
            "answer": self.answer,
            "mc_index": self.mc_index,
            "grounded_window": self.grounded_window.to_list() if self.grounded_window else None,
            "grounded_window_s": list(self.grounded_window_s) if self.grounded_window_s else None,
            "stage_records": [r.to_json_dict() for r in self.stage_records],
            "failure": self.failure,
        }


# --- planners ---

class RuleBasedPlanner:
    """Emits stage programs directly from the keyword tables; no tool access."""

    kind = "rule_based"

    def plan(self, stage: str, memory: MemoryState, session: ToolSession,
             video_id: str | None) -> tuple[str, str]:
        prompt = build_planner_prompt(stage, memory)
        return prompt, rule_plan(stage, memory, memory.question)


class LlmBackedPlanner:
    """Obtains stage programs from a complete-capable backend."""

    kind = "llm_backed"

    def plan(self, stage: str, memory: MemoryState, session: ToolSession,
             video_id: str | None) -> tuple[str, str]:
        prompt = build_planner_prompt(stage, memory)
        program_text = session.complete(prompt, video_id)
        return prompt, program_text


# --- window operations ---

def apply_trim(window: FrameWindow, region: TemporalRegion, mode: str = "keep") -> FrameWindow:
    """Keep a contiguous slice of the window at the named region.

    The slice holds max(1, ceil(0.4 * |window|)) frames in keep mode, the
    complementary share in remove mode; region `whole` is the identity.
    """
    ids = window.frame_ids
    n = len(ids)
    if region is TemporalRegion.WHOLE or n == 0:
        return window
    kept = math.ceil(TRIM_FRACTION * n)
    if mode == "remove":
        kept = n - kept
    m = max(1, kept)
    if region is TemporalRegion.BEGINNING:
        return FrameWindow(ids[:m])
    if region is TemporalRegion.END:
        return FrameWindow(ids[n - m :])
    start = n // 2 - m // 2
    start = max(0, min(start, n - m))
    return FrameWindow(ids[start : start + m])


def apply_conjunction(
    anchor: FrameWindow, conj: TemporalConjunction, universe: FrameWindow
) -> FrameWindow:
    """Shift the universe relative to the anchor frames.

    Empty results fall back to the anchor itself.
    """
    if not len(anchor) or not len(universe):
        raise ValueError("anchor and universe must be non-empty")
    if conj is TemporalConjunction.AFTER:
        picked = tuple(f for f in universe if f > anchor.frame_ids[-1])
    elif conj is TemporalConjunction.BEFORE:
        picked = tuple(f for f in universe if f < anchor.frame_ids[0])
    elif conj is TemporalConjunction.WHILE:
        picked = anchor.frame_ids
    else:
        picked = universe.frame_ids
    if not picked:
        picked = anchor.frame_ids
    return FrameWindow(picked)


# --- stage program execution ---

def _literal_value(expr: Any, stage: str) -> Any:
    if isinstance(expr, (StringLit, IntLit, FloatLit, BoolLit)):
        return expr.value
    if isinstance(expr, ListLit):
        return [_literal_value(item, stage) for item in expr.items]
    raise StageError(stage, "bad_argument", "stage program arguments must be literals")


def _stage_calls(program: Program, stage: str) -> list[tuple[str, list[Any]]]:
    calls: list[tuple[str, list[Any]]] = []
    for stmt in program.statements:
        if not isinstance(stmt, CallStmt):
            raise StageError(stage, "bad_statement", "stage programs admit calls only")
        calls.append((stmt.name, [_literal_value(a, stage) for a in stmt.args]))
    return calls


def execute_event_parsing_program(
    program: Program, memory: MemoryState, config: RunConfig
) -> None:
    stage = "event_parsing"
    for name, args in _stage_calls(program, stage):
        if name == "noop":
            continue
        elif name == "trim":
            try:
                region = TemporalRegion(str(args[0]))
            except (ValueError, IndexError):
                raise StageError(stage, "bad_argument", f"unknown region {args!r}")
            memory.frame_ids = apply_trim(memory.frame_ids, region, config.trim_mode)
        elif name == "classify":
            try:
                memory.qa_type = QAType(str(args[0]))
            except (ValueError, IndexError):
                raise StageError(stage, "bad_argument", f"unknown question type {args!r}")
        elif name == "parse_event":
            if len(memory.event_queue) >= MAX_EVENTS:
                raise StageError(
                    stage, "event_overflow", f"more than {MAX_EVENTS} parsed events"
                )
            memory.event_queue.append(str(args[0]))
        elif name == "set_conjunction":
            try:
                memory.conjunction = TemporalConjunction(str(args[0]))
            except (ValueError, IndexError):
                raise StageError(stage, "bad_argument", f"unknown conjunction {args!r}")
        elif name == "require_ocr":
            memory.require_ocr = bool(args[0]) if args else True
        elif name == "revise_question":
            memory.question = str(args[0])
        else:
            raise StageError(stage, "unknown_call", f"unrecognized call {name!r}")


def execute_grounding_program(
    program: Program,
    memory: MemoryState,
    video: VideoMeta,
    session: ToolSession,
    config: RunConfig,
) -> list[int]:
    """Run the grounding calls and return the grounded frames (possibly [])."""
    stage = "grounding"
    base = memory.frame_ids.to_list()
    base_set = set(base)
    event_sets: dict[str, set[int]] = {}
    shift_result: set[int] | None = None
    try:
        for name, args in _stage_calls(program, stage):
            if name == "noop":
                continue
            elif name == "localize":
                event = str(args[0])
                matches = session.localize(video.video_id, event, base, stage="grounding")
                matched = {entry[0] for entry in matches if entry[0] in base_set}
                passed = {
                    f
                    for f in matched
                    if session.score(video.video_id, f, event) >= config.score_threshold
                }
                event_sets[event] = event_sets[event] & passed if event in event_sets else passed
            elif name == "verify_action":
                event = str(args[0])
                domain = sorted(event_sets[event]) if event in event_sets else base
                kept = {
                    f for f in domain if session.verify_action(video.video_id, f, event)
                }
                event_sets[event] = kept
            elif name == "anchor_then_shift":
                if len(memory.event_queue) < 2:
                    raise StageError(
                        stage, "bad_call", "anchor_then_shift requires two parsed events"
                    )
                target_event, anchor_event = memory.event_queue[0], memory.event_queue[1]
                target = event_sets.get(target_event, set())
                anchor = event_sets.get(anchor_event, set())
                if anchor:
                    window = set(
                        apply_conjunction(
                            FrameWindow(tuple(sorted(anchor))),
                            memory.conjunction,
                            FrameWindow(tuple(base)),
                        )
                    )
                else:
                    window = set(base)
                narrowed = target & window
                if narrowed:
                    shift_result = narrowed
                elif not target and anchor:
                    shift_result = window
                else:
                    shift_result = target
            else:
                raise StageError(stage, "unknown_call", f"unrecognized call {name!r}")
    except ToolError as exc:
        raise StageError(stage, "tool_error", str(exc)) from exc
    if shift_result is not None:
        return sorted(shift_result)
    if memory.event_queue and memory.event_queue[0] in event_sets:
        return sorted(event_sets[memory.event_queue[0]])
    if event_sets:
        union: set[int] = set()
        for grounded in event_sets.values():
            union |= grounded
        return sorted(union)
    return []


def _ask_on_frames(
    memory: MemoryState,
    video: VideoMeta,
    session: ToolSession,
    sub_index: int,
    question: str,
    frames: FrameWindow,
) -> None:
    memory.extra[f"sq_{sub_index}"] = question
    prefix = "ocr" if memory.require_ocr else None
    for frame_id in frames:
        answer = session.vqa(video.video_id, frame_id, question, prefix)
        memory.extra[f"sq_{sub_index}_frame_{frame_id}"] = answer


def execute_reasoning_program(
    program: Program,
    memory: MemoryState,
    video: VideoMeta,
    session: ToolSession,
) -> int:
    """Run the reasoning calls; returns how many subquestions were asked."""
    stage = "reasoning"
    grounded = memory.grounded_window or FrameWindow()
    registered: list[str] = []
    try:
        for name, args in _stage_calls(program, stage):
            if name == "noop":
                continue
            elif name == "subquestion":
                question = str(args[0])
                if question not in registered:
                    registered.append(question)
                    memory.extra[f"sq_{registered.index(question)}"] = question
            elif name == "vqa_on_grounded":
                question = str(args[0])
                if question not in registered:
                    registered.append(question)
                _ask_on_frames(
                    memory, video, session, registered.index(question), question, grounded
                )
            else:
                raise StageError(stage, "unknown_call", f"unrecognized call {name!r}")
    except ToolError as exc:
        raise StageError(stage, "tool_error", str(exc)) from exc
    return len(registered)


def question_only_vqa(memory: MemoryState, video: VideoMeta, session: ToolSession) -> None:
    """Ask the (possibly revised) question itself on every grounded frame."""
    grounded = memory.grounded_window or FrameWindow()
    _ask_on_frames(memory, video, session, 0, memory.question, grounded)


# --- stage runners ---

def init_memory(qa: QAItem, video: VideoMeta) -> MemoryState:
    return MemoryState(
        frame_ids=FrameWindow.full(video.frame_count),
        question=qa.question,
    )


def _plan_and_parse(
    stage: str,
    memory: MemoryState,
    planner,
    session: ToolSession,
    video: VideoMeta,
) -> tuple[str, str, Program]:
    try:
        prompt, program_text = planner.plan(stage, memory, session, video.video_id)
    except ToolError as exc:
        raise StageError(stage, "planner_error", str(exc)) from exc
    try:
        program = parse(program_text, FLAT)
    except ParseError as exc:
        raise StageError(stage, "parse_error", str(exc)) from exc
    return prompt, program_text, program


def _finish_record(
    stage: str,
    prompt: str,
    program_text: str,
    program: Program | None,
    session: ToolSession,
    trace_start: int,
    before: dict[str, Any],
    memory: MemoryState,
) -> StageRecord:
    return StageRecord(
        stage_name=stage,
        planner_prompt=prompt,
        emitted_program=program_text,
        parsed_program=render(program) if program is not None else None,
        tool_calls=list(session.trace[trace_start:]),
        memory_before=before,
        memory_after=memory.to_json_dict(),
    )


def run_event_parsing(
    qa: QAItem,
    video: VideoMeta,
    planner,
    session: ToolSession,
    config: RunConfig,
) -> StageResult:
    memory = init_memory(qa, video)
    before = memory.to_json_dict()
    trace_start = len(session.trace)
    prompt, program_text, program = _plan_and_parse(
        "event_parsing", memory, planner, session, video
    )
    execute_event_parsing_program(program, memory, config)
    record = _finish_record(
        "event_parsing", prompt, program_text, program, session, trace_start, before, memory
    )
    return StageResult(record, memory)


def run_grounding(
    memory: MemoryState,
    video: VideoMeta,
    planner,
    session: ToolSession,
    config: RunConfig,
) -> StageResult:
    before = memory.to_json_dict()
    trace_start = len(session.trace)
    prompt, program_text, program = _plan_and_parse("grounding", memory, planner, session, video)
    grounded = execute_grounding_program(program, memory, video, session, config)
    if not grounded:
        # nothing grounded: fall back to the single middle frame
        grounded = [memory.frame_ids.middle_frame()]
    memory.grounded_window = FrameWindow(tuple(grounded))
    record = _finish_record(
        "grounding", prompt, program_text, program, session, trace_start, before, memory
    )
    return StageResult(record, memory)


def run_reasoning(
    memory: MemoryState,
    video: VideoMeta,
    planner,
    session: ToolSession,
    config: RunConfig,
) -> StageResult:
    before = memory.to_json_dict()
    trace_start = len(session.trace)
    prompt, program_text, program = _plan_and_parse("reasoning", memory, planner, session, video)
    asked = execute_reasoning_program(program, memory, video, session)
    if asked == 0:
        try:
            question_only_vqa(memory, video, session)
        except ToolError as exc:
            raise StageError("reasoning", "tool_error", str(exc)) from exc
    record = _finish_record(
        "reasoning", prompt, program_text, program, session, trace_start, before, memory
    )
    return StageResult(record, memory)


def _disabled_record(stage: str, memory: MemoryState, before: dict[str, Any]) -> StageRecord:
    return StageRecord(
        stage_name=stage,
        planner_prompt="",
        emitted_program="",
        parsed_program=None,
        tool_calls=[],
        memory_before=before,
        memory_after=memory.to_json_dict(),
    )


# --- context assembly and prediction ---

_EXTRA_KEY_KINDS = ("caption", "grounded_vqa")


def build_context(
    memory: MemoryState, video: VideoMeta, session: ToolSession, n: int
) -> ContextBlock:
    """Caption n uniform frames and merge grounded VQA notes, sorted by frame."""
    if n < 1:
        raise ValueError("n must be >= 1")
    entries: list[dict[str, Any]] = []
    try:
        for frame_id in uniform_sample(video.frame_count, n):
            entries.append(
                {
                    "frame_id": frame_id,
                    "kind": "caption",
                    "text": session.caption(video.video_id, frame_id),
                }
            )
    except ToolError as exc:
        raise StageError("prediction", "tool_error", str(exc)) from exc
    for key, answer in memory.extra.items():
        parts = key.split("_frame_")
        if len(parts) != 2 or not parts[0].startswith("sq_"):
            continue
        sub_key, frame_text = parts
        if not frame_text.isdigit():
            continue
        sub_question = memory.extra.get(sub_key, memory.question)
        entries.append(
            {
                "frame_id": int(frame_text),
                "kind": "grounded_vqa",
                "text": f"{sub_question} -> {answer}",
                "sub_index": int(sub_key[3:]) if sub_key[3:].isdigit() else 0,
            }
        )
    entries.sort(
        key=lambda e: (e["frame_id"], _EXTRA_KEY_KINDS.index(e["kind"]), e.get("sub_index", -1))
    )
    lines = []
    for entry in entries:
        label = "caption" if entry["kind"] == "caption" else "qa"
        lines.append(f"[frame {entry['frame_id']}] {label}: {entry['text']}")
    return ContextBlock(entries, "\n".join(lines))


def map_reply_to_candidate(reply: str, candidates: tuple[str, ...]) -> int:
    """Exact normalized match first, then best token overlap; never fails."""
    normalized = normalize_text(reply)
    for idx, cand in enumerate(candidates):
        if normalize_text(cand) == normalized:
            return idx
    reply_tokens = token_set(reply)
    best_idx, best_overlap = 0, -1
    for idx, cand in enumerate(candidates):
        overlap = len(token_set(cand) & reply_tokens)
        if overlap > best_overlap:
            best_idx, best_overlap = idx, overlap
    return best_idx


def final_predict(
    context: ContextBlock,
    qa: QAItem,
    session: ToolSession,
    video_id: str | None = None,
    extra_lines: list[str] | None = None,
) -> tuple[str, int | None, str, str]:
    """Returns (answer_text, mc_index, prompt, raw_reply)."""
    context_lines = context.rendered.split("\n") if context.rendered else []
    if extra_lines:
        context_lines = context_lines + extra_lines
    prompt = build_predict_prompt(qa.question, qa.candidates, context_lines)
    try:
        reply = session.complete(prompt, video_id)
    except ToolError as exc:
        raise StageError("prediction", "tool_error", str(exc)) from exc
    if qa.candidates:
        idx = map_reply_to_candidate(reply, qa.candidates)
        return qa.candidates[idx], idx, prompt, reply
    return reply, None, prompt, reply


# --- full pipeline ---

def run_morevqa(
    video: VideoMeta,
    qa: QAItem,
    config: RunConfig,
    planner,
    session: ToolSession,
) -> RunOutcome:
    """Run the enabled stages, assemble context, and predict.

    Stage errors abort the item with a structured failure record instead of
    raising, so evaluation can score the item as incorrect and move on.
    """
    records: list[StageRecord] = []
    timings: dict[str, float] = {}
    m1, m2, m3 = config.stage_mask

    def clock(stage: str, started: float) -> None:
        timings[stage] = (time.perf_counter() - started) * 1000.0

    try:
        tick = time.perf_counter()
        if m1:
            result = run_event_parsing(qa, video, planner, session, config)
            memory = result.memory
            records.append(result.record)
        else:
            memory = init_memory(qa, video)
            records.append(_disabled_record("event_parsing", memory, memory.to_json_dict()))
        clock("event_parsing", tick)

        tick = time.perf_counter()
        if m2:
            records.append(run_grounding(memory, video, planner, session, config).record)
        else:
            before = memory.to_json_dict()
            memory.grounded_window = FrameWindow((memory.frame_ids.middle_frame(),))
            records.append(_disabled_record("grounding", memory, before))
        clock("grounding", tick)

        full_grounded = memory.grounded_window
        if config.grounded_to_prediction_only and memory.frame_ids:
            # ablation: reasoning sees only the ungrounded middle frame
            memory.grounded_window = FrameWindow((memory.frame_ids.middle_frame(),))

        tick = time.perf_counter()
        if m3:
            records.append(run_reasoning(memory, video, planner, session, config).record)
        elif m1 or m2:
            # retain the final VQA with the question itself, without
            # supporting questions
            before = memory.to_json_dict()
            trace_start = len(session.trace)
            try:
                question_only_vqa(memory, video, session)
            except ToolError as exc:
                raise StageError("reasoning", "tool_error", str(exc)) from exc
            record = _disabled_record("reasoning", memory, before)
            record.tool_calls = list(session.trace[trace_start:])
            records.append(record)
        else:
            records.append(_disabled_record("reasoning", memory, memory.to_json_dict()))
        clock("reasoning", tick)

        memory.grounded_window = full_grounded

        tick = time.perf_counter()
        context = build_context(memory, video, session, config.n_context_frames)
        extra_lines = None
        if config.grounded_to_prediction_only and full_grounded is not None:
            extra_lines = [f"grounded frames: {full_grounded.to_list()}"]
        answer, mc_index, prompt, reply = final_predict(
            context, qa, session, video.video_id, extra_lines
        )
        final_memory = memory.to_json_dict()
        records.append(
            StageRecord(
                stage_name="prediction",
                planner_prompt=prompt,
                emitted_program=reply,
                parsed_program=None,
                tool_calls=[session.trace[-1]],
                memory_before=final_memory,
                memory_after=final_memory,
            )
        )
        clock("prediction", tick)
        grounded_s = (
            window_to_seconds(memory.grounded_window, video.fps)
            if memory.grounded_window and len(memory.grounded_window)
            else None
        )
        return RunOutcome(
            answer=answer,
            mc_index=mc_index,
            grounded_window=memory.grounded_window,
            grounded_window_s=grounded_s,
            stage_records=records,
            prediction_prompt=prompt,
            stage_timings_ms=timings,
        )
    except StageError as exc:
        return RunOutcome(
            answer="",
            mc_index=None,
            grounded_window=None,
            grounded_window_s=None,
            stage_records=records,
            failure={"stage": exc.stage, "kind": exc.kind, "message": exc.message},
        )
