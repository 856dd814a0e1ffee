"""Three-stage reasoning pipeline over shared memory, plus final prediction.

Stage programs are tool-call programs obtained from a planner, checked
against their stage's call table and executed against MemoryState and the
tool session. `run_morevqa` runs the stages from one table; a disabled stage
runs its runner on the empty program. Every stage leaves a stage record so
the whole run is replayable from its trace.
"""

from __future__ import annotations

import math
import time
from enum import Enum
from operator import itemgetter
from typing import Any

from .core import (
    EvalItem,
    FrameWindow,
    MemoryState,
    Outcome,
    QAItem,
    QAType,
    RunConfig,
    Settings,
    TemporalConjunction,
    TemporalRegion,
    VideoMeta,
    MAX_EVENTS,
    _derived_window,
    uniform_sample,
    window_to_seconds,
)
from .lang import (
    BoolLit,
    CallStmt,
    FloatLit,
    IntLit,
    ParseError,
    Program,
    StringLit,
    parse,
    render,
)
from .planner import rule_plan
from .prompts import build_planner_prompt, build_predict_prompt
from .text import best_by_overlap, normalize_text
from .tools import ToolError, ToolSession

TRIM_FRACTION = 0.4


class StageError(Exception):
    """Structured stage failure; aborts the current item."""

    def __init__(self, stage: str, kind: str, message: str):
        super().__init__(f"[{stage}] {kind}: {message}")
        self.stage = stage
        self.kind = kind
        self.message = message


# --- planners ---
#
# A planner's `plan(stage, memory, prompt, session, video_id)` returns
# `(reply, program)`: the raw text a model sent, or None when the planner
# built the Program itself, and the Program. `prompt` is built once by the
# stage loop from the stage's `memory_before` snapshot.

class RuleBasedPlanner:
    """Emits stage programs directly from the keyword tables; no tool access."""

    def plan(self, stage: str, memory: MemoryState, prompt: str, session: ToolSession,
             video_id: str | None) -> tuple[None, Program]:
        return None, rule_plan(stage, memory)


class LlmBackedPlanner:
    """Obtains stage programs from a complete-capable backend."""

    def plan(self, stage: str, memory: MemoryState, prompt: str, session: ToolSession,
             video_id: str | None) -> tuple[str, Program]:
        reply = session.complete(prompt, video_id)
        return reply, parse(reply)


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
        return _derived_window(ids[:m])
    if region is TemporalRegion.END:
        return _derived_window(ids[n - m :])
    start = n // 2 - m // 2
    start = max(0, min(start, n - m))
    return _derived_window(ids[start : start + m])


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
    return _derived_window(picked)


# --- stage runners ---
#
# A runner executes one stage program against the shared memory and owns the
# stage's fallback. A disabled stage runs the empty program, so the fallback
# is also that stage's ablation.

# What each stage program may call, and the type of each argument. A planner's
# output is untrusted text in the one program grammar, so `_stage_calls`
# checks every statement against this table once. It is the only place that
# limits a stage program: an assignment, `if`, `for` or `return` is a
# `bad_statement` here. A runner sees only calls that passed, arguments
# converted.
# Every event-parsing and reasoning call but `noop` takes exactly one argument.
STAGE_CALLS: dict[str, dict[str, tuple[type, ...]]] = {
    "event_parsing": {
        "noop": (),
        "trim": (TemporalRegion,),
        "classify": (QAType,),
        "parse_event": (str,),
        "set_conjunction": (TemporalConjunction,),
        "require_ocr": (bool,),
        "revise_question": (str,),
    },
    "grounding": {
        "noop": (),
        "localize": (str,),
        "verify_action": (str,),
        "anchor_then_shift": (),
    },
    "reasoning": {
        "noop": (),
        "subquestion": (str,),
        "vqa_on_grounded": (str,),
    },
}


def _argument(expr: Any, kind: type) -> Any:
    """The value of a scalar literal of exactly this type (an Enum type takes
    one of its values); anything else raises TypeError or ValueError."""
    value = expr.value if isinstance(expr, (StringLit, IntLit, FloatLit, BoolLit)) else None
    if type(value) is kind:
        return value
    if type(value) is str and issubclass(kind, Enum):
        return kind(value)
    raise TypeError(f"not a {kind.__name__} literal")


def _stage_calls(program: Program, stage: str) -> list[tuple[str, list[Any]]]:
    """The program's calls with their converted arguments, `noop` dropped;
    a statement that the stage's table does not admit is a StageError."""
    calls: list[tuple[str, list[Any]]] = []
    for stmt in program.statements:
        if not isinstance(stmt, CallStmt):
            raise StageError(stage, "bad_statement", "stage programs admit calls only")
        kinds = STAGE_CALLS[stage].get(stmt.name)
        if kinds is None:
            raise StageError(stage, "unknown_call", f"unrecognized call {stmt.name!r}")
        try:
            if len(stmt.args) != len(kinds):
                raise TypeError(f"{stmt.name} takes {len(kinds)} arguments")
            args = list(map(_argument, stmt.args, kinds))
        except (TypeError, ValueError):
            params = ("|".join(m.value for m in k) if issubclass(k, Enum) else k.__name__
                      for k in kinds)
            raise StageError(
                stage, "bad_argument",
                f"expected {stmt.name}({', '.join(params)}), got {render(Program((stmt,)))}",
            ) from None
        if stmt.name != "noop":
            calls.append((stmt.name, args))
    return calls


def run_event_parsing(
    program: Program,
    memory: MemoryState,
    video: VideoMeta | None,
    session: ToolSession | None,
    config: RunConfig,
) -> None:
    """Trim the window and record the question type, events and conjunction;
    the empty program changes nothing."""
    stage = "event_parsing"
    for name, (value,) in _stage_calls(program, stage):
        if name == "trim":
            memory.frame_ids = apply_trim(memory.frame_ids, value, config.trim_mode)
        elif name == "classify":
            memory.qa_type = value
        elif name == "parse_event":
            if len(memory.event_queue) >= MAX_EVENTS:
                raise StageError(
                    stage, "event_overflow", f"more than {MAX_EVENTS} parsed events"
                )
            memory.event_queue.append(value)
        elif name == "set_conjunction":
            memory.conjunction = value
        elif name == "require_ocr":
            memory.require_ocr = value
        elif name == "revise_question":
            memory.question = value


def run_grounding(
    program: Program,
    memory: MemoryState,
    video: VideoMeta,
    session: ToolSession,
    config: RunConfig,
) -> None:
    """Set the grounded window from the grounding calls; when they ground
    nothing, as the empty program does, it is the window's middle frame."""
    stage = "grounding"
    base = memory.frame_ids.to_list()
    base_set = set(base)
    event_sets: dict[str, set[int]] = {}
    shift_result: set[int] | None = None
    for name, args in _stage_calls(program, stage):
        if name == "localize":
            event = args[0]
            matches = session.localize(video.video_id, event, base, stage="grounding")
            matched = {entry[0] for entry in matches if entry[0] in base_set}
            passed = {
                f
                for f in matched
                if session.score(video.video_id, f, event) >= config.score_threshold
            }
            event_sets[event] = event_sets[event] & passed if event in event_sets else passed
        elif name == "verify_action":
            event = args[0]
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
                        _derived_window(tuple(f for f in base if f in anchor)),
                        memory.conjunction,
                        memory.frame_ids,
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
    if shift_result is not None:
        grounded = shift_result
    elif memory.event_queue and memory.event_queue[0] in event_sets:
        grounded = event_sets[memory.event_queue[0]]
    else:
        grounded = set().union(*event_sets.values())
    # every grounded frame is one of base's, so base's order sorts them
    memory.grounded_window = _derived_window(
        tuple(f for f in base if f in grounded) or (memory.frame_ids.middle_frame(),)
    )


def run_reasoning(
    program: Program,
    memory: MemoryState,
    video: VideoMeta,
    session: ToolSession,
    config: RunConfig,
) -> None:
    """Register and ask the subquestions on the grounded frames; when the
    program makes no call but `noop`, as the empty one, ask the (possibly
    revised) question itself."""
    grounded = memory.grounded_window or ()
    prefix = "ocr" if memory.require_ocr else None
    registered: list[str] = []
    calls = _stage_calls(program, "reasoning") or [("vqa_on_grounded", [memory.question])]
    for name, (question,) in calls:
        if question not in registered:
            registered.append(question)
            memory.extra[f"sq_{len(registered) - 1}"] = question
        if name == "vqa_on_grounded":
            sub_index = registered.index(question)
            for frame_id in grounded:
                answer = session.vqa(video.video_id, frame_id, question, prefix)
                memory.extra[f"sq_{sub_index}_frame_{frame_id}"] = answer


def _plan(
    stage: str,
    memory: MemoryState,
    prompt: str,
    planner,
    session: ToolSession,
    video: VideoMeta,
) -> tuple[str | None, Program]:
    try:
        return planner.plan(stage, memory, prompt, session, video.video_id)
    except ToolError as exc:
        raise StageError(stage, "planner_error", str(exc)) from exc
    except ParseError as exc:
        raise StageError(stage, "parse_error", str(exc)) from exc


# --- context assembly and prediction ---

def caption_line(session: ToolSession, video_id: str | None, frame_id: int) -> str:
    """The context line of one frame's caption. `build_context` and the
    caption-and-predict baselines both write it, so their prompts agree."""
    return f"[frame {frame_id}] caption: {session.caption(video_id, frame_id)}"


def build_context(
    memory: MemoryState, video: VideoMeta, session: ToolSession, n: int
) -> list[str]:
    """The context lines: captions of n uniform frames merged with the
    grounded VQA notes, sorted by (frame, caption before qa, subquestion).
    The key never holds the line text, so ties keep insertion order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    video_id = video.video_id
    entries = [
        ((frame_id, 0, -1), caption_line(session, video_id, frame_id))
        for frame_id in uniform_sample(video.frame_count, n)
    ]
    for key, answer in memory.extra.items():
        parts = key.split("_frame_")
        if len(parts) != 2 or not parts[0].startswith("sq_"):
            continue
        sub_key, frame_text = parts
        if not frame_text.isdigit():
            continue
        sub_question = memory.extra.get(sub_key, memory.question)
        frame_id = int(frame_text)
        sub_index = int(sub_key[3:]) if sub_key[3:].isdigit() else 0
        entries.append(
            ((frame_id, 1, sub_index), f"[frame {frame_id}] qa: {sub_question} -> {answer}")
        )
    entries.sort(key=itemgetter(0))
    return [line for _, line in entries]


def map_reply_to_candidate(reply: str, candidates: tuple[str, ...]) -> int:
    """Exact normalized match first, then best token overlap; never fails."""
    normalized = normalize_text(reply)
    cand_norms = [normalize_text(cand) for cand in candidates]
    if normalized in cand_norms:
        return cand_norms.index(normalized)
    return best_by_overlap(candidates, set(normalized.split()))


def answer_from_reply(
    reply: str, candidates: tuple[str, ...] | None
) -> tuple[str, int | None]:
    """The candidate a reply maps to and its index; an open-ended question
    (no candidates) takes the reply itself."""
    if not candidates:
        return reply, None
    idx = map_reply_to_candidate(reply, candidates)
    return candidates[idx], idx


def final_predict(
    context_lines: list[str],
    qa: QAItem,
    session: ToolSession,
    video_id: str | None = None,
) -> tuple[str, int | None, str, str]:
    """Returns (answer_text, mc_index, prompt, raw_reply)."""
    prompt = build_predict_prompt(qa.question, qa.candidates, context_lines)
    reply = session.complete(prompt, video_id)
    return (*answer_from_reply(reply, qa.candidates), prompt, reply)


# --- full pipeline ---

def run_morevqa(
    item: EvalItem, video: VideoMeta, session: ToolSession, settings: Settings
) -> Outcome:
    """Run the three stages over one memory, assemble context, and predict.

    Every stage leaves a record; a disabled stage runs the empty program.
    Stage and tool errors abort the item with a structured failure record
    instead of raising, so evaluation can score the item as incorrect and
    move on.
    """
    qa, config = item.qa, settings.run_config
    planner = settings.planner or RuleBasedPlanner()
    records: list[dict[str, Any]] = []
    timings: dict[str, float] = {}
    failure = None
    memory = MemoryState(frame_ids=FrameWindow.full(video.frame_count), question=qa.question)
    # the runners are looked up here, at call time, so that a wrapper bound
    # in their place (a tracer, say) runs too
    stages = (
        ("event_parsing", run_event_parsing, config.stage_mask[0]),
        ("grounding", run_grounding, config.stage_mask[1]),
        # with every stage off, reasoning does not even ask the question
        ("reasoning", run_reasoning if any(config.stage_mask) else lambda *_: None,
         config.stage_mask[2]),
    )
    # One snapshot per stage boundary: a stage's `memory_after` is the next
    # stage's `memory_before` and the source of its planner prompt. Nothing
    # mutates a snapshot once taken, so records may share one.
    snapshot = memory.to_json_dict()
    try:
        for stage, runner, enabled in stages:
            tick = time.perf_counter()
            if stage == "reasoning":
                full_grounded = memory.grounded_window
                if config.grounded_to_prediction_only:
                    if memory.frame_ids:
                        # ablation: reasoning sees only the ungrounded middle frame
                        memory.grounded_window = _derived_window(
                            (memory.frame_ids.middle_frame(),))
                    snapshot = memory.to_json_dict()
            before = snapshot
            trace_start = len(session.trace)
            prompt, emitted, parsed, program = "", "", None, Program()
            if enabled:
                prompt = build_planner_prompt(stage, before)
                reply, program = _plan(stage, memory, prompt, planner, session, video)
                # one render per stage; a planner that built the Program
                # itself sent no text, so its rendering is the emitted text
                parsed = render(program)
                emitted = parsed if reply is None else reply
            runner(program, memory, video, session, config)
            snapshot = memory.to_json_dict()
            records.append({
                "stage_name": stage,
                "planner_prompt": prompt,
                "emitted_program": emitted,
                "parsed_program": parsed,
                "tool_calls": session.trace[trace_start:],
                "memory_before": before,
                "memory_after": snapshot,
            })
            timings[stage] = (time.perf_counter() - tick) * 1000.0

        stage = "prediction"
        tick = time.perf_counter()
        memory.grounded_window = full_grounded
        if config.grounded_to_prediction_only:
            snapshot = memory.to_json_dict()
        context = build_context(memory, video, session, config.n_context_frames)
        if config.grounded_to_prediction_only and full_grounded is not None:
            context.append(f"grounded frames: {full_grounded.to_list()}")
        answer, mc_index, prompt, reply = final_predict(context, qa, session, video.video_id)
        records.append({
            "stage_name": "prediction",
            "planner_prompt": prompt,
            "emitted_program": reply,
            "parsed_program": None,
            "tool_calls": [session.trace[-1]],
            "memory_before": snapshot,
            "memory_after": snapshot,
        })
        timings[stage] = (time.perf_counter() - tick) * 1000.0
    except ToolError as exc:
        failure = {"stage": stage, "kind": "tool_error", "message": str(exc)}
    except StageError as exc:
        failure = {"stage": exc.stage, "kind": exc.kind, "message": exc.message}
    if failure is None:
        grounded = memory.grounded_window or None
        window_s = window_to_seconds(grounded, video.fps) if grounded else None
    else:
        answer, mc_index, grounded, window_s, timings = "", None, None, None, {}
    trace = {
        "system": "morevqa",
        "video_id": item.video_id,
        "question": qa.question,
        "answer": answer,
        "mc_index": mc_index,
        "grounded_window": grounded.to_list() if grounded else None,
        "grounded_window_s": list(window_s) if window_s else None,
        "stage_records": records,
        "failure": failure,
    }
    return Outcome(answer, mc_index, window_s, trace, failure, timings)
