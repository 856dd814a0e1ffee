"""Prompt construction and parsing shared by the engine and the mock backend.

The formats are deliberately frozen: prediction prompts must be byte-stable so
that caption-only pipeline runs and the caption-every-frame baseline can be
compared byte for byte.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .core import MemoryState

PREDICT_HEADER = "#predict"
PLANNER_HEADER_PREFIX = "#planner:"

_CANDIDATE_LINE = re.compile(r"^(\d+): (.*)$")


def build_planner_prompt(stage: str, memory: dict[str, Any]) -> str:
    """The planner prompt for a stage over a `MemoryState.to_json_dict()`
    snapshot; the engine passes the stage's `memory_before`."""
    return "\n".join(
        [
            f"{PLANNER_HEADER_PREFIX}{stage}",
            f"question: {memory['question']}",
            f"memory: {json.dumps(memory)}",
        ]
    )


def build_single_stage_prompt(question: str) -> str:
    return "\n".join([f"{PLANNER_HEADER_PREFIX}single_stage", f"question: {question}"])


def build_predict_prompt(
    question: str,
    candidates: tuple[str, ...] | None,
    context_lines: list[str],
) -> str:
    lines = [PREDICT_HEADER, f"question: {question}"]
    if candidates:
        lines.append("candidates:")
        lines.extend(f"{i}: {text}" for i, text in enumerate(candidates))
    lines.append("context:")
    lines.extend(context_lines)
    return "\n".join(lines)


def parse_planner_prompt(prompt: str) -> tuple[str, MemoryState]:
    """Return (stage, memory) from a planner prompt.

    The memory is read from the last line: the question line above it is cut
    at any newline in the question, and the memory JSON holds it whole.
    """
    header, _, _ = prompt.partition("\n")
    if not header.startswith(PLANNER_HEADER_PREFIX):
        raise ValueError("missing planner header")
    stage = header[len(PLANNER_HEADER_PREFIX):].strip()
    last = prompt.rsplit("\n", 1)[-1]
    if not last.startswith("memory: "):
        raise ValueError("planner prompt lacks a memory line")
    return stage, MemoryState.from_json_dict(json.loads(last[len("memory: "):]))


def parse_predict_prompt(prompt: str) -> tuple[str, list[str], str]:
    """Return (question, candidates, context_text) from a prediction prompt."""
    lines = prompt.split("\n")
    if not lines or lines[0] != PREDICT_HEADER:
        raise ValueError("missing predict header")
    question = ""
    candidates: list[str] = []
    context_start = None
    in_candidates = False
    for idx, line in enumerate(lines[1:], start=1):
        if line == "context:":
            context_start = idx + 1
            break
        if line == "candidates:":
            in_candidates = True
            continue
        if in_candidates:
            match = _CANDIDATE_LINE.match(line)
            if match:
                candidates.append(match.group(2))
                continue
        if line.startswith("question: ") and not question:
            question = line[len("question: "):]
    if context_start is None:
        raise ValueError("prediction prompt lacks a context block")
    context_text = "\n".join(lines[context_start:])
    return question, candidates, context_text
