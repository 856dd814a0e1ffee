"""Deterministic rule-based stage planner.

Emits stage programs of calls from keyword tables over the question, so
the whole pipeline is runnable and testable without a language model. The
mock completion backend routes planner prompts here as well.
"""

from __future__ import annotations

import re

from .core import MemoryState, QAType
from .lang import CallStmt, Program, StringLit, BoolLit
from .text import tokens

REGION_KEYWORDS = {
    "beginning": "beginning",
    "start": "beginning",
    "middle": "middle",
    "end": "end",
    "finally": "end",
}

CONJUNCTION_KEYWORDS = {
    "before": "before",
    "after": "after",
    "while": "while",
    "when": "while",
    "as": "while",
}

OCR_KEYWORDS = frozenset({"say", "written", "text", "sign", "label"})

# leading tokens stripped when turning a clause into an event phrase
_LEAD_STOPWORDS = frozenset(
    {
        "why", "how", "what", "where", "when", "which", "who", "whom", "whose",
        "is", "are", "was", "were", "do", "does", "did", "can", "could",
        "will", "would", "should", "many", "much", "a", "an", "the",
    }
)

# -ing tokens that never denote a groundable action on their own
_ING_STOPWORDS = frozenset(
    {
        "doing", "being", "going", "during", "something", "anything",
        "nothing", "everything", "morning", "evening",
    }
)

_REGION_PHRASE = re.compile(
    r"\s*(?:in|at|near|toward|towards)\s+the\s+(?:beginning|start|middle|end)\s+of\s+the\s+video\b",
    re.IGNORECASE,
)
_FINALLY_LEAD = re.compile(r"^\s*finally\s*,?\s*", re.IGNORECASE)
_SPACE_BEFORE_PUNCT = re.compile(r"\s+(?=[?.!,])")

_QTYPE_BY_LEAD = {
    "why": QAType.WHY,
    "what": QAType.WHAT,
    "where": QAType.LOCATION,
    "describe": QAType.DESCRIPTION,
    "explain": QAType.EXPLANATION,
}

_COUNT_STOP = frozenset({"is", "are", "was", "were", "do", "does", "did", "can", "visible"})


def _classify(toks: list[str]) -> QAType | None:
    """Map the leading interrogative to a question type, or None."""
    if not toks:
        return None
    first = toks[0]
    if first == "how":
        if len(toks) > 1 and toks[1] in ("many", "much"):
            return QAType.COUNTING
        return QAType.HOW
    return _QTYPE_BY_LEAD.get(first)


def _find_region(toks: list[str]) -> str | None:
    for tok in toks:
        if tok in REGION_KEYWORDS:
            return REGION_KEYWORDS[tok]
    return None


def _find_conjunction(toks: list[str]) -> tuple[str, int] | None:
    """First temporal conjunction token and its index, if any."""
    for idx, tok in enumerate(toks):
        if tok in CONJUNCTION_KEYWORDS:
            return CONJUNCTION_KEYWORDS[tok], idx
    return None


def strip_region_phrase(question: str) -> str:
    revised = _REGION_PHRASE.sub("", question)
    revised = _FINALLY_LEAD.sub("", revised)
    revised = " ".join(revised.split())
    revised = _SPACE_BEFORE_PUNCT.sub("", revised)
    return revised


def _clean_clause(clause_tokens: list[str]) -> list[str]:
    i = 0
    while i < len(clause_tokens) and clause_tokens[i] in _LEAD_STOPWORDS:
        i += 1
    return clause_tokens[i:]


def _is_action_token(tok: str) -> bool:
    return tok.endswith("ing") and len(tok) > 4 and tok not in _ING_STOPWORDS


def _events(toks: list[str]) -> tuple[list[str], str | None]:
    """Split the region-stripped question's tokens into at most two event
    phrases plus a conjunction.

    A clause counts as an event only when it carries a progressive action
    token; attribute-style questions yield no events and let grounding no-op.
    """
    conj = _find_conjunction(toks)
    clauses: list[list[str]] = []
    conj_name: str | None = None
    if conj is not None:
        conj_name, idx = conj
        clauses = [toks[:idx], toks[idx + 1 :]]
    else:
        clauses = [toks]
    events: list[str] = []
    for clause in clauses:
        cleaned = _clean_clause(clause)
        if any(_is_action_token(t) for t in cleaned):
            events.append(" ".join(cleaned))
    if conj_name is not None and len(events) < 2:
        conj_name = None if not events else conj_name
    return events, conj_name


def subject_of_event(event: str) -> str:
    """Tokens of the event up to its first action token."""
    toks = event.split(" ")
    head: list[str] = []
    for tok in toks:
        if _is_action_token(tok):
            break
        head.append(tok)
    head = [t for t in head if t not in ("a", "an", "the")]
    return " ".join(head) if head else event


def counted_object(question: str) -> str | None:
    toks = tokens(question)
    for i in range(len(toks) - 1):
        if toks[i] == "how" and toks[i + 1] == "many":
            obj: list[str] = []
            for tok in toks[i + 2 :]:
                if tok in _COUNT_STOP:
                    break
                obj.append(tok)
            return " ".join(obj) if obj else None
    return None


def _call(name: str, *args: str | bool) -> CallStmt:
    exprs = tuple(BoolLit(a) if isinstance(a, bool) else StringLit(a) for a in args)
    return CallStmt(name, exprs)


def _plan_event_parsing(memory: MemoryState) -> Program:
    question = memory.question
    toks = tokens(question)
    revised = strip_region_phrase(question)
    stmts: list[CallStmt] = []
    region = _find_region(toks)
    if region is not None:
        stmts.append(_call("trim", region))
    qa_type = _classify(toks)
    if qa_type is not None:
        stmts.append(_call("classify", qa_type.value))
    if any(tok in OCR_KEYWORDS for tok in toks):
        stmts.append(_call("require_ocr", True))
    events, conj = _events(toks if revised == question else tokens(revised))
    if conj is not None:
        stmts.append(_call("set_conjunction", conj))
    for event in events[:2]:
        stmts.append(_call("parse_event", event))
    if revised != question:
        stmts.append(_call("revise_question", revised))
    if not stmts:
        stmts.append(_call("noop"))
    return Program(tuple(stmts))


def _plan_grounding(memory: MemoryState) -> Program:
    stmts: list[CallStmt] = []
    for event in memory.event_queue:
        stmts.append(_call("localize", event))
        stmts.append(_call("verify_action", event))
    if len(memory.event_queue) == 2:
        stmts.append(_call("anchor_then_shift"))
    if not stmts:
        stmts.append(_call("noop"))
    return Program(tuple(stmts))


def _plan_reasoning(memory: MemoryState) -> Program:
    subquestions: list[str] = []
    if memory.qa_type is QAType.WHY and memory.event_queue:
        subject = subject_of_event(memory.event_queue[0])
        subquestions.append(f"what is the {subject} doing?")
        subquestions.append(f"what is the {subject} interacting with?")
    elif memory.qa_type is QAType.LOCATION:
        subquestions.append("where is this?")
    elif memory.qa_type is QAType.COUNTING:
        obj = counted_object(memory.question)
        if obj:
            subquestions.append(f"how many {obj} are visible?")
    stmts: list[CallStmt] = []
    for sub in subquestions:
        stmts.append(_call("subquestion", sub))
        stmts.append(_call("vqa_on_grounded", sub))
    if not stmts:
        stmts.append(_call("noop"))
    return Program(tuple(stmts))


_STAGE_PLANNERS = {
    "event_parsing": _plan_event_parsing,
    "grounding": _plan_grounding,
    "reasoning": _plan_reasoning,
}


def rule_plan(stage: str, memory: MemoryState) -> Program:
    """The program of calls for a stage. Its rendering always parses back to it."""
    if stage not in _STAGE_PLANNERS:
        raise ValueError(f"no rule planner for stage {stage!r}")
    return _STAGE_PLANNERS[stage](memory)
