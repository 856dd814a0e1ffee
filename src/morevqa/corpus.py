"""Authored oracle corpus: synthetic videos whose questions are answerable
only through correct trimming and grounding.

Layout per item (32 frames at 1 fps, default 16-frame context):
  * the decisive evidence lives in frame actions / OCR text, never in any
    caption, so caption-only systems cannot see it;
  * a distractor answer is planted in captions of even frames, which the
    16-frame uniform context sampler never visits (it picks odd frames) but
    a caption-every-frame run does, so that baseline answers wrongly;
  * a trap frame replicating the event outside the questioned region keeps
    ungrounded or untrimmed executions honest.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .text import token_set
from .tools import FrameRecord, ObjectRecord, WorldFixture, mock_score, save_fixture

FRAME_COUNT = 32
FPS = 1.0
_BOX = [0.2, 0.2, 0.6, 0.6]

SUBJECTS = [
    ("grey", "cat"),
    ("brown", "dog"),
    ("young", "boy"),
    ("small", "girl"),
    ("white", "horse"),
    ("tall", "man"),
    ("tiny", "bird"),
    ("red", "fox"),
]

ACTIONS = [
    ("lying", "on its back"),
    ("rolling", "in the grass"),
    ("jumping", "over a fence"),
    ("climbing", "up a ladder"),
    ("splashing", "in a puddle"),
    ("balancing", "on a beam"),
    ("digging", "near a bush"),
    ("spinning", "around a pole"),
]

# pairwise token-disjoint two-word answers
EVIDENCE_POOL = [
    "chasing butterflies",
    "nibbling biscuits",
    "licking windows",
    "holding ribbons",
    "wearing goggles",
    "carrying baskets",
    "pushing wagons",
    "stacking pebbles",
    "tossing acorns",
    "folding napkins",
    "hiding marbles",
    "shaking tambourines",
]

FILLER_CAPTIONS = [
    "clouds drift across a pale sky",
    "this quiet street has parked cars",
    "sunlight falls through tall trees",
    "gentle waves reach a sandy shore",
    "distant hills fade into light mist",
    "a narrow path winds past stone walls",
    "lamps glow softly above the square",
    "leaves settle slowly near a bench",
]

COUNT_OBJECTS = [("bright", "kites"), ("paper", "lanterns"), ("striped", "balloons")]
COUNT_ACTIONS = [
    ("gliding", "across the water"),
    ("floating", "above the field"),
    ("drifting", "down the slope"),
]
COUNT_WORDS = ["seven", "three", "five"]

REGION_PHRASES = {
    "beginning": "in the beginning of the video",
    "middle": "in the middle of the video",
    "end": "at the end of the video",
}

# region -> the 13-frame slice that trimming keeps on a 32-frame video
REGION_WINDOWS = {
    "beginning": list(range(0, 13)),
    "middle": list(range(10, 23)),
    "end": list(range(19, 32)),
}

SCHEDULE: list[tuple[str, str]] = [
    ("why_region", "beginning"),
    ("why_region", "end"),
    ("why_region", "middle"),
    ("what_region", "end"),
    ("conj_after", ""),
    ("ocr", "end"),
    ("counting", "middle"),
    ("open_region", "beginning"),
    ("why_region", "end"),
    ("what_region", "middle"),
    ("conj_before", ""),
    ("open_region", "end"),
    ("why_region", "middle"),
    ("what_region", "beginning"),
    ("conj_after", ""),
    ("ocr", "middle"),
    ("counting", "end"),
    ("open_region", "middle"),
    ("why_region", "beginning"),
    ("what_region", "end"),
    ("conj_after", ""),
    ("ocr", "beginning"),
    ("counting", "beginning"),
    ("open_region", "end"),
    ("why_region", "end"),
    ("what_region", "middle"),
    ("conj_before", ""),
    ("why_region", "beginning"),
    ("what_region", "beginning"),
    ("conj_after", ""),
]


@dataclass
class CorpusBundle:
    fixtures: dict[str, WorldFixture] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)
    programs: dict[str, str] = field(default_factory=dict)

    @property
    def labels(self) -> list[str]:
        return [row["qtype"] for row in self.rows]


def _filler_frames() -> list[FrameRecord]:
    return [
        FrameRecord(
            frame_id=i,
            caption=FILLER_CAPTIONS[i % len(FILLER_CAPTIONS)],
        )
        for i in range(FRAME_COUNT)
    ]


def _plant_distractor(frames: list[FrameRecord], planted: str, where: list[int]) -> None:
    for frame_id in where:
        frames[frame_id].caption = f"someone is {planted}"


def _free_even_frames(used: set[int], count: int) -> list[int]:
    free = [f for f in range(0, FRAME_COUNT, 2) if f not in used]
    return free[:count]


def _event_frame(frame_id: int, event: str, noun: str, extra_actions: list[str]) -> FrameRecord:
    return FrameRecord(
        frame_id=frame_id,
        objects=[ObjectRecord(noun, list(_BOX))],
        actions=[event] + extra_actions,
        caption=event,
    )


def _shuffled_candidates(
    rng: random.Random, correct: str, others: list[str]
) -> tuple[list[str], int]:
    candidates = [correct] + others
    rng.shuffle(candidates)
    return candidates, candidates.index(correct)


def _evidence_slice(index: int, count: int) -> list[str]:
    start = (index * 3) % (len(EVIDENCE_POOL) - count + 1)
    return EVIDENCE_POOL[start : start + count]


def _check_target_scores(fixture: WorldFixture, event: str, frames: list[int]) -> None:
    for frame_id in frames:
        score = mock_score(fixture, frame_id, event)
        assert score >= 0.7, (
            f"{fixture.video_id}: target frame {frame_id} scores {score:.3f} "
            f"for event {event!r}"
        )


def _region_item(
    index: int, video_id: str, region: str, kind: str, rng: random.Random
) -> tuple[WorldFixture, dict[str, Any]]:
    adj, noun = SUBJECTS[index % len(SUBJECTS)]
    verb, tail = ACTIONS[(index * 3 + 1) % len(ACTIONS)]
    event = f"{adj} {noun} {verb} {tail}"
    assert len(token_set(event)) == 6, event

    window = REGION_WINDOWS[region]
    targets = [window[3], window[7]]
    evidence = _evidence_slice(index, 5)
    correct, planted, trap, decoy_a, decoy_b = evidence

    frames = _filler_frames()
    for frame_id in targets:
        frames[frame_id] = _event_frame(frame_id, event, noun, [correct])
    used = set(targets)
    outside_even = [f for f in range(0, FRAME_COUNT, 2) if f not in window and f not in used]
    trap_frame = outside_even[0]
    frames[trap_frame] = _event_frame(trap_frame, event, noun, [trap])
    used.add(trap_frame)
    _plant_distractor(frames, planted, outside_even[1:3])

    qa_notes = None
    lead = "why" if kind in ("why_region", "open_region") else "what"
    question = f"{lead} is the {event} {REGION_PHRASES[region]}?"
    row: dict[str, Any] = {
        "video_id": video_id,
        "question": question,
        "gt_window_s": [float(targets[0]), float(targets[-1] + 1)],
        "qtype": "why" if lead == "why" else "what",
        "subset": "open" if kind == "open_region" else "region",
    }
    if kind == "open_region":
        row["answer_open"] = [correct, correct]
        qa_notes = "\n".join([correct, planted, decoy_a])
    else:
        candidates, answer = _shuffled_candidates(rng, correct, [planted, trap, decoy_a, decoy_b])
        row["candidates"] = candidates
        row["answer_mc"] = answer

    fixture = WorldFixture(video_id=video_id, fps=FPS, frames=frames, qa_notes=qa_notes)
    _check_target_scores(fixture, event, targets)
    return fixture, row


def _conjunction_item(
    index: int, video_id: str, conj: str, rng: random.Random
) -> tuple[WorldFixture, dict[str, Any]]:
    adj, noun = SUBJECTS[index % len(SUBJECTS)]
    verb, tail = ACTIONS[(index * 3 + 1) % len(ACTIONS)]
    anchor_verb, anchor_tail = ACTIONS[(index * 3 + 4) % len(ACTIONS)]
    target_event = f"{adj} {noun} {verb} {tail}"
    anchor_event = f"{anchor_verb} {anchor_tail}"
    anchor_noun = anchor_tail.split()[-1]
    assert len(token_set(target_event)) == 6, target_event

    if conj == "after":
        anchors, targets, decoy = [6, 7], [20, 22], 2
    else:
        anchors, targets, decoy = [24, 25], [10, 12], 28
    evidence = _evidence_slice(index, 5)
    correct, planted, trap, decoy_a, decoy_b = evidence

    frames = _filler_frames()
    for frame_id in targets:
        frames[frame_id] = _event_frame(frame_id, target_event, noun, [correct])
    for frame_id in anchors:
        frames[frame_id] = FrameRecord(
            frame_id=frame_id,
            objects=[ObjectRecord(anchor_noun, list(_BOX))],
            actions=[anchor_event],
            caption=anchor_event,
        )
    frames[decoy] = _event_frame(decoy, target_event, noun, [trap])
    used = set(targets) | set(anchors) | {decoy}
    _plant_distractor(frames, planted, _free_even_frames(used, 2))

    question = f"why is the {target_event} {conj} {anchor_event}?"
    candidates, answer = _shuffled_candidates(rng, correct, [planted, trap, decoy_a, decoy_b])
    row = {
        "video_id": video_id,
        "question": question,
        "candidates": candidates,
        "answer_mc": answer,
        "gt_window_s": [float(targets[0]), float(targets[-1] + 1)],
        "qtype": "why",
        "subset": "conjunction",
    }
    fixture = WorldFixture(video_id=video_id, fps=FPS, frames=frames)
    _check_target_scores(fixture, target_event, targets)
    _check_target_scores(fixture, anchor_event, anchors)
    return fixture, row


def _ocr_item(
    index: int, video_id: str, region: str, rng: random.Random
) -> tuple[WorldFixture, dict[str, Any]]:
    window = REGION_WINDOWS[region]
    ocr_frame = window[len(window) // 2]
    evidence = _evidence_slice(index, 5)
    correct, planted, decoy_a, decoy_b, decoy_c = evidence

    frames = _filler_frames()
    frames[ocr_frame].ocr_text = correct
    used = set(window)
    _plant_distractor(frames, planted, _free_even_frames(used, 2))

    question = f"what does the sign say {REGION_PHRASES[region]}?"
    candidates, answer = _shuffled_candidates(rng, correct, [planted, decoy_a, decoy_b, decoy_c])
    row = {
        "video_id": video_id,
        "question": question,
        "candidates": candidates,
        "answer_mc": answer,
        "gt_window_s": [float(ocr_frame), float(ocr_frame + 1)],
        "qtype": "what",
        "subset": "ocr",
    }
    return WorldFixture(video_id=video_id, fps=FPS, frames=frames), row


def _counting_item(
    index: int, video_id: str, region: str, rng: random.Random
) -> tuple[WorldFixture, dict[str, Any]]:
    adj, noun = COUNT_OBJECTS[index % len(COUNT_OBJECTS)]
    verb, tail = COUNT_ACTIONS[index % len(COUNT_ACTIONS)]
    event = f"{adj} {noun} are {verb} {tail}"
    assert len(token_set(event)) == 7, event
    count_word = COUNT_WORDS[index % len(COUNT_WORDS)]
    correct = f"{count_word} {noun}"
    window = REGION_WINDOWS[region]
    targets = [window[3], window[7]]
    evidence = _evidence_slice(index, 4)
    planted, decoy_a, decoy_b, decoy_c = evidence

    frames = _filler_frames()
    for frame_id in targets:
        frames[frame_id] = _event_frame(frame_id, event, noun, [correct])
    used = set(targets)
    outside_even = [f for f in range(0, FRAME_COUNT, 2) if f not in window and f not in used]
    _plant_distractor(frames, planted, outside_even[:2])

    question = f"how many {adj} {noun} are {verb} {tail} {REGION_PHRASES[region]}?"
    candidates, answer = _shuffled_candidates(rng, correct, [planted, decoy_a, decoy_b, decoy_c])
    row = {
        "video_id": video_id,
        "question": question,
        "candidates": candidates,
        "answer_mc": answer,
        "gt_window_s": [float(targets[0]), float(targets[-1] + 1)],
        "qtype": "counting",
        "subset": "counting",
    }
    fixture = WorldFixture(video_id=video_id, fps=FPS, frames=frames)
    _check_target_scores(fixture, event, targets)
    return fixture, row


_SINGLE_STAGE_GOOD = """#mode=extended
return llm_query(question)
"""

_SINGLE_STAGE_BAD_CONDITION = """#mode=extended
frames = localize("{noun}")
first = -1
for f in frames:
    if first == -1:
        first = f
info = vqa(first, "what is the {noun} doing?")
return llm_query(question, [info])
"""

_SINGLE_STAGE_UNBOUND = """#mode=extended
frames = localize("{noun}")
return llm_query(quesiton)
"""


def build_oracle_corpus(n_items: int = 30, seed: int = 0) -> CorpusBundle:
    """Build fixtures, dataset rows, and authored single-stage programs."""
    if not 1 <= n_items <= len(SCHEDULE):
        raise ValueError(f"n_items must lie in [1, {len(SCHEDULE)}]")
    bundle = CorpusBundle()
    for index in range(n_items):
        kind, region = SCHEDULE[index]
        video_id = f"v{index:03d}"
        rng = random.Random(seed * 7919 + index)
        if kind in ("why_region", "what_region", "open_region"):
            fixture, row = _region_item(index, video_id, region, kind, rng)
        elif kind in ("conj_after", "conj_before"):
            fixture, row = _conjunction_item(index, video_id, kind.split("_")[1], rng)
        elif kind == "ocr":
            fixture, row = _ocr_item(index, video_id, region, rng)
        elif kind == "counting":
            fixture, row = _counting_item(index, video_id, region, rng)
        else:
            raise ValueError(kind)
        bundle.fixtures[video_id] = fixture
        bundle.rows.append(row)

    # authored single-stage programs for the first three items
    templates = [_SINGLE_STAGE_GOOD, _SINGLE_STAGE_BAD_CONDITION, _SINGLE_STAGE_UNBOUND]
    for index, template in enumerate(templates):
        if index >= n_items:
            break
        noun = SUBJECTS[index % len(SUBJECTS)][1]
        path = f"programs/item{index:04d}.mvp"
        bundle.programs[path] = template.format(noun=noun)
        bundle.rows[index]["program_path"] = path
    if n_items >= 2:
        # the bad-condition program picks the first localized frame, so its
        # item must have the trap replica before the true targets
        fixture = bundle.fixtures["v001"]
        event_frames = [
            fr.frame_id for fr in fixture.frames
            if any(o.name == SUBJECTS[1][1] for o in fr.objects)
        ]
        gt_start = bundle.rows[1]["gt_window_s"][0]
        assert event_frames and event_frames[0] < gt_start, (
            "item v001 must keep its trap frame ahead of the grounded targets"
        )
    return bundle


def write_corpus(bundle: CorpusBundle, out_dir: str | Path) -> Path:
    """Write fixtures/, dataset.jsonl, and programs/ under out_dir."""
    out = Path(out_dir)
    fixtures_dir = out / "fixtures"
    fixtures_dir.mkdir(parents=True, exist_ok=True)
    for video_id, fixture in bundle.fixtures.items():
        save_fixture(fixture, fixtures_dir / f"{video_id}.json")
    with open(out / "dataset.jsonl", "w", encoding="utf-8") as fh:
        for row in bundle.rows:
            fh.write(json.dumps(row) + "\n")
    for rel_path, text in bundle.programs.items():
        target = out / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return out
