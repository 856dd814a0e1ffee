"""The text layer against its two-regex reference definition, and the mock
tools' whole-word matching against `whole_word_contains`."""

from __future__ import annotations

import re
import sys

from hypothesis import given, strategies as st

from morevqa.text import normalize_text, token_set, tokens, whole_word_contains
from morevqa.tools import FrameRecord, ObjectRecord, WorldFixture, mock_localize, mock_verify_action

# the reference: punctuation to space, then every whitespace run to one space
_PUNCT = re.compile(r"[^\w\s]")
_WS = re.compile(r"\s+")


def ref_normalize(text: str) -> str:
    return _WS.sub(" ", _PUNCT.sub(" ", text.lower())).strip()


def ref_tokens(text: str) -> list[str]:
    norm = ref_normalize(text)
    return norm.split(" ") if norm else []


def ref_whole_word_contains(phrase: str, needle: str) -> bool:
    sub = f" {ref_normalize(needle)} "
    return sub.strip() != "" and sub in f" {ref_normalize(phrase)} "


def test_normalize_matches_reference_on_every_code_point():
    text = "".join("a" + chr(c) for c in range(sys.maxunicode + 1))
    assert normalize_text(text) == ref_normalize(text)


def test_normalize_examples():
    assert normalize_text("  Why did the MAN,\tsmile?\n") == "why did the man smile"
    assert normalize_text("a b c\x1cd") == "a b c d"  # Unicode whitespace
    assert normalize_text("?!,") == ""
    assert tokens("") == [] and tokens(" ... ") == []


# a small alphabet, so phrases share words, plus any text
_WORDISH = st.text(alphabet="ab ,.\t\n -_É", max_size=12)
_TEXT = _WORDISH | st.text(max_size=24)


@given(_TEXT)
def test_tokens_match_reference(text):
    assert normalize_text(text) == ref_normalize(text)
    assert tokens(text) == ref_tokens(text)
    assert token_set(text) == set(ref_tokens(text))


@given(_TEXT, _TEXT)
def test_whole_word_contains_matches_reference(phrase, needle):
    assert whole_word_contains(phrase, needle) == ref_whole_word_contains(phrase, needle)


_BOX = [0.1, 0.2, 0.6, 0.7]
_FRAMES = st.lists(
    st.tuples(st.lists(_WORDISH, max_size=3), st.lists(_WORDISH, max_size=3)),
    min_size=1, max_size=5,
)


def _fixture(frames) -> WorldFixture:
    records = [
        FrameRecord(idx, [ObjectRecord(name, list(_BOX)) for name in names], list(actions), "c")
        for idx, (names, actions) in enumerate(frames)
    ]
    return WorldFixture("v", 1.0, records)


@given(_FRAMES, _WORDISH, st.lists(st.integers(-1, 6), max_size=6))
def test_mock_tools_match_whole_word_contains_per_frame(frames, query, frame_ids):
    fixture = _fixture(frames)
    expected = [
        [fid, list(_BOX)]
        for fid in frame_ids
        if 0 <= fid < len(frames) and any(whole_word_contains(query, n) for n in frames[fid][0])
    ]
    assert mock_localize(fixture, query, frame_ids) == expected
    for fid, (_, actions) in enumerate(frames):
        expected_verify = any(whole_word_contains(query, a) for a in actions)
        assert mock_verify_action(fixture, fid, query) is expected_verify
