"""Text normalization and token matching used across tools and scoring.

Normalization is lowercase, punctuation stripped, whitespace collapsed. It is
one regex pass plus `str.split`: regex `\\s`, `str.split()` and `str.strip()`
share CPython's Unicode whitespace predicate, so splitting on whitespace and
joining with one space collapses and trims exactly as `\\s+` -> " " would.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, Iterable

_PUNCT = re.compile(r"[^\w\s]")


def normalize_text(text: str) -> str:
    return " ".join(_PUNCT.sub(" ", text.lower()).split())


def tokens(text: str) -> list[str]:
    return _PUNCT.sub(" ", text.lower()).split()


def token_set(text: str) -> set[str]:
    return set(tokens(text))


def _has_whole_word(padded_phrase: str, needle: str) -> bool:
    """The whole-word rule: `padded_phrase` is a normalized phrase with one
    space on each side, and the normalized needle, padded alike, must be a
    non-empty substring of it."""
    sub = f" {normalize_text(needle)} "
    return sub != "  " and sub in padded_phrase


def whole_word_contains(phrase: str, needle: str) -> bool:
    """True when the normalized phrase contains the normalized needle as a
    whole-word substring."""
    return _has_whole_word(f" {normalize_text(phrase)} ", needle)


def whole_word_matcher(phrase: str) -> Callable[[str], bool]:
    """`whole_word_contains(phrase, ·)` with the phrase normalized once, for
    testing one phrase against many needles."""
    return partial(_has_whole_word, f" {normalize_text(phrase)} ")


def jaccard(a: set[str], b: set[str]) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def best_by_overlap(options: Iterable[str], context_tokens: set[str]) -> int:
    """Index of the option with the most distinct tokens in the context, the
    first such option winning ties."""
    best_idx, best_overlap = 0, -1
    for idx, option in enumerate(options):
        overlap = len(token_set(option) & context_tokens)
        if overlap > best_overlap:
            best_idx, best_overlap = idx, overlap
    return best_idx
