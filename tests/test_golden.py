"""Byte identity of everything the engine writes, pinned by one digest.

The digest was taken before the plan lexer, renderer, planner and tool-call
path were reworked for speed; any change to a result, summary, trace or
recording byte shows up here.
"""

from __future__ import annotations

import hashlib

from morevqa.tools import RecordingBackend

GRID_SHA256 = "b313bcf96c922d4115955ed80f3dcb4dd4341ae695cd9244f6c3685c9c2e17bf"


def test_grid_outputs_match_the_golden_digest(tmp_path, mock_backend, run_grid):
    recorder = RecordingBackend(mock_backend, tmp_path / "recording.jsonl")
    try:
        files = run_grid(recorder, tmp_path / "grid")
    finally:
        recorder.close()
    files["recording.jsonl"] = (tmp_path / "recording.jsonl").read_bytes()
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode("utf-8") + b"\0" + files[name] + b"\0")
    assert len(files) == 8 * 30 + 8 + 8 + 1
    assert digest.hexdigest() == GRID_SHA256
