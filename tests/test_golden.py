"""Byte identity of everything the engine writes, pinned by two digests.

`GRID_SHA256` was last taken when each evaluation's traces moved into one
`traces.jsonl`; any change to a result, summary, trace or recording byte,
or to the layout of the files, shows up there.
`TRACE_SHA256` hashes only what the traces hold, so it does not depend on
how they are laid out on disk.
"""

from __future__ import annotations

import hashlib
import json

from morevqa.harness import read_traces
from morevqa.tools import RecordingBackend

GRID_SHA256 = "b0569d56f5b42cf633a8bc1bc5a96a8d202a773560322a09e9f2adefe4a90ac0"
# sha256 over one `json.dumps(trace, sort_keys=True)` line per trace, in
# grid order and then dataset order
TRACE_SHA256 = "4394e93417a2229cb2021a231773e3274722f914ed2352179eb772813d563e49"


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
    assert len(files) == 8 * 3 + 1
    assert digest.hexdigest() == GRID_SHA256


def test_grid_traces_match_the_layout_free_digest(tmp_path, mock_backend, run_grid):
    run_grid(mock_backend, tmp_path)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.glob("*/traces.jsonl")):
        for trace in read_traces(path):
            digest.update(json.dumps(trace, sort_keys=True).encode("utf-8") + b"\n")
    assert digest.hexdigest() == TRACE_SHA256
