"""`scripts/run_experiments.py` end to end, as the README's Quickstart runs it,
on the default mock and over `remote:`, `--record` and `replay:`."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from morevqa.harness import GRID
from morevqa.server import start_server
from morevqa.tools import MockBackend, RecordingBackend, ToolRequest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"

# the README Quickstart block: system -> (accuracy, fail rate)
EXPECTED_SYSTEMS = {
    "morevqa": ("1.000", "0.000"),
    "jcef": ("0.000", "0.000"),
    "llm_only": ("0.167", "0.000"),
    "single_stage": ("0.000", "0.933"),
}
EXPECTED_ABLATION = [
    "off off off -> 0.367",
    "on  off on  -> 0.400",
    "on  on  off -> 1.000",
    "on  on  on  -> 1.000",
]
# the distinct tool calls of the grid over the oracle corpus, out of 4,424 made
DISTINCT_CALLS = 1516


def _run(oracle_dir, *flags, check=True):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--corpus", str(oracle_dir), *flags],
        capture_output=True, text=True, timeout=300, check=check,
    )


def _table(stdout):
    """The printed table without the elapsed-time column."""
    return re.sub(r"  \(\d+\.\ds\)$", "", stdout, flags=re.MULTILINE)


def _outputs(out):
    """Every `--out` file but the `timings.jsonl` ones, by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "timings.jsonl"}


@pytest.fixture(scope="module")
def mock_run(oracle_dir, tmp_path_factory):
    """The default run: stdout and the `--out` directory."""
    out = tmp_path_factory.mktemp("experiments") / "results"
    return _run(oracle_dir, "--out", str(out)).stdout, out


def test_run_experiments_prints_the_quickstart_table(mock_run):
    stdout, out = mock_run
    lines = stdout.split("\n")
    rows = [line.split() for line in lines]
    systems = {row[0]: (row[1], row[2]) for row in rows if row and row[0] in EXPECTED_SYSTEMS}
    assert systems == EXPECTED_SYSTEMS
    ablation = lines.index("stage ablation (m1, m2, m3 -> accuracy)")
    assert [line.strip() for line in lines[ablation + 1:ablation + 5]] == EXPECTED_ABLATION
    for system in EXPECTED_SYSTEMS:
        assert sorted(p.name for p in (out / system).iterdir()) == [
            "results.jsonl", "summary.json", "timings.jsonl", "traces.jsonl"]
    assert (out / "ablation.csv").read_text(encoding="utf-8").startswith("m1,m2,m3,accuracy\n")


class _CountingMock(MockBackend):
    def __init__(self, corpus):
        super().__init__(corpus)
        self.requests = []

    def dispatch(self, req):
        self.requests.append(req)
        return super().dispatch(req)


def test_grid_over_remote_asks_each_distinct_call_once(oracle_bundle, oracle_dir, mock_run):
    """One client serves the whole grid, so its reply store answers every
    repeat; the only other requests are one probe per evaluation."""
    backend = _CountingMock(oracle_bundle.fixtures)
    server = start_server(backend)
    try:
        proc = _run(oracle_dir, "--backend", f"remote:127.0.0.1:{server.server_address[1]}",
                    "--workers", "1")
    finally:
        server.shutdown()
        server.server_close()
    assert _table(proc.stdout) == _table(mock_run[0])
    probe = ToolRequest(0, "caption", None, None)
    assert backend.requests.count(probe) == len(GRID)
    assert len(backend.requests) == DISTINCT_CALLS + len(GRID)


def test_record_then_replay_reproduces_every_output_byte(oracle_dir, mock_backend, run_grid,
                                                         mock_run, tmp_path):
    recording = tmp_path / "grid.rec"
    _run(oracle_dir, "--record", str(recording))
    assert recording.read_bytes().count(b"\n") == 2 * DISTINCT_CALLS
    # the same bytes as the recording the golden grid digest pins
    recorder = RecordingBackend(mock_backend, tmp_path / "in_process.rec")
    try:
        run_grid(recorder, tmp_path / "grid")
    finally:
        recorder.close()
    assert recording.read_bytes() == (tmp_path / "in_process.rec").read_bytes()

    out = tmp_path / "replayed"
    proc = _run(oracle_dir, "--backend", f"replay:{recording}", "--out", str(out))
    assert _table(proc.stdout) == _table(mock_run[0])
    assert len(_outputs(out)) == 4 * 3 + 1
    assert _outputs(out) == _outputs(mock_run[1])


@pytest.mark.parametrize("spec, complaint", [
    ("remote:127.0.0.1:1", "error: transport:"),
    ("replay:no-such.rec", "error: recording no-such.rec does not exist"),
    ("grpc:127.0.0.1:1", "error: unknown backend spec"),
], ids=["remote-refused", "replay-missing", "unknown-kind"])
def test_a_backend_that_cannot_serve_is_one_error_line(oracle_dir, spec, complaint):
    proc = _run(oracle_dir, "--backend", spec, check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(complaint)
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""  # no header without rows


def test_workers_below_one_is_one_error_line(oracle_dir):
    proc = _run(oracle_dir, "--workers", "0", check=False)
    assert proc.returncode == 2
    assert proc.stderr == "error: workers must be at least 1, got 0\n"
    assert proc.stdout == ""
