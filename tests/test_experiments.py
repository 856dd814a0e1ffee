"""`scripts/run_experiments.py` end to end, as the README's Quickstart runs it."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

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


def test_run_experiments_prints_the_quickstart_table(oracle_dir, tmp_path):
    out = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--corpus", str(oracle_dir), "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.split("\n")
    rows = [line.split() for line in lines]
    systems = {row[0]: (row[1], row[2]) for row in rows if row and row[0] in EXPECTED_SYSTEMS}
    assert systems == EXPECTED_SYSTEMS
    ablation = lines.index("stage ablation (m1, m2, m3 -> accuracy)")
    assert [line.strip() for line in lines[ablation + 1:ablation + 5]] == EXPECTED_ABLATION
    for system in EXPECTED_SYSTEMS:
        assert sorted(p.name for p in (out / system).iterdir()) == [
            "results.jsonl", "summary.json", "timings.jsonl", "traces.jsonl"]
    assert (out / "ablation.csv").read_text(encoding="utf-8").startswith("m1,m2,m3,accuracy\n")
