"""Seeded benchmark inputs: the 30-item oracle corpus, tiled.

`build_oracle_corpus` stops at 30 items, so the benchmark calls it once per
tile with seeds `seed`, `seed + 1`, ... and prefixes every video id with the
tile index. Distinct video ids mean one pass of a system that looks at the
video never sends the same tool request twice; `llm_only`'s video-blind
prompts can still coincide across tiles.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from morevqa import corpus


def write_tiles(seed: int, tiles: int, out_dir: Path) -> tuple[dict, Path]:
    """Write dataset.jsonl and the single-stage programs under out_dir;
    return the fixtures, keyed by video id, and the dataset path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    fixtures = {}
    rows = []
    programs: dict[str, str] = {}
    for tile in range(tiles):
        # looked up on the module so a traced run sees the call
        bundle = corpus.build_oracle_corpus(30, seed + tile)
        prefix = f"t{tile:03d}_"
        for video_id, fixture in bundle.fixtures.items():
            fixtures[prefix + video_id] = replace(fixture, video_id=prefix + video_id)
        for row in bundle.rows:
            row = dict(row, video_id=prefix + row["video_id"])
            path = row.get("program_path")
            if path is not None:
                text = bundle.programs[path]
                if programs.setdefault(path, text) != text:
                    path = row["program_path"] = f"{prefix}{path}"
                    programs[path] = text
            rows.append(row)
    for rel_path, text in programs.items():
        target = out_dir / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    dataset = out_dir / "dataset.jsonl"
    with open(dataset, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return fixtures, dataset
