#!/usr/bin/env python3
"""Evaluate the experiment grid, `harness.GRID`, on one backend over one
corpus and print a compact comparison table.

Usage:
    python scripts/build_corpus.py --out data/oracle
    python scripts/run_experiments.py --corpus data/oracle --out results/
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from morevqa.cli import EXIT_FATAL, FATAL_ERRORS, resolve_backend
from morevqa.harness import GRID, SYSTEMS, ablation_csv, load_dataset, run_eval
from morevqa.tools import RecordingBackend


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", required=True, help="directory from build_corpus.py")
    parser.add_argument("--out", help="where to write per-system results")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--backend", help="mock:DIR, remote:HOST:PORT or replay:FILE"
                        " (default: mock:CORPUS/fixtures); fixtures come from CORPUS/fixtures")
    parser.add_argument("--record", help="record every distinct tool call of the grid to this file")
    args = parser.parse_args()

    corpus_dir = Path(args.corpus)
    out_root = Path(args.out) if args.out else None
    recording = None
    try:
        fixtures_dir = str(corpus_dir / "fixtures")
        backend, fixtures = resolve_backend(args.backend or f"mock:{fixtures_dir}", fixtures_dir)
        items = load_dataset(corpus_dir / "dataset.jsonl")
        if args.record:
            backend = recording = RecordingBackend(backend, args.record)

        print(f"{len(items)} items over {len(fixtures)} videos\n")
        print(f"{'system':<14} {'accuracy':>9} {'fail rate':>10}  per-subset")
        rows = []
        for idx, (system, config) in enumerate(GRID):
            started = time.perf_counter()
            is_system_row = idx < len(SYSTEMS)
            _, summary = run_eval(
                items, system, backend, fixtures, run_config=config, workers=args.workers,
                out_dir=out_root / system if out_root and is_system_row else None,
                dataset_dir=corpus_dir)
            if not is_system_row:
                rows.append((config.stage_mask, summary["accuracy"]))
                continue
            subsets = " ".join(f"{k}={v:.2f}" for k, v in summary["per_subset"].items())
            print(f"{system:<14} {summary['accuracy']:>9.3f} {summary['failure_rate']:>10.3f}"
                  f"  {subsets}  ({time.perf_counter() - started:.1f}s)")

        print("\nstage ablation (m1, m2, m3 -> accuracy)")
        for mask, accuracy in rows:
            bits = " ".join("on " if b else "off" for b in mask)
            print(f"  {bits} -> {accuracy:.3f}")
        if out_root:
            (out_root / "ablation.csv").write_text(ablation_csv(rows), encoding="utf-8")
    except FATAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        if recording is not None:
            recording.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
