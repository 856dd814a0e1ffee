from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from morevqa.core import RunConfig  # noqa: E402
from morevqa.corpus import build_oracle_corpus, write_corpus  # noqa: E402
from morevqa.harness import ABLATION_MASKS, SYSTEMS, load_dataset, run_eval  # noqa: E402
from morevqa.tools import MockBackend  # noqa: E402

# The run_experiments.py grid: every system, then every stage ablation mask.
GRID = [(system, RunConfig()) for system in SYSTEMS] + [
    ("morevqa", RunConfig(stage_mask=mask)) for mask in ABLATION_MASKS
]


@pytest.fixture(scope="session")
def oracle_bundle():
    return build_oracle_corpus(seed=0)


@pytest.fixture(scope="session")
def oracle_dir(oracle_bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    write_corpus(oracle_bundle, out)
    return out


@pytest.fixture(scope="session")
def mock_backend(oracle_bundle):
    return MockBackend(oracle_bundle.fixtures)


@pytest.fixture(scope="session")
def run_grid(oracle_bundle, oracle_dir):
    """Run the grid over the oracle corpus on one backend, writing each
    evaluation under `out_root`; return the bytes of every `results.jsonl`,
    `summary.json` and trace file, keyed by path relative to `out_root`."""
    items = load_dataset(oracle_dir / "dataset.jsonl")

    def run(backend, out_root: Path) -> dict[str, bytes]:
        for idx, (system, config) in enumerate(GRID):
            run_eval(items, system, backend, oracle_bundle.fixtures, run_config=config,
                     out_dir=out_root / f"{idx}_{system}", dataset_dir=oracle_dir)
        paths = [*out_root.glob("*/results.jsonl"), *out_root.glob("*/summary.json"),
                 *out_root.glob("*/traces/*.json")]
        return {str(p.relative_to(out_root)): p.read_bytes() for p in sorted(paths)}

    return run
