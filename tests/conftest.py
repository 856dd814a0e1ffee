from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from morevqa.corpus import build_oracle_corpus, write_corpus  # noqa: E402
from morevqa.harness import GRID, load_dataset, run_eval  # noqa: E402
from morevqa.tools import MockBackend, ToolRequest  # noqa: E402

# Requests to a known video and frame that break the tool contract only by a
# mistyped optional arg, a misplaced frame id or an unknown arg; every backend
# must answer each one `invalid:`.
CONTRACT_PROBES = [
    ToolRequest(1, "vqa", "v000", 1, {"question": "q", "prefix": 5}),
    ToolRequest(1, "vqa", "v000", 1, {"question": "q", "prefix": ["a"]}),
    ToolRequest(1, "localize", "v000", None, {"object": "cat", "frames": [1], "stage": 7}),
    ToolRequest(1, "localize", "v000", 1, {"object": "cat", "frames": [1]}),
    ToolRequest(1, "caption", "v000", 1, {"pad": "x"}),
    ToolRequest(1, "complete", "v000", 1, {"prompt": "#predict"}),
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
    """Run `harness.GRID` over the oracle corpus on one backend, writing each
    evaluation under `out_root`; return the bytes of every `results.jsonl`,
    `summary.json` and `traces.jsonl`, keyed by path relative to `out_root`."""
    items = load_dataset(oracle_dir / "dataset.jsonl")

    def run(backend, out_root: Path) -> dict[str, bytes]:
        for idx, (system, config) in enumerate(GRID):
            run_eval(items, system, backend, oracle_bundle.fixtures, run_config=config,
                     out_dir=out_root / f"{idx}_{system}", dataset_dir=oracle_dir)
        paths = [*out_root.glob("*/results.jsonl"), *out_root.glob("*/summary.json"),
                 *out_root.glob("*/traces.jsonl")]
        return {str(p.relative_to(out_root)): p.read_bytes() for p in sorted(paths)}

    return run
